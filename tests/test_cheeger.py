import math

import numpy as np
import pytest

import oracles
from torsionlab import cheeger_constant, make_rectangle, make_regular_ngon, p_to_one_trend, random_convex_polygon, scale
from torsionlab.families import make_equilateral

SQUARE = make_rectangle(1.0, 0.5)


def test_square_cheeger_oracle():
    res = cheeger_constant(SQUARE)
    assert np.isclose(res.h, oracles.SQUARE_H, rtol=1e-9)
    assert abs(res.residual) < 1e-9
    # r_star solves pi r^2 = area(inner body), and h = 1/r_star
    assert np.isclose(res.h, 1.0 / res.r_star, rtol=1e-12)
    assert 0.0 < res.r_star < SQUARE.inradius


def test_equilateral_cheeger_oracle():
    tri = make_equilateral(1.0)
    res = cheeger_constant(tri)
    # oracle is stated at inradius 1; h scales like 1/t
    assert np.isclose(res.h, oracles.EQUILATERAL_H_R1 / tri.inradius, rtol=1e-9)


def test_tangential_polygon_formula():
    for n in (5, 8, 64):
        poly = make_regular_ngon(n, 1.0)
        res = cheeger_constant(poly)
        ref = oracles.tangential_cheeger(poly.inradius, poly.area)
        assert np.isclose(res.h, ref, rtol=1e-9)


def test_cheeger_scaling():
    poly = random_convex_polygon(11, 12)
    base = cheeger_constant(poly).h
    for t in (1e-6, 0.5, 3.0, 1e6):
        assert np.isclose(cheeger_constant(scale(poly, t)).h, base / t, rtol=1e-10), t


def test_cheeger_residual_random_polygons():
    # r_star solves area(erode(poly, r)) = pi r^2 to rounding
    for seed in range(20):
        poly = random_convex_polygon(seed, 6 + seed)
        res = cheeger_constant(poly)
        assert res.residual <= 1e-12 * poly.area, (seed, res.residual)


def test_cheeger_upper_bound_perimeter_over_area():
    # h <= P/A for convex sets (the whole set is an admissible competitor)
    for seed in range(6):
        poly = random_convex_polygon(seed, 12)
        res = cheeger_constant(poly)
        assert res.h <= poly.perimeter / poly.area + 1e-12
        # and h >= 1/R since the Cheeger core must fit a disk of radius r_star
        assert res.h * poly.inradius >= 1.0 - 1e-12


def test_cheeger_core_properties():
    res = cheeger_constant(SQUARE)
    core = res.cheeger_core
    assert core.area < SQUARE.area
    assert core.inradius <= SQUARE.inradius


def test_p_to_one_trend_square():
    trend = p_to_one_trend(SQUARE, [1.2, 1.1], levels=3, h0=0.1)
    assert len(trend.rows) == 2
    ps = [row[0] for row in trend.rows]
    assert ps == [1.2, 1.1]
    devs = [row[2] for row in trend.rows]
    # T(p) approaches h from above, deviation shrinking with p
    assert devs[1] < devs[0]
    assert np.isclose(trend.cheeger.h, oracles.SQUARE_H, rtol=1e-9)
    assert np.isclose(trend.q1, 0.5 * oracles.SQUARE_H, rtol=1e-12)
    assert 1.0 <= trend.q1 < 2.0


def test_p_to_one_trend_validation():
    with pytest.raises(ValueError):
        p_to_one_trend(SQUARE, [1.01], levels=2)
    with pytest.raises(ValueError):
        p_to_one_trend(SQUARE, [], levels=2)
