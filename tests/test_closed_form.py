import math

import numpy as np
import pytest

import oracles
from torsionlab import (
    ball_normalized_rigidity,
    ball_torsion_integral,
    corridor_endpoints,
    ellipse_rigidity_p2,
    family_gamma_bound,
    prefactor,
)


def test_prefactor_exact_points():
    assert prefactor(2.0) == pytest.approx(3.0, abs=1e-15)
    # (2p-1)/(p-1) = 4 at p = 3/2, to the power 1/2
    assert prefactor(1.5) == pytest.approx(2.0, abs=1e-14)
    assert prefactor(3.0) == pytest.approx(6.25, abs=1e-13)


def test_prefactor_small_p_limit():
    # ((2p-1)/(p-1))^(p-1) -> 1 as p -> 1
    for p in (1.01, 1.001, 1.0001):
        assert abs(prefactor(p) - 1.0) < 20.0 * (p - 1.0)
    assert prefactor(1.0001) > 1.0


def test_ball_torsion_integral_p2():
    assert ball_torsion_integral(2.0, 1.0) == pytest.approx(math.pi / 8.0, rel=1e-14)
    # scaling: T_p(t B) = t^(D + p') T_p(B)
    assert ball_torsion_integral(2.0, 2.0) == pytest.approx(16.0 * math.pi / 8.0, rel=1e-13)


def test_ball_torsion_integral_matches_quadrature():
    for p in (1.5, 2.0, 3.0, 5.0, 10.0):
        ref = oracles.ball_torsion_quadrature(p)
        assert np.isclose(ball_torsion_integral(p, 1.0), ref, rtol=1e-6)


def test_ball_normalized_rigidity():
    # D (D + p')^(p-1) / R^p at D = 2
    assert ball_normalized_rigidity(2.0) == pytest.approx(8.0, rel=1e-14)
    assert ball_normalized_rigidity(2.0, 0.5) == pytest.approx(32.0, rel=1e-13)
    p = 3.0
    expected = 2.0 * (2.0 + 1.5) ** 2.0
    assert ball_normalized_rigidity(p) == pytest.approx(expected, rel=1e-13)


def test_ball_normalized_consistent_with_integral():
    # T_norm = |B|^(p-1) T_p^(1-p)
    for p in (1.5, 2.0, 4.0):
        t_p = ball_torsion_integral(p, 1.0)
        t_norm = math.pi ** (p - 1.0) * t_p ** (1.0 - p)
        assert np.isclose(ball_normalized_rigidity(p), t_norm, rtol=1e-12)


def test_ellipse_rigidity_p2():
    t_disk, q_disk = ellipse_rigidity_p2(1.0, 1.0)
    assert t_disk == pytest.approx(math.pi / 8.0, rel=1e-14)
    assert q_disk == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-13)
    t21, q21 = ellipse_rigidity_p2(2.0, 1.0)
    # pi a^3 b^3 / (4 (a^2 + b^2)) = 2 pi / 5
    assert t21 == pytest.approx(2.0 * math.pi / 5.0, rel=1e-14)
    assert q21 == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-13)


def test_family_gamma_bound_values():
    rect = family_gamma_bound("rectangle", 2.0)
    assert rect.value == pytest.approx(0.5, abs=1e-15)
    tri = family_gamma_bound("triangle")
    assert tri.value == pytest.approx(0.5, abs=1e-15)
    ell = family_gamma_bound("ellipse_p2", 2.0)
    assert ell.value == pytest.approx(math.sqrt(5.0 / 8.0), rel=1e-14)
    assert ell.exact


def test_family_gamma_bound_validation():
    with pytest.raises(Exception):
        family_gamma_bound("rectangle", 1.5)
    with pytest.raises(Exception):
        family_gamma_bound("no-such-family")


def test_corridor_endpoints_ordering():
    # windows must be consistent for a sane geometry (unit square)
    for p in (1.5, 2.0, 5.0):
        ends = corridor_endpoints(p, 0.5, 4.0, 1.0, 1.0 / 6.0)
        assert 0.0 < ends.hp_lower < ends.buser_upper
        assert ends.hp_lower < ends.buser_inradius_upper
        assert ends.delta_lower <= ends.delta_upper
        assert ends.geo_upper == pytest.approx(2.0, abs=1e-14)
