import json
import math

import numpy as np
import pytest

import oracles
from torsionlab import (
    ConvexPolygon,
    InvalidDomainError,
    SamplingError,
    average_distance,
    erode,
    make_ellipse_polygon,
    make_rectangle,
    make_regular_ngon,
    make_triangle,
    random_convex_polygon,
    scale,
    shape_from_json,
)
from torsionlab import geometry


def test_rectangle_measures():
    # make_rectangle(L, R) is an L x 2R box, so inradius min(L, 2R)/2
    poly = make_rectangle(10.0, 0.5)
    assert np.isclose(poly.area, 10.0, rtol=1e-14)
    assert np.isclose(poly.perimeter, 22.0, rtol=1e-14)
    assert np.isclose(poly.inradius, 0.5, rtol=1e-12)
    assert np.isclose(poly.diameter, math.hypot(10.0, 1.0), rtol=1e-14)


def test_unit_square_exact():
    sq = make_rectangle(1.0, 0.5)
    assert sq.area == pytest.approx(1.0, abs=1e-15)
    assert sq.perimeter == pytest.approx(4.0, abs=1e-14)
    assert sq.inradius == pytest.approx(0.5, abs=1e-12)
    assert average_distance(sq) == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_triangle_inradius_345():
    # 3-4-5 right triangle has inradius (3 + 4 - 5)/2 = 1
    tri = make_triangle((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    assert np.isclose(tri.area, 6.0, rtol=1e-14)
    assert np.isclose(tri.inradius, 1.0, rtol=1e-12)
    assert np.isclose(tri.perimeter, 12.0, rtol=1e-14)
    # r = 2A/P for every triangle
    assert np.isclose(tri.inradius, 2.0 * tri.area / tri.perimeter, rtol=1e-12)


def test_triangle_average_distance_identity():
    for pts in [((0, 0), (4, 0), (0, 3)), ((0, 0), (2, 0), (1.2, 1.7)), ((-1, 0), (3, 0.5), (0.4, 2.2))]:
        tri = make_triangle(*pts)
        assert np.isclose(average_distance(tri), tri.inradius / 3.0, rtol=1e-12)


def test_regular_ngon_measures():
    for n in (3, 6, 64):
        poly = make_regular_ngon(n, 2.0)
        r_in = 2.0 * math.cos(math.pi / n)
        area = 0.5 * n * 4.0 * math.sin(2.0 * math.pi / n)
        assert np.isclose(poly.area, area, rtol=1e-13)
        assert np.isclose(poly.inradius, r_in, rtol=1e-10)
        # incircle-tangent polygon: mean boundary distance is r/3
        assert np.isclose(average_distance(poly), r_in / 3.0, rtol=1e-11)


def test_ellipse_polygon_area_converges():
    for n, rtol in [(64, 2e-3), (256, 2e-4)]:
        poly = make_ellipse_polygon(2.0, 1.0, n)
        assert np.isclose(poly.area, 2.0 * math.pi, rtol=rtol)
    assert make_ellipse_polygon(2.0, 1.0, 256).inradius < 1.0


def test_convexity_rejected():
    bad = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [0.0, 2.0]])
    with pytest.raises(InvalidDomainError) as exc:
        ConvexPolygon(bad)
    # message names the violating vertex triple
    assert "(" in str(exc.value) and ")" in str(exc.value)


def test_clockwise_rejected():
    cw = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidDomainError):
        ConvexPolygon(cw)


def test_too_few_vertices_rejected():
    with pytest.raises(InvalidDomainError):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_inradius_matches_grid_oracle():
    for seed in range(5):
        poly = random_convex_polygon(seed, 14)
        ref = oracles.grid_inradius(poly.vertices)
        assert np.isclose(poly.inradius, ref, rtol=5e-4)


def test_incenter_realizes_inradius():
    # the rectangles and the ellipse erode to a segment, the 1000-gon to a point
    polys = [random_convex_polygon(seed, 10) for seed in range(5)]
    polys += [
        make_rectangle(500.0, 0.5),
        make_rectangle(5.0, 0.5),
        make_ellipse_polygon(1000.0, 1.0, 128),
        make_regular_ngon(1000),
    ]
    for poly in polys:
        # outside points read 0, so a positive distance also places it inside
        d = poly.boundary_distances(poly.incenter[None])[0]
        assert np.isclose(d, poly.inradius, rtol=1e-9)


def test_average_distance_matches_monte_carlo():
    poly = random_convex_polygon(3, 12)
    mc = oracles.monte_carlo_average_distance(poly.vertices, 200_000)
    assert np.isclose(average_distance(poly), mc, rtol=5e-3)


def test_rectangle_average_distance_oracle():
    for L, R in [(1.0, 0.5), (10.0, 0.5), (3.0, 0.4)]:
        poly = make_rectangle(L, R)
        assert np.isclose(average_distance(poly), oracles.rectangle_average_distance(L, R), rtol=1e-12)


def test_boundary_distances_vectorized():
    poly = make_rectangle(2.0, 0.5)
    pts = np.array([[1.0, 0.5], [0.1, 0.5], [1.0, 0.05], [5.0, 0.5]])
    d = poly.boundary_distances(pts)
    assert np.allclose(d[:3], [0.5, 0.1, 0.05], rtol=1e-12)
    # outside points clamp to zero clearance
    assert d[3] == 0.0


def test_erode_square():
    sq = make_rectangle(1.0, 0.5)
    inner = erode(sq, 0.2)
    assert inner is not None
    assert np.isclose(inner.area, 0.36, rtol=1e-12)
    assert np.isclose(inner.perimeter, 4.0 * 0.6, rtol=1e-12)
    assert erode(sq, 0.5) is None or erode(sq, 0.5).area < 1e-20
    assert erode(sq, 0.7) is None


def test_erode_triangle_similar():
    tri = make_triangle((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    t = 0.4
    inner = erode(tri, t)
    shrink = (tri.inradius - t) / tri.inradius
    assert np.isclose(inner.area, tri.area * shrink**2, rtol=1e-10)


def test_erode_zero_identity():
    poly = random_convex_polygon(1, 9)
    inner = erode(poly, 0.0)
    assert np.isclose(inner.area, poly.area, rtol=1e-12)


def test_erode_matches_clipping_oracle():
    # random offsets, and offsets just either side of every schedule event,
    # where the eroded body loses edges
    polys = [random_convex_polygon(seed, 8 + seed) for seed in range(20)]
    polys.append(make_ellipse_polygon(1000.0, 1.0, 128))
    rng = np.random.default_rng(0)
    for poly in polys:
        events = [piece.end for piece in poly.erosion_schedule[:-1]]
        offsets = list(rng.uniform(0.0, poly.inradius, 5))
        offsets += [e * (1.0 + d) for e in events for d in (-1e-9, 1e-9)]
        for t in offsets:
            ref = oracles.clipped_eroded_body(poly.vertices, t)
            inner = erode(poly, t)
            assert len(inner.vertices) == len(ref), (t, poly)
            assert abs(inner.area - oracles.shoelace_area(ref)) <= 1e-13 * poly.area, (t, poly)
            d = inner.boundary_distances(inner.incenter[None])[0]
            assert np.isclose(d, inner.inradius, rtol=1e-9), (t, poly)


def test_erosion_rejects_unvalidated_nonconvex_polygon():
    dart = ConvexPolygon([(0.0, 0.0), (2.0, 0.0), (1.0, 1.5), (1.0, 0.5)], validate=False)
    clockwise = ConvexPolygon(random_convex_polygon(3, 10).vertices[::-1], validate=False)
    for poly in (dart, clockwise):
        with pytest.raises(InvalidDomainError):
            average_distance(poly)


def test_random_polygon_reproducible():
    a = random_convex_polygon(42, 16)
    b = random_convex_polygon(42, 16)
    assert np.array_equal(a.vertices, b.vertices)
    c = random_convex_polygon(43, 16)
    assert not np.array_equal(a.vertices, c.vertices)


def test_random_polygon_convex_and_sized():
    for seed in range(8):
        poly = random_convex_polygon(seed, 20)
        assert 3 <= len(poly.vertices) <= 20
        assert poly.area > 0
        # constructor revalidates convexity
        ConvexPolygon(poly.vertices)


def test_random_polygon_modes():
    hull = random_convex_polygon(7, 15, mode="hull-of-uniform")
    ngon = random_convex_polygon(7, 15, mode="perturbed-ngon")
    assert not np.array_equal(hull.vertices, ngon.vertices)
    with pytest.raises(Exception):
        random_convex_polygon(7, 15, mode="no-such-mode")


def test_random_polygon_retries_only_invalid_draws(monkeypatch):
    # a draw that makes no valid polygon is retried; a programming error is not
    def hull_raising(exc):
        def hull(pts):
            calls.append(len(pts))
            raise exc
        return hull

    calls = []
    monkeypatch.setattr(geometry, "ConvexHull", hull_raising(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        random_convex_polygon(7, 15)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(geometry, "ConvexHull", hull_raising(InvalidDomainError("flat")))
    with pytest.raises(SamplingError):
        random_convex_polygon(7, 15)
    assert len(calls) == geometry.MAX_SAMPLER_ATTEMPTS


def test_scale_exact():
    poly = random_convex_polygon(5, 11)
    big = scale(poly, 2.0)
    assert np.isclose(big.area, 4.0 * poly.area, rtol=1e-14)
    assert np.isclose(big.perimeter, 2.0 * poly.perimeter, rtol=1e-14)
    assert np.isclose(big.inradius, 2.0 * poly.inradius, rtol=1e-9)
    # the erosion schedule has no absolute tolerance, so size does not matter
    for t in (1e-8, 1e-6, 1e8):
        assert np.isclose(scale(poly, t).inradius, t * poly.inradius, rtol=1e-9)


def test_shape_spec_round_trip():
    for spec in [
        {"kind": "rectangle", "L": 10, "R": 0.5},
        {"kind": "regular_ngon", "n": 6, "circumradius": 1.0},
        {"kind": "ellipse_polygon", "a": 2, "b": 1, "n": 64},
        {"kind": "triangle", "points": [[0, 0], [4, 0], [0, 3]]},
        {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        {"kind": "random", "seed": 3, "n": 12},
    ]:
        poly = shape_from_json(spec)
        assert poly.area > 0
    with pytest.raises(Exception):
        shape_from_json({"kind": "pentagram"})


def test_shape_spec_build_matches_maker():
    # every kind of the table calls its maker with the spec's values, its
    # defaults being the maker's; the spec's text gives the same polygon
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    cases = [
        ({"kind": "polygon", "vertices": square}, ConvexPolygon(square)),
        ({"kind": "rectangle", "L": 3.0, "R": 0.25}, make_rectangle(3.0, 0.25)),
        ({"kind": "regular_ngon", "n": 7}, make_regular_ngon(7)),
        ({"kind": "regular_ngon", "n": 6, "circumradius": 2.5}, make_regular_ngon(6, 2.5)),
        ({"kind": "ellipse_polygon", "a": 2, "b": 1, "n": 64}, make_ellipse_polygon(2.0, 1.0, 64)),
        (
            {"kind": "triangle", "points": [[0, 0], [0, 3], [4, 0]]},
            make_triangle((0, 0), (0, 3), (4, 0)),
        ),
        ({"kind": "random", "seed": [3, 1]}, random_convex_polygon([3, 1])),
        (
            {"kind": "random", "seed": 3, "n": 12, "mode": "perturbed-ngon"},
            random_convex_polygon(3, 12, "perturbed-ngon"),
        ),
    ]
    assert {spec["kind"] for spec, _ in cases} == set(geometry.SHAPE_KINDS)
    for spec, poly in cases:
        assert np.array_equal(shape_from_json(spec).vertices, poly.vertices)
        assert np.array_equal(shape_from_json(json.dumps(spec)).vertices, poly.vertices)


def test_vertex_cap_is_inclusive():
    # validation and the diameter each build an (n, n, 2) pair array
    n = geometry.MAX_VERTICES
    theta = 2.0 * np.pi * np.arange(n + 1) / (n + 1)
    with pytest.raises(InvalidDomainError, match=f"at most MAX_VERTICES = {n} vertices"):
        ConvexPolygon(np.stack([np.cos(theta), np.sin(theta)], axis=1))
    assert len(make_regular_ngon(n).vertices) == n
