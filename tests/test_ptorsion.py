import math
import warnings

import numpy as np
import pytest

import oracles
from torsionlab import (
    ConvergenceError,
    MeshResourceError,
    ball_torsion_integral,
    make_rectangle,
    make_regular_ngon,
    random_convex_polygon,
    scale,
)
from torsionlab.ptorsion import (
    Mesh,
    SolverOptions,
    default_h0,
    prolong,
    refine,
    rigidity_with_refinement,
    solve_p_torsion,
    triangulate,
)

SQUARE = make_rectangle(1.0, 0.5)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)


def test_triangulate_square_structured():
    mesh = triangulate(SQUARE, 0.25)
    assert mesh.h_max <= 1.5 * 0.25
    # crisscross tiling covers the square exactly
    a, b, c = (mesh.nodes[mesh.triangles[:, k]] for k in range(3))
    areas = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    assert np.all(areas > 0)
    assert np.isclose(areas.sum(), 1.0, rtol=1e-12)
    on_edge = mesh.nodes[mesh.boundary_mask]
    dist = np.minimum.reduce(
        [on_edge[:, 0], 1.0 - on_edge[:, 0], on_edge[:, 1], 1.0 - on_edge[:, 1]]
    )
    assert np.all(np.abs(dist) < 1e-12)


def test_triangulate_general_polygon():
    poly = random_convex_polygon(4, 10)
    mesh = triangulate(poly, 0.15)
    a, b, c = (mesh.nodes[mesh.triangles[:, k]] for k in range(3))
    areas = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    assert np.all(areas > 0)
    assert np.isclose(areas.sum(), poly.area, rtol=1e-9)
    assert mesh.h_max <= 1.5 * 0.15
    # every flagged node sits on the boundary
    d = poly.boundary_distances(mesh.nodes[mesh.boundary_mask])
    assert np.all(d < 1e-9)


def test_triangulate_budget():
    with pytest.raises(MeshResourceError):
        triangulate(SQUARE, 1e-4)


def test_triangulate_h_too_big():
    with pytest.raises((MeshResourceError, ValueError)):
        triangulate(SQUARE, 50.0)


def test_refine_quadruples():
    mesh = triangulate(SQUARE, 0.25)
    fine = refine(mesh)
    assert fine.n_triangles == 4 * mesh.n_triangles
    assert np.isclose(fine.h_max, 0.5 * mesh.h_max, rtol=1e-12)
    a, b, c = (fine.nodes[fine.triangles[:, k]] for k in range(3))
    areas = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    assert np.isclose(areas.sum(), 1.0, rtol=1e-12)


def test_prolong_reproduces_linear_functions():
    mesh = triangulate(SQUARE, 0.3)
    fine = refine(mesh)
    coarse_u = 2.0 * mesh.nodes[:, 0] - 0.7 * mesh.nodes[:, 1] + 0.25
    fine_u = prolong(coarse_u, fine)
    expect = 2.0 * fine.nodes[:, 0] - 0.7 * fine.nodes[:, 1] + 0.25
    assert np.allclose(fine_u, expect, atol=1e-12)


def test_mesh_rejects_inverted_triangles():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])
    boundary = np.array([True, True, True])
    with pytest.raises(MeshResourceError):
        Mesh(nodes, tris, boundary)


def test_p2_square_matches_series_oracle():
    est = rigidity_with_refinement(SQUARE, 2.0, levels=3, h0=0.08)
    assert np.isclose(est.t_p, oracles.SQUARE_T2, rtol=2e-4)
    # galerkin: discrete values increase under refinement toward T_2
    assert all(a < b for a, b in zip(est.values, est.values[1:]))
    assert all(v <= oracles.SQUARE_T2 for v in est.values)
    assert 1.5 < est.observed_order < 2.5


def test_p2_disk_matches_closed_form():
    disk = make_regular_ngon(64, 1.0)
    est = rigidity_with_refinement(disk, 2.0, levels=3)
    assert np.isclose(est.t_p, math.pi / 8.0, rtol=5e-3)


def test_general_p_disk_matches_closed_form():
    disk = make_regular_ngon(64, 1.0)
    for p, rtol in [(1.5, 0.02), (3.0, 0.02), (10.0, 0.02), (32.0, 0.02)]:
        est = rigidity_with_refinement(disk, p, levels=3)
        assert np.isclose(est.t_p, ball_torsion_integral(p), rtol=rtol), f"p={p}"


def test_solution_bounds_and_boundary():
    mesh = triangulate(SQUARE, 0.1)
    sol = solve_p_torsion(mesh, 3.0)
    assert sol.converged
    assert np.all(sol.u >= 0.0)
    assert np.all(sol.u[mesh.boundary_mask] == 0.0)
    assert np.all(sol.u[~mesh.boundary_mask] > 0.0)
    assert sol.t_p > 0.0


def test_energy_trace_decreases():
    mesh = triangulate(SQUARE, 0.1)
    sol = solve_p_torsion(mesh, 5.0)
    energies = [e for _, e in sol.energy_trace]
    # continuation restarts can bump the energy; the end beats the start
    assert energies[-1] <= energies[0]
    # lagged and Newton steps share one acceptance rule: within one eps
    # level (one regularized energy) no accepted step raises the energy
    for poly in (SQUARE, random_convex_polygon([0, 3])):
        for p in (1.05, 5.0, 32.0):
            sol = solve_p_torsion(triangulate(poly, default_h0(poly)), p)
            assert sol.converged and sol.energy_trace
            for (lvl_a, e_a), (lvl_b, e_b) in zip(sol.energy_trace, sol.energy_trace[1:]):
                if lvl_a == lvl_b:
                    assert e_b <= e_a + 1e-12 * abs(e_a), (p, lvl_a, e_a, e_b)


def test_large_p_ray_rescaling_stays_finite():
    # at p = 32 an iterate's gradient can overflow to inf; the ray rescaling
    # must then leave it alone instead of dividing inf by inf
    poly = random_convex_polygon([1, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = rigidity_with_refinement(poly, 32.0, levels=3)
    assert est.solution.converged
    assert np.isclose(est.t_p, 0.4204580919713495, rtol=1e-12)


def test_warm_start_matches_cold():
    mesh = triangulate(SQUARE, 0.1)
    cold = solve_p_torsion(mesh, 2.0)
    warm = solve_p_torsion(mesh, 2.0, u0=np.zeros(mesh.n_nodes))
    assert np.isclose(cold.t_p, warm.t_p, rtol=1e-12)


def test_convergence_error_carries_solution():
    mesh = triangulate(SQUARE, 0.15)
    with pytest.raises(ConvergenceError) as exc:
        solve_p_torsion(mesh, 5.0, SolverOptions(max_iters=2))
    assert exc.value.solution is not None
    assert exc.value.solution.converged is False


def test_p_out_of_range_rejected():
    mesh = triangulate(SQUARE, 0.2)
    for bad in (1.0, 0.5, 33.0):
        with pytest.raises(ValueError):
            solve_p_torsion(mesh, bad)


def test_rigidity_estimate_error_and_slack():
    est = rigidity_with_refinement(SQUARE, 2.0, levels=3, h0=0.1)
    assert est.error_estimate > 0.0
    assert np.isclose(est.slack, 3.0 * est.error_estimate / est.t_p, rtol=1e-12)
    assert len(est.values) == 3
    assert len(est.h_values) == 3
    assert est.h_values[0] == pytest.approx(2.0 * est.h_values[1], rel=1e-12)


def test_torsion_scaling_p2():
    # T_2(t Omega) = t^4 T_2(Omega); structured mesh makes this near exact
    est1 = rigidity_with_refinement(SQUARE, 2.0, levels=2, h0=0.1)
    est2 = rigidity_with_refinement(scale(SQUARE, 2.0), 2.0, levels=2, h0=0.2)
    assert np.isclose(est2.t_p, 16.0 * est1.t_p, rtol=1e-10)


def test_default_h0_scales_with_shape():
    small = default_h0(SQUARE)
    big = default_h0(scale(SQUARE, 10.0))
    assert 0.0 < small < 0.5
    assert np.isclose(big, 10.0 * small, rtol=1e-12)
