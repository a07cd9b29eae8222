import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import oracles
from torsionlab import (
    ConvergenceError,
    ConvexPolygon,
    MeshResourceError,
    ball_torsion_integral,
    make_ellipse_polygon,
    make_rectangle,
    make_regular_ngon,
    random_convex_polygon,
    scale,
)
from torsionlab import ptorsion
from torsionlab.functionals import build_shape_report
from torsionlab.ptorsion import (
    Mesh,
    _ray_priced,
    cold_start,
    default_h0,
    refine,
    rigidity_with_refinement,
    solve_p_torsion,
    spsolve,
    triangulate,
)

SQUARE = make_rectangle(1.0, 0.5)


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
    # the new nodes are the midpoints of the parent edges, so prolonging a
    # linear function gives its values at the fine nodes
    edges = fine.parent_edges
    assert edges.shape == (fine.n_nodes - mesh.n_nodes, 2) and mesh.parent_edges is None
    assert np.array_equal(fine.nodes[: mesh.n_nodes], mesh.nodes)
    mid = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    assert np.array_equal(fine.nodes[mesh.n_nodes :], mid)
    linear = lambda x: 0.3 + x[:, 0] - 2.0 * x[:, 1]  # noqa: E731
    assert np.allclose(fine.prolong(linear(mesh.nodes)), linear(fine.nodes), rtol=0, atol=1e-15)


def test_mesh_rejects_inverted_triangles():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])
    boundary = np.array([True, True, True])
    with pytest.raises(MeshResourceError):
        Mesh(nodes, tris, boundary)


def _dense_reference(mesh, blocks, block_mags=None):
    """Interior-reduced dense matrix from (M, 3, 3) blocks, summed by np.add.at,
    with the sum of the terms' magnitudes (block_mags, default |blocks|) and
    the nonzero pattern."""
    ni = len(mesh.interior_index)
    imap = np.full(mesh.n_nodes, -1)
    imap[mesh.interior_index] = np.arange(ni)
    ti = imap[mesh.triangles]
    rows = np.broadcast_to(ti[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(ti[:, None, :], blocks.shape).ravel()
    keep = (rows >= 0) & (cols >= 0)
    at = (rows[keep], cols[keep])
    ref, mag = np.zeros((ni, ni)), np.zeros((ni, ni))
    np.add.at(ref, at, blocks.ravel()[keep])
    if block_mags is None:
        block_mags = np.abs(blocks)
    np.add.at(mag, at, block_mags.ravel()[keep])
    pattern = np.zeros((ni, ni), dtype=bool)
    pattern[at] = True
    return ref, mag, pattern


def _band_to_dense(a):
    """The full matrix a band matrix holds, in the interior's own order."""
    kd1, n = a.ab.shape
    low = np.zeros((n, n))
    for d in range(kd1):
        j = np.arange(n - d)
        low[j + d, j] = a.ab[d, j]
    out = np.empty((n, n))
    out[np.ix_(a.perm, a.perm)] = low + np.tril(low, -1).T
    return out


def _grads(mesh):
    """(M, 3, 2) gradients of the three barycentric basis functions: the
    plan's (2, 3, M) G, transposed."""
    return mesh._band_plan[0].transpose(2, 1, 0)


def _unit_blocks(mesh):
    """(M, 3, 3) unit-weight stiffness blocks area * grad phi_i . grad phi_j,
    formed whole from the plan's G."""
    g = _grads(mesh)
    dots = g[:, :, None, 0] * g[:, None, :, 0] + g[:, :, None, 1] * g[:, None, :, 1]
    return mesh.areas[:, None, None] * dots


def _assert_matches_reference(a, blocks, mesh, label, block_mags=None):
    ref, mag, pattern = _dense_reference(mesh, blocks, block_mags)
    assert a.nnz == np.count_nonzero(pattern), label
    # each entry sums a few terms; the band holds one triangle of blocks that
    # are symmetric up to rounding; no entry lies outside the band
    err = np.abs(_band_to_dense(a) - ref)
    assert np.all(err <= 16 * np.finfo(float).eps * mag), label


def test_band_assembly_matches_dense_reference():
    # the RCM band holds every entry of the stiffness and Newton matrices,
    # equal to a dense np.add.at sum up to rounding
    rng = np.random.default_rng(8)
    for poly in (SQUARE, random_convex_polygon(0)):  # structured, Delaunay
        mesh = triangulate(poly, default_h0(poly))
        for lvl in range(3):
            if lvl:
                mesh = refine(mesh)
            m = mesh.n_triangles
            w = np.exp(5.0 * rng.standard_normal(m))
            for weights in (w, np.zeros(m)):
                blocks = _unit_blocks(mesh) * weights[:, None, None]
                _assert_matches_reference(mesh.stiffness(weights), blocks, mesh, (poly, lvl))
            u = poly.boundary_distances(mesh.nodes) * (1.0 + rng.random(mesh.n_nodes))
            u[mesh.boundary_mask] = 0.0
            g = mesh.gradient_squares(u)
            gu = np.einsum("mi,mij->jm", u[mesh.triangles], _grads(mesh))  # (2, M)
            q = np.einsum("jm,mij->mi", gu, _grads(mesh))
            for p in (1.05, 3.0, 32.0):
                for eps_rel in (1e-2, 1e-10):
                    eps2 = eps_rel * eps_rel * float(g.max())
                    w = (g + eps2) ** ((p - 2.0) / 2.0)
                    c = (p - 2.0) * (g + eps2) ** ((p - 4.0) / 2.0)
                    k_w = w[:, None, None] * _unit_blocks(mesh)
                    k_c = (c * mesh.areas)[:, None, None] * q[:, :, None] * q[:, None, :]
                    label = (poly, lvl, p, eps_rel)
                    hess, grad = mesh.energy_hessian(gu, g, p, eps2)
                    _assert_matches_reference(
                        hess, k_w + k_c, mesh, label, np.abs(k_w) + np.abs(k_c)
                    )
                    # the matrix-free gradient is K(w) u
                    k_ref, k_mag, _ = _dense_reference(mesh, k_w)
                    u_int = u[mesh.interior_index]
                    bound = 64 * np.finfo(float).eps * (k_mag @ np.abs(u_int))
                    assert np.all(np.abs(grad - k_ref @ u_int) <= bound), label


def _block_band(mesh, blocks):
    """Band array of (M, 3, 3) blocks: the six lower local pairs (i, j),
    i >= j, of whole blocks, in pair order, that couple two interior nodes,
    summed by one np.bincount in the plan's RCM order."""
    perm, kd = mesh._band_plan[4:6]
    ni = len(perm)
    imap = np.full(mesh.n_nodes, -1)
    imap[mesh.interior_index] = np.argsort(perm)
    ti = imap[mesh.triangles]
    pi, pj = ptorsion.PAIR_I, ptorsion.PAIR_J
    rows, cols = ti[:, pi].T.ravel(), ti[:, pj].T.ravel()  # pair-major
    kept = np.flatnonzero((rows >= 0) & (cols >= 0))
    lo, hi = np.minimum(rows[kept], cols[kept]), np.maximum(rows[kept], cols[kept])
    slot = hi - lo + (kd + 1) * lo
    values = blocks[:, pi, pj].T.ravel()[kept]
    data = np.bincount(slot, weights=values, minlength=(kd + 1) * ni)
    return data.reshape(ni, kd + 1).T


def test_band_entries_match_block_assembly_bitwise():
    # the plan prices the six lower pairs of each block, in pair order and
    # with the operations (w k + (c a q_i) q_j for the Hessian) of whole-block
    # assembly, and sums those that couple two interior nodes
    rng = np.random.default_rng(8)
    for poly in (SQUARE, random_convex_polygon(0)):
        mesh = triangulate(poly, default_h0(poly))
        for lvl in range(3):
            if lvl:
                mesh = refine(mesh)
            m = mesh.n_triangles
            w = np.exp(5.0 * rng.standard_normal(m))
            for weights in (w, np.zeros(m)):
                blocks = _unit_blocks(mesh) * weights[:, None, None]
                assert mesh.stiffness(weights).ab.tobytes() == _block_band(mesh, blocks).tobytes()
            u = poly.boundary_distances(mesh.nodes) * (1.0 + rng.random(mesh.n_nodes))
            u[mesh.boundary_mask] = 0.0
            gu = mesh.gradient_field(u)
            g = mesh.gradient_squares(u)
            grads = _grads(mesh)
            q = gu[0][:, None] * grads[:, :, 0] + gu[1][:, None] * grads[:, :, 1]
            for p in (1.05, 3.0, 32.0):
                for eps_rel in (1e-2, 1e-10):
                    eps2 = eps_rel * eps_rel * float(g.max())
                    w = (g + eps2) ** ((p - 2.0) / 2.0)
                    c = (p - 2.0) * w / (g + eps2)
                    blocks = w[:, None, None] * _unit_blocks(mesh)
                    blocks += (c * mesh.areas)[:, None, None] * q[:, :, None] * q[:, None, :]
                    hess, _ = mesh.energy_hessian(gu, g, p, eps2)
                    assert hess.ab.tobytes() == _block_band(mesh, blocks).tobytes(), (p, eps_rel)


def test_gradient_kernels_match_the_einsum_forms():
    # the component-major gradient and its squares against the per-triangle
    # einsum contractions: within 4 ulp of the terms summed, and inf where
    # the squares overflow
    rng = np.random.default_rng(10)
    overflowed = 0
    for poly in (SQUARE, random_convex_polygon(0)):
        mesh = triangulate(poly, default_h0(poly))
        for lvl in range(3):
            if lvl:
                mesh = refine(mesh)
            for size in (1.0, 3e152):  # at 3e152 some squares overflow
                u = size * rng.standard_normal(mesh.n_nodes)
                gu_ref = np.einsum("mi,mij->jm", u[mesh.triangles], _grads(mesh))
                terms = np.einsum("mi,mij->jm", np.abs(u[mesh.triangles]), np.abs(_grads(mesh)))
                with np.errstate(over="ignore"):
                    g_ref = np.einsum("jm,jm->m", gu_ref, gu_ref)
                gu, g = mesh.gradient_field(u), mesh.gradient_squares(u)
                label = (poly, lvl, size)
                assert gu.shape == (2, mesh.n_triangles), label
                assert np.all(np.abs(gu - gu_ref) <= 4 * np.spacing(terms)), label
                inf = np.isinf(g_ref)
                assert np.array_equal(np.isinf(g), inf), label
                fin = ~inf
                assert np.all(np.abs(g[fin] - g_ref[fin]) <= 4 * np.spacing(g_ref[fin])), label
                overflowed += int(inf.sum())
    assert overflowed > 0


def test_band_solve_matches_dense_solve():
    rng = np.random.default_rng(9)
    poly = random_convex_polygon(0)
    mesh = refine(triangulate(poly, default_h0(poly)))
    a = mesh.stiffness(1.0 + rng.random(mesh.n_triangles))
    dense = _band_to_dense(a)
    rhs = rng.standard_normal(len(a.perm))
    x_ref = np.linalg.solve(dense, rhs)
    x = spsolve(a, rhs)
    assert a.ab is None  # factored in place and given up
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_indefinite_band_matrix_raises():
    mesh = triangulate(SQUARE, 0.2)
    weights = np.ones(mesh.n_triangles)
    inner = np.flatnonzero(~mesh.boundary_mask[mesh.triangles].any(axis=1))
    weights[inner[0]] = -1e3  # a triangle with three interior vertices
    with pytest.raises(np.linalg.LinAlgError):
        spsolve(mesh.stiffness(weights), mesh.load_vector[mesh.interior_index])


def test_band_budget_raises(monkeypatch):
    monkeypatch.setattr(ptorsion, "BAND_BUDGET", 100)
    mesh = triangulate(SQUARE, 0.05)
    with pytest.raises(MeshResourceError):
        mesh.stiffness(np.ones(mesh.n_triangles))
    mesh = triangulate(SQUARE, 0.05)
    with pytest.raises(MeshResourceError):
        solve_p_torsion(mesh, 3.0, cold_start(SQUARE, mesh, 3.0))


def test_failed_linear_solve_is_a_convergence_error(monkeypatch):
    # a linear solve that LAPACK rejects never ends as "converged"
    def not_positive_definite(a, rhs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(ptorsion, "spsolve", not_positive_definite)
    mesh = triangulate(SQUARE, 0.2)
    for p in (2.0, 3.0, 16.0):  # p = 2; lagged steps after rejected Newton steps
        with pytest.raises(ConvergenceError):
            solve_p_torsion(mesh, p, cold_start(SQUARE, mesh, p))


def test_rejected_newton_solve_falls_back_to_lagged_steps(monkeypatch):
    mesh = triangulate(SQUARE, 0.2)
    start = cold_start(SQUARE, mesh, 3.0)
    ref = solve_p_torsion(mesh, 3.0, start)
    hessian = Mesh.energy_hessian

    def indefinite_hessian(self, gu, g, p, eps2):
        hess, grad = hessian(self, gu, g, p, eps2)
        hess.ab[0] *= -1.0  # negative diagonal: LAPACK rejects every Newton system
        return hess, grad

    monkeypatch.setattr(Mesh, "energy_hessian", indefinite_hessian)
    sol = solve_p_torsion(mesh, 3.0, start)
    assert sol.converged and abs(sol.t_p - ref.t_p) <= 1e-5 * ref.t_p


def test_ray_rescaling_branches():
    # dyadic node coordinates: the gradient of a constant is exactly zero
    mesh = triangulate(SQUARE, 0.125)
    d = SQUARE.boundary_distances(mesh.nodes)
    d[mesh.boundary_mask] = 0.0

    def ray_scale(m, v, p):
        with np.errstate(over="ignore"):
            return _ray_priced(m, m.gradient_squares(v), float(m.load_vector @ v), p, 0.0)[1]

    def b_dot_and_energy(v, p):
        return mesh.load_vector @ v, np.sum(mesh.areas * mesh.gradient_squares(v) ** (p / 2.0))

    # J(s v) = s^p E_p(v) / p - s b.v is stationary where b.v = E_p
    for p in (1.5, 3.0, 32.0):
        f, e = b_dot_and_energy(ray_scale(mesh, d, p) * d, p)
        assert np.isclose(f, e, rtol=1e-12), p
    # no minimizer to compute: the zero function, a constant (zero gradient,
    # b.v > 0), b.v <= 0, and squared gradients that overflow to inf keep
    # scale 1
    assert ray_scale(mesh, np.zeros(mesh.n_nodes), 3.0) == 1.0
    const = np.ones(mesh.n_nodes)
    assert mesh.gradient_squares(const).max() == 0.0
    assert ray_scale(mesh, const, 3.0) == 1.0
    assert mesh.load_vector @ -d < 0.0
    assert ray_scale(mesh, -d, 3.0) == 1.0
    huge = 1e200 * d
    assert mesh.gradient_squares(huge).max() == math.inf
    assert ray_scale(mesh, huge, 32.0) == 1.0
    # near p = 1, log s = log(b.v / E_p) / (p - 1) is clamped to +-700
    f, e = b_dot_and_energy(d, 1.001)
    assert math.log(f / e) / 0.001 < -700.0
    assert ray_scale(mesh, d, 1.001) == math.exp(-700.0)
    big_square = scale(SQUARE, 1000.0)
    big = triangulate(big_square, 100.0)
    d_big = big_square.boundary_distances(big.nodes)
    d_big[big.boundary_mask] = 0.0
    f = big.load_vector @ d_big
    e = np.sum(big.areas * big.gradient_squares(d_big) ** 0.5005)
    assert math.log(f / e) / 0.001 > 700.0
    # the clamped point exp(700) d_big has infinite energy, so d_big stays;
    # test_fused_ray_pricing_matches_the_composition_bitwise pins the clamp
    assert ray_scale(big, d_big, 1.001) == 1.0


def _energy_composed(mesh, g, f, p, eps2):
    x = np.maximum(g + eps2, ptorsion.POWER_FLOOR ** (2.0 / p))
    return float(np.sum(mesh.areas * x ** (p / 2.0))) / p - f


def _ray_scale_composed(mesh, g, f, p):
    g_top = float(g.max())
    if not (0.0 < g_top < math.inf and 0.0 < f < math.inf):
        return 1.0
    x = np.maximum(g / g_top, ptorsion.POWER_FLOOR ** (2.0 / p))
    e_scaled = float(np.sum(mesh.areas * x ** (p / 2.0)))
    log_e = 0.5 * p * math.log(g_top) + math.log(e_scaled)
    log_s = (math.log(f) - log_e) / (p - 1.0)
    if abs(log_s) > 700.0:
        log_s = math.copysign(700.0, log_s)
    return math.exp(log_s)


def _ray_priced_composed(mesh, g, f, p, eps2):
    """A trial's price as two energies and a ray scale, each its own pass."""
    j = _energy_composed(mesh, g, f, p, eps2)
    s = _ray_scale_composed(mesh, g, f, p)
    if s != 1.0:
        j_s = _energy_composed(mesh, g * s * s, s * f, p, eps2)
        if j_s <= j:
            return j_s, s
    return j, 1.0


def test_fused_ray_pricing_matches_the_composition_bitwise():
    # the one stacked pass sums each row in the order a lone 1-D sum does,
    # also past numpy's 8192-element buffer (25600 triangles here)
    rng = np.random.default_rng(15)
    coarse = triangulate(SQUARE, 0.1)
    meshes = [coarse, triangulate(random_convex_polygon([0, 1]), 0.1), refine(refine(refine(coarse)))]
    for mesh in meshes:
        m = mesh.n_triangles
        inf_entry = rng.random(m)
        inf_entry[m // 2] = math.inf
        gs = [np.exp(4.0 * rng.standard_normal(m)), rng.random(m) * 1e-3, np.zeros(m), inf_entry]
        for p in (1.05, 1.5, 3.0, 32.0):
            for g in gs:
                e_p = float(np.sum(mesh.areas * g ** (p / 2.0))) if np.all(np.isfinite(g)) else 1.0
                # f <= 0 and f of either sign of log s past the +-700 clamp
                for f in (0.3 * e_p, e_p, 0.0, -1.0, 1e-40 * e_p, 1e40 * e_p):
                    for eps2 in (0.0, 1e-20, 1e-4 * float(g.max())):
                        label = (mesh.n_triangles, p, f, eps2)
                        with np.errstate(over="ignore"):
                            fused = ptorsion._ray_priced(mesh, g, f, p, eps2)
                            composed = _ray_priced_composed(mesh, g, f, p, eps2)
                        assert np.array(fused).tobytes() == np.array(composed).tobytes(), label
    # the clamps were reached
    mesh = meshes[0]
    g = mesh.gradient_squares(SQUARE.boundary_distances(mesh.nodes))
    e_p = float(np.sum(mesh.areas * g ** 0.525))
    assert _ray_scale_composed(mesh, g, 1e-40 * e_p, 1.05) == math.exp(-700.0)
    assert _ray_scale_composed(mesh, g, 1e40 * e_p, 1.05) == math.exp(700.0)


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
    sol = solve_p_torsion(mesh, 3.0, cold_start(SQUARE, mesh, 3.0))
    assert sol.converged
    assert np.all(sol.u >= 0.0)
    assert np.all(sol.u[mesh.boundary_mask] == 0.0)
    assert np.all(sol.u[~mesh.boundary_mask] > 0.0)
    assert sol.t_p > 0.0


def test_energy_trace_decreases():
    mesh = triangulate(SQUARE, 0.1)
    sol = solve_p_torsion(mesh, 5.0, cold_start(SQUARE, mesh, 5.0))
    energies = [e for _, e in sol.energy_trace]
    # continuation restarts can bump the energy; the end beats the start
    assert energies[-1] <= energies[0]
    # lagged and Newton steps share one acceptance rule: within one eps
    # level (one regularized energy) no accepted step raises the energy
    for poly in (SQUARE, random_convex_polygon([0, 3])):
        for p in (1.05, 5.0, 32.0):
            mesh = triangulate(poly, default_h0(poly))
            sol = solve_p_torsion(mesh, p, cold_start(poly, mesh, p))
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
    assert np.isclose(est.t_p, 0.44076589292006113, rtol=1e-12)


def test_refinement_levels_increase_at_large_p():
    # on nested P1 spaces the minimum energy -(1 - 1/p) T_p cannot rise, so
    # each level's T_p grows; a solve that stops without minimizing (no
    # accepted step, equal levels, zero error estimate) breaks this
    cases = [
        (random_convex_polygon([1, 5]), 32.0, 3),
        (random_convex_polygon(0), 32.0, 3),
        (random_convex_polygon([11, 3]), 32.0, 3),
        (random_convex_polygon([1001, 0]), 10.0, 2),
        (make_ellipse_polygon(4.0, 1.0, 128), 10.0, 2),
        (make_ellipse_polygon(4.0, 1.0, 128), 32.0, 2),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for poly, p, levels in cases:
            est = rigidity_with_refinement(poly, p, levels=levels)
            for coarse, fine in zip(est.values, est.values[1:]):
                assert fine > coarse * (1.0 + 1e-4), (p, est.values)
            assert est.error_estimate > 0.0
            assert est.solution.energy_trace


def test_convergence_error_carries_solution(monkeypatch):
    monkeypatch.setattr(ptorsion, "MAX_ITERS", 2)
    mesh = triangulate(SQUARE, 0.15)
    with pytest.raises(ConvergenceError) as exc:
        solve_p_torsion(mesh, 5.0, cold_start(SQUARE, mesh, 5.0))
    assert exc.value.solution is not None
    assert exc.value.solution.converged is False


def test_p_out_of_range_rejected(monkeypatch):
    # the refinement study rejects p before it builds a start
    mesh = triangulate(SQUARE, 0.2)
    start = cold_start(SQUARE, mesh, 2.0)

    def no_start(poly, mesh, p):
        raise AssertionError(f"start built for p={p}")

    monkeypatch.setattr(ptorsion, "cold_start", no_start)
    for bad in (1.0, 0.5, 33.0):
        with pytest.raises(ValueError):
            solve_p_torsion(mesh, bad, start)
        with pytest.raises(ValueError):
            rigidity_with_refinement(SQUARE, bad)


def test_rigidity_estimate_error_and_slack():
    est = rigidity_with_refinement(SQUARE, 2.0, levels=3, h0=0.1)
    assert est.error_estimate > 0.0
    assert np.isclose(est.slack, 3.0 * est.error_estimate / est.t_p, rtol=1e-12)
    assert len(est.values) == 3


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


def _same_estimate(a, b):
    return (
        a.values == b.values
        and a.t_p == b.t_p
        and a.error_estimate == b.error_estimate
        and a.iterations == b.iterations
        and a.solution.u.tobytes() == b.solution.u.tobytes()
    )


def test_one_polygon_shares_its_meshes_across_p():
    # every p solved on one polygon object reuses its nested meshes, and
    # gets the same bits as a fresh polygon with fresh meshes
    poly = random_convex_polygon([41, 2])
    finest = set()
    for p in (1.05, 2.0, 3.0, 32.0):
        est = rigidity_with_refinement(poly, p, levels=2)
        fresh = rigidity_with_refinement(ConvexPolygon(poly.vertices), p, levels=2)
        assert _same_estimate(est, fresh), p
        finest.add(id(est.solution.mesh))
        assert est.solution.mesh is not fresh.solution.mesh
    assert len(finest) == 1


def test_cached_meshes_extend_to_more_levels():
    poly = random_convex_polygon([41, 3])
    two = rigidity_with_refinement(poly, 3.0, levels=2)
    three = rigidity_with_refinement(poly, 3.0, levels=3)
    fresh = rigidity_with_refinement(ConvexPolygon(poly.vertices), 3.0, levels=3)
    assert _same_estimate(three, fresh)
    assert three.values[:2] == two.values
    assert len(ptorsion._NESTED_MESHES[poly][default_h0(poly)]) == 3


def test_shape_report_triangulates_once(monkeypatch):
    calls = []
    triangulate_uncounted = ptorsion.triangulate

    def counting(poly, h_target):
        calls.append(h_target)
        return triangulate_uncounted(poly, h_target)

    monkeypatch.setattr(ptorsion, "triangulate", counting)
    poly = random_convex_polygon([41, 4])
    build_shape_report(poly, [1.5, 2.0, 3.0, 5.0, 10.0], levels=2)
    assert calls == [default_h0(poly)]
    build_shape_report(poly, [2.0], levels=2, h0=0.5 * default_h0(poly))
    assert calls == [default_h0(poly), 0.5 * default_h0(poly)]


def test_mesh_cache_entry_dropped_with_polygon():
    poly = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.2, 0.9], [0.1, 0.7]])
    rigidity_with_refinement(poly, 2.0, levels=2)
    assert poly in ptorsion._NESTED_MESHES
    entries = len(ptorsion._NESTED_MESHES)
    alive = weakref.ref(poly)
    del poly
    gc.collect()
    assert alive() is None
    assert len(ptorsion._NESTED_MESHES) == entries - 1


def test_shared_mesh_arrays_are_read_only():
    mesh = rigidity_with_refinement(SQUARE, 3.0, levels=2, h0=0.25).solution.mesh
    arrays = [
        mesh.nodes, mesh.triangles, mesh.boundary_mask, mesh.areas, mesh.load_vector,
        mesh.interior_index, mesh.parent_edges,
    ]
    arrays += [a for a in mesh._band_plan if isinstance(a, np.ndarray)]
    assert len(arrays) == 12
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]


def test_search_trials_gather_no_nodal_values(monkeypatch):
    # a line-search trial is priced from the per-triangle gradients of u and
    # of the direction; gradients are computed from nodal values only for
    # the start, each search direction and each accepted point, and never
    # twice in a row for the same vector
    gradient_field = Mesh.gradient_field
    ray_priced = ptorsion._ray_priced
    inputs, priced = [], []

    def recording(self, u):
        inputs.append(u.tobytes())
        return gradient_field(self, u)

    def counting(*args):
        priced.append(args)
        return ray_priced(*args)

    monkeypatch.setattr(Mesh, "gradient_field", recording)
    monkeypatch.setattr(ptorsion, "_ray_priced", counting)
    mesh = triangulate(SQUARE, 0.1)
    for p in (1.05, 3.0, 32.0):
        start = cold_start(SQUARE, mesh, p)
        inputs.clear()
        priced.clear()
        sol = solve_p_torsion(mesh, p, start)
        assert sol.converged
        searches = sol.newton_steps + sol.lagged_steps
        assert len(inputs) == 1 + searches + len(sol.energy_trace), p
        assert all(a != b for a, b in zip(inputs, inputs[1:])), p
        # every trial is priced once against its ray, as are the start and the end
        trials = len(priced) - 2
        assert trials >= searches, p
        assert sol.backtracks == trials - len(sol.energy_trace), p
        if p == 1.05:
            assert sol.backtracks > 0  # damped steps: halvings were tried


def test_solves_reach_the_previous_loops_minima(monkeypatch):
    # line-search trials are priced from carried per-triangle gradients, but
    # an accepted point's gradients are recomputed from its nodal values;
    # carried as s (gu + lam gd) through the lagged steps' ray scales
    # (s ~ 1.65 at p = 3) they drifted until the solve reported converged
    # 6e-4 below the true minimum. The last level stops on a full step, so
    # p = 1.05 on the 125-node mesh does not stop on damped steps; and it
    # rejects a step that does not lower the energy, so p = 1.1 on the
    # 128-node mesh does not take damped steps at the floating-point floor,
    # accepted by rounding alone, until MAX_ITERS.
    poly = random_convex_polygon([1001, 0])
    base = triangulate(poly, default_h0(poly))
    poly_stall = random_convex_polygon([208, 2])
    stall = refine(triangulate(poly_stall, default_h0(poly_stall)))
    # T_p from the lagged-diffusivity loop with a final-level Newton polish
    # that the Newton-first loop replaced
    cases = [
        (poly, base, 1.05, 3.7005463386483285e-13),
        (poly, base, 3.0, 0.1372570735463853),
        (poly, base, 32.0, 0.2582454744937854),
        (poly, refine(base), 1.05, 2.115242249360976e-12),
        (poly, refine(base), 3.0, 0.1472303517919773),
        (poly, refine(base), 32.0, 0.2792180597263434),
        (poly_stall, stall, 1.1, 1.2863187304161736e-06),
    ]

    def energy(mesh, u, p):
        return np.sum(mesh.areas * mesh.gradient_squares(u) ** (p / 2.0)) / p - mesh.load_vector @ u

    for shape, mesh, p, t_ref in cases:
        sol = solve_p_torsion(mesh, p, cold_start(shape, mesh, p))
        assert sol.converged
        assert np.isclose(sol.energy, energy(mesh, sol.u, p), rtol=1e-12, atol=0), p
        assert np.isclose(sol.t_p, t_ref, rtol=1e-8, atol=0), (mesh.n_nodes, p)
    # with every Newton step rejected, p = 3 takes lagged steps only
    monkeypatch.setattr(Mesh, "energy_hessian", lambda self, gu, g, p, eps2: None)
    for shape, mesh, p, t_ref in cases:
        if p == 3.0:
            sol = solve_p_torsion(mesh, p, cold_start(shape, mesh, p))
            assert sol.converged and sol.lagged_steps > 100 and sol.newton_steps == 0
            assert np.isclose(sol.energy, energy(mesh, sol.u, p), rtol=1e-12, atol=0)
            assert np.isclose(sol.t_p, t_ref, rtol=1e-8, atol=0)


def test_nested_levels_start_from_the_prolonged_coarse_solution():
    # for p <= 8 each refined level is solve_p_torsion started from the
    # coarser level's u, interpolated at edge midpoints; that start costs no
    # linear solve
    poly = random_convex_polygon([41, 2])
    for p in (1.05, 3.0):
        est = rigidity_with_refinement(poly, p, levels=3)
        meshes = ptorsion._nested_meshes(poly, default_h0(poly), 3)
        sol = solve_p_torsion(meshes[0], p, cold_start(poly, meshes[0], p))
        iterations = sol.iterations
        for fine in meshes[1:]:
            e = fine.parent_edges
            start = np.concatenate([sol.u, 0.5 * (sol.u[e[:, 0]] + sol.u[e[:, 1]])])
            sol = solve_p_torsion(fine, p, start=start)
            assert sol.iterations == sol.newton_steps + sol.lagged_steps
            iterations += sol.iterations
        assert sol.u.tobytes() == est.solution.u.tobytes(), p
        assert sol.t_p == est.values[-1] and iterations == est.iterations, p


def test_nested_levels_match_cold_solves():
    # the nested start moves each refined level's T_p by rounding only
    for poly in (SQUARE, random_convex_polygon([41, 2])):
        meshes = ptorsion._nested_meshes(poly, default_h0(poly), 3)
        for p in (1.05, 1.5, 3.0, 8.0):
            est = rigidity_with_refinement(poly, p)
            for mesh, t_p in zip(meshes[1:], est.values[1:]):
                cold = solve_p_torsion(mesh, p, cold_start(poly, mesh, p)).t_p
                assert abs(t_p - cold) <= 1e-8 * cold, (p, mesh.n_nodes, t_p, cold)


def test_cold_solves_start_from_the_disk_profile():
    # a refinement study's base level starts from cold_start, which costs no
    # linear solve; from it a solve reaches the T_p of the two starts it
    # replaced, the p = 2 solution and the distance to the boundary, up to
    # rounding
    shapes = [SQUARE, make_regular_ngon(64, 1.0), make_ellipse_polygon(4.0, 1.0, 128)]
    shapes += [random_convex_polygon([0, i]) for i in range(4)]
    for poly in shapes:
        mesh = triangulate(poly, default_h0(poly))
        u2 = solve_p_torsion(mesh, 2.0, cold_start(poly, mesh, 2.0)).u
        distance = poly.boundary_distances(mesh.nodes)
        for p in (1.5, 2.5, 3.0, 5.0, 8.0):
            cold = solve_p_torsion(mesh, p, cold_start(poly, mesh, p))
            assert cold.iterations == cold.newton_steps + cold.lagged_steps, (poly, p)
            assert rigidity_with_refinement(poly, p, levels=2).values[0] == cold.t_p, (poly, p)
            for start in (u2, distance):
                t_p = solve_p_torsion(mesh, p, start).t_p
                assert abs(cold.t_p - t_p) <= 1e-10 * t_p, (poly, p, cold.t_p, t_p)


def test_cold_start_is_near_the_disk_minimizer():
    # on the 64-gon, the best multiple of cold_start (its exponent p' =
    # p/(p - 1)) holds at least 99% of the converged T_p at every p
    poly = make_regular_ngon(64, 1.0)
    mesh = ptorsion._nested_meshes(poly, default_h0(poly), 2)[1]
    assert mesh.n_nodes == 265
    for p in (1.05, 1.1, 1.5, 3.0, 8.0, 32.0):
        u0 = cold_start(poly, mesh, p)
        assert np.all(u0[mesh.boundary_mask] == 0.0)
        s = _ray_priced(mesh, mesh.gradient_squares(u0), float(mesh.load_vector @ u0), p, 0.0)[1]
        t_p = solve_p_torsion(mesh, p, u0).t_p
        ratio = float(mesh.load_vector @ (s * u0)) / t_p
        assert 0.99 <= ratio <= 1.0, (p, ratio)


def test_large_p_levels_are_cold_solves():
    # above p = 8 every level takes the cold start
    poly = random_convex_polygon([41, 2])
    meshes = ptorsion._nested_meshes(poly, default_h0(poly), 3)
    for p in (10.0, 32.0):
        est = rigidity_with_refinement(poly, p)
        cold = [solve_p_torsion(mesh, p, cold_start(poly, mesh, p)).t_p for mesh in meshes]
        assert est.values == cold, p


def test_thin_ellipse_small_p_solve():
    poly = make_ellipse_polygon(1000.0, 1.0, 128)
    mesh = triangulate(poly, default_h0(poly))
    assert mesh.n_nodes == 14183
    for p in (1.05, 1.1):
        sol = solve_p_torsion(mesh, p, cold_start(poly, mesh, p))
        assert sol.converged and sol.u.min() >= 0.0, p


def test_truncation_that_raises_the_energy_is_not_kept(monkeypatch):
    # at p = 1.05 the solve on the kappa = 1000 ellipse stops with nodes a
    # rounding below 0, and max(u, 0) is offered as one more candidate; made
    # steeper (every squared gradient it is priced from is 4x), the candidate
    # raises the energy, is dropped, and the maximum principle check fires
    poly = make_ellipse_polygon(1000.0, 1.0, 128)
    mesh = triangulate(poly, default_h0(poly))
    gradient_squares = Mesh.gradient_squares
    monkeypatch.setattr(Mesh, "gradient_squares", lambda self, u: 4.0 * gradient_squares(self, u))
    with pytest.raises(ConvergenceError, match="discrete maximum principle violated") as info:
        solve_p_torsion(mesh, 1.05, cold_start(poly, mesh, 1.05))
    sol = info.value.solution
    assert sol.converged and sol.u.min() < 0.0


def test_each_search_starts_from_the_last_accepted_step(monkeypatch):
    # a search starts at lam = 1 after a search that accepted its first
    # trial, and at min(1, 2 lam) after one that backtracked to lam; a
    # search that accepts nothing leaves the start as it was. Replayed from
    # the nodal values whose gradients are gathered (the start, each
    # direction, each accepted point) and the b.u of each priced trial.
    gradient_field = Mesh.gradient_field
    ray_priced = ptorsion._ray_priced
    events = []

    def recording(self, u):
        events.append(("gather", u.copy()))
        return gradient_field(self, u)

    def pricing(mesh, g, f, p, eps2):
        out = ray_priced(mesh, g, f, p, eps2)
        events.append(("price", f, out[1]))
        return out

    monkeypatch.setattr(Mesh, "gradient_field", recording)
    monkeypatch.setattr(ptorsion, "_ray_priced", pricing)
    mesh = triangulate(SQUARE, 0.1)
    load = mesh.load_vector
    sol = solve_p_torsion(mesh, 1.05, cold_start(SQUARE, mesh, 1.05))
    assert sol.converged
    events.pop()  # the end's pricing
    (kind0, start), (kind1, _, s0) = events[:2]
    assert (kind0, kind1) == ("gather", "price")
    u, lam0, i = start * s0, 1.0, 2
    firsts, accepted = [], 0
    while i < len(events):
        kind, d = events[i]
        assert kind == "gather"
        i += 1
        f_u, f_d = float(load @ u), float(load @ d)
        trials = []
        while i < len(events) and events[i][0] == "price":
            trials.append(events[i])
            i += 1
        assert trials[0][1] == f_u + lam0 * f_d  # the first trial is at lam0
        firsts.append(lam0)
        lam = lam0 / 2.0 ** (len(trials) - 1)
        if i < len(events) and np.array_equal(events[i][1], (u + lam * d) * trials[-1][2]):
            u = events[i][1]
            i += 1
            accepted += 1
            lam0 = 1.0 if len(trials) == 1 else min(1.0, 2.0 * lam)
    assert len(firsts) == sol.newton_steps + sol.lagged_steps
    assert accepted == len(sol.energy_trace)
    assert min(firsts) < 0.5  # the memory was used


def test_final_energies_stay_at_the_fixed_start_searches_minima():
    # final unregularized energies of the meshes of
    # test_solves_reach_the_previous_loops_minima when every Newton search
    # started at lam = 1; a search's start at its predecessor's step must not
    # stop a solve higher than they by more than 2.5e-10 relative
    poly = random_convex_polygon([1001, 0])
    base = triangulate(poly, default_h0(poly))
    poly_stall = random_convex_polygon([208, 2])
    stall = refine(triangulate(poly_stall, default_h0(poly_stall)))
    cases = [
        (poly, base, 1.05, -1.762164923383736e-14),
        (poly, base, 3.0, -0.0915047156952532),
        (poly, base, 32.0, -0.2501753034110096),
        (poly, refine(base), 1.05, -1.007258213863663e-13),
        (poly, refine(base), 3.0, -0.09815356786131818),
        (poly, refine(base), 32.0, -0.2704924953598953),
        (poly_stall, stall, 1.1, -1.1693806643755023e-07),
    ]
    for shape, mesh, p, e_ref in cases:
        sol = solve_p_torsion(mesh, p, cold_start(shape, mesh, p))
        assert sol.energy <= e_ref + 2.5e-10 * abs(e_ref), (mesh.n_nodes, p, sol.energy, e_ref)


def test_zero_refinement_difference_is_a_convergence_error(monkeypatch):
    # on nested meshes T_p grows with the level; equal values on the two
    # finest levels would give error_estimate = 0 and slack = 0
    solve = ptorsion.solve_p_torsion

    def flat(mesh, p, start):
        sol = solve(mesh, p, start=start)
        sol.t_p = 0.5
        return sol

    monkeypatch.setattr(ptorsion, "solve_p_torsion", flat)
    with pytest.raises(ConvergenceError, match=r"p=3.0\): T_p did not change from level 1 to level 2"):
        rigidity_with_refinement(SQUARE, 3.0, levels=3)
