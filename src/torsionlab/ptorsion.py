"""Piecewise-linear finite elements for the p-torsion problem.

Meshes convex polygons and minimizes the variational energy
J(u) = (1/p) int |grad u|^p - int u over mesh functions vanishing on the
boundary. The nonlinearity is handled by lagged diffusivity: repeated
linear solves with per-triangle weights (|grad u|^2 + eps^2)^((p-2)/2),
driving eps down a continuation schedule. Gradients of piecewise-linear
functions are constant per triangle, so energies, weights and the torsion
integral are all exact.

Axis-aligned rectangles get a structured criss-cross mesh (exactly
symmetric, robust for aspect ratios in the thousands); every other polygon
is meshed by Delaunay triangulation of boundary chain points plus an
interior hexagonal lattice, followed by one smoothing pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve
from scipy.spatial import Delaunay

from .errors import ConvergenceError, MeshResourceError
from .geometry import ConvexPolygon

NODE_BUDGET = 2_000_000

# Interior hexagonal lattice spacing relative to h_target, and the minimum
# clearance between lattice points and the boundary chain (in lattice
# spacings). Chosen so the longest Delaunay edge stays below 1.5 h_target.
LATTICE_FACTOR = 0.85
CLEARANCE_FACTOR = 0.45


class Mesh:
    """Conforming triangulation of a convex polygon.

    nodes: (N, 2) float array; triangles: (M, 3) int array, positively
    oriented; boundary_mask: (N,) bool; h_max: longest edge length.
    Treated as immutable after construction; FEM work arrays are cached.
    """

    def __init__(self, nodes, triangles, boundary_mask, h_max=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int32)
        self.boundary_mask = np.ascontiguousarray(boundary_mask, dtype=bool)
        self.parent_edges = None  # set by refine(): (E, 2) parent node pairs
        self.parent_nodes = None  # node count of the parent mesh
        a, b, c = (self.nodes[self.triangles[:, k]] for k in range(3))
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )
        self.areas = 0.5 * cross
        total = float(self.areas.sum())
        if np.any(self.areas <= 1e-14 * total):
            raise MeshResourceError("mesh contains degenerate or inverted triangles")
        if h_max is None:
            h_max = float(
                max(
                    np.max(np.hypot(*(b - a).T)),
                    np.max(np.hypot(*(c - b).T)),
                    np.max(np.hypot(*(a - c).T)),
                )
            )
        self.h_max = h_max

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def grads(self) -> np.ndarray:
        """(M, 3, 2) gradients of the three barycentric basis functions."""
        a, b, c = (self.nodes[self.triangles[:, k]] for k in range(3))
        g = np.empty((self.n_triangles, 3, 2))
        for k, (p_opp1, p_opp2) in enumerate(((c, b), (a, c), (b, a))):
            d = p_opp1 - p_opp2
            g[:, k, 0] = -d[:, 1]
            g[:, k, 1] = d[:, 0]
        g /= (2.0 * self.areas)[:, None, None]
        return g

    @cached_property
    def k_local(self) -> np.ndarray:
        """(M, 3, 3) per-triangle stiffness blocks for unit weight."""
        g = self.grads
        return self.areas[:, None, None] * np.einsum("mik,mjk->mij", g, g)

    @cached_property
    def load_vector(self) -> np.ndarray:
        """(N,) exact integrals of the nodal basis functions."""
        b = np.zeros(self.n_nodes)
        np.add.at(b, self.triangles.ravel(), np.repeat(self.areas / 3.0, 3))
        return b

    @cached_property
    def interior_index(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)

    @cached_property
    def _assembly(self):
        """Static COO pattern for the interior-reduced stiffness matrix."""
        ni = len(self.interior_index)
        imap = np.full(self.n_nodes, -1, dtype=np.int64)
        imap[self.interior_index] = np.arange(ni)
        ti = imap[self.triangles]  # (M, 3)
        rows = np.broadcast_to(ti[:, :, None], (self.n_triangles, 3, 3)).ravel()
        cols = np.broadcast_to(ti[:, None, :], (self.n_triangles, 3, 3)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        return rows[keep], cols[keep], keep, ni

    def _assemble(self, blocks: np.ndarray):
        """Interior-reduced CSC matrix from (M, 3, 3) per-triangle blocks."""
        rows, cols, keep, ni = self._assembly
        return coo_matrix((blocks.ravel()[keep], (rows, cols)), shape=(ni, ni)).tocsc()

    def stiffness(self, weights: np.ndarray):
        """Interior-reduced weighted stiffness matrix (CSC)."""
        return self._assemble(self.k_local * weights[:, None, None])

    def energy_hessian(self, u: np.ndarray, p: float, eps2: float):
        """Interior-reduced Hessian of the regularized energy at u, or None
        if its entries are not finite (wild iterate)."""
        g = self.gradient_squares(u)
        with np.errstate(over="ignore", invalid="ignore"):
            w = (g + eps2) ** ((p - 2.0) / 2.0)
            c = (p - 2.0) * (g + eps2) ** ((p - 4.0) / 2.0)
        gu = np.einsum("mi,mij->mj", u[self.triangles], self.grads)
        q = np.einsum("mj,mij->mi", gu, self.grads)
        blocks = w[:, None, None] * self.k_local
        blocks += (c * self.areas)[:, None, None] * q[:, :, None] * q[:, None, :]
        if not np.all(np.isfinite(blocks)):
            return None
        return self._assemble(blocks)

    def gradient_squares(self, u: np.ndarray) -> np.ndarray:
        """(M,) squared gradient magnitudes of a nodal function."""
        gu = np.einsum("mi,mij->mj", u[self.triangles], self.grads)
        return np.einsum("mj,mj->m", gu, gu)

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """(E, 2) node pairs of edges lying on the domain boundary."""
        tri = self.triangles
        e = np.sort(
            np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1
        )
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        return uniq[counts == 1]

    @cached_property
    def boundary_node_distances(self) -> np.ndarray:
        """(N,) distance from each node to the boundary polyline."""
        be = self.boundary_edges
        a = self.nodes[be[:, 0]]
        ab = self.nodes[be[:, 1]] - a
        l2 = np.einsum("ej,ej->e", ab, ab)
        l2 = np.where(l2 > 0.0, l2, 1.0)
        best = np.full(self.n_nodes, np.inf)
        for s in range(0, len(be), 256):
            aa, dd, ll = a[s : s + 256], ab[s : s + 256], l2[s : s + 256]
            t = np.einsum("nj,ej->ne", self.nodes, dd)
            t -= np.einsum("ej,ej->e", aa, dd)
            t = np.clip(t / ll, 0.0, 1.0)
            proj = aa[None, :, :] + t[:, :, None] * dd[None, :, :]
            d = np.min(np.hypot(*(self.nodes[:, None, :] - proj).transpose(2, 0, 1)), axis=1)
            best = np.minimum(best, d)
        return best

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "triangles": self.triangles.tolist(),
            "boundary_mask": self.boundary_mask.astype(int).tolist(),
        }


# -- mesh generation --------------------------------------------------------


def _is_axis_rectangle(poly: ConvexPolygon) -> bool:
    v = poly.vertices
    if len(v) != 4:
        return False
    e = np.roll(v, -1, axis=0) - v
    tol = 1e-14 * poly.diameter
    return bool(np.all(np.minimum(np.abs(e[:, 0]), np.abs(e[:, 1])) <= tol))


def _structured_rectangle_mesh(poly: ConvexPolygon, h_target: float) -> Mesh:
    v = poly.vertices
    x0, y0 = v[:, 0].min(), v[:, 1].min()
    x1, y1 = v[:, 0].max(), v[:, 1].max()
    nx = max(1, math.ceil((x1 - x0) / h_target))
    ny = max(1, math.ceil((y1 - y0) / h_target))
    if (nx + 1) * (ny + 1) + nx * ny > NODE_BUDGET:
        raise MeshResourceError(
            f"h_target={h_target:g} needs more than {NODE_BUDGET} mesh nodes"
        )
    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    gx = x0 + dx * np.arange(nx + 1)
    gy = y0 + dy * np.arange(ny + 1)
    grid = np.stack(np.meshgrid(gx, gy, indexing="xy"), axis=-1).reshape(-1, 2)
    cx = x0 + dx * (np.arange(nx) + 0.5)
    cy = y0 + dy * (np.arange(ny) + 0.5)
    centers = np.stack(np.meshgrid(cx, cy, indexing="xy"), axis=-1).reshape(-1, 2)
    nodes = np.vstack([grid, centers])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    g00 = jj * (nx + 1) + ii
    g10 = g00 + 1
    g01 = g00 + (nx + 1)
    g11 = g01 + 1
    cc = (nx + 1) * (ny + 1) + jj * nx + ii
    tris = np.concatenate(
        [
            np.stack([g00, g10, cc], axis=1),
            np.stack([g10, g11, cc], axis=1),
            np.stack([g11, g01, cc], axis=1),
            np.stack([g01, g00, cc], axis=1),
        ]
    )
    boundary = np.zeros(len(nodes), dtype=bool)
    gi, gj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    on_edge = (gi == 0) | (gi == nx) | (gj == 0) | (gj == ny)
    boundary[: (nx + 1) * (ny + 1)] = on_edge.ravel()
    return Mesh(nodes, tris, boundary, h_max=float(max(dx, dy)))


def _boundary_chain(poly: ConvexPolygon, h_target: float) -> np.ndarray:
    pts = []
    v = poly.vertices
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        m = max(1, math.ceil(math.hypot(*(b - a)) / h_target))
        frac = np.arange(m) / m
        pts.append(a[None, :] + frac[:, None] * (b - a)[None, :])
    return np.vstack(pts)


def _hex_lattice(poly: ConvexPolygon, spacing: float) -> np.ndarray:
    v = poly.vertices
    x0, y0 = v[:, 0].min(), v[:, 1].min()
    x1, y1 = v[:, 0].max(), v[:, 1].max()
    ay = spacing * math.sqrt(3.0) / 2.0
    j_lo, j_hi = math.floor(y0 / ay), math.ceil(y1 / ay)
    i_lo, i_hi = math.floor(x0 / spacing) - 1, math.ceil(x1 / spacing) + 1
    est = (j_hi - j_lo + 1) * (i_hi - i_lo + 1)
    if est > 4 * NODE_BUDGET:
        raise MeshResourceError(
            f"h_target={spacing:g} needs more than {NODE_BUDGET} mesh nodes"
        )
    jj = np.arange(j_lo, j_hi + 1)
    ii = np.arange(i_lo, i_hi + 1)
    xx = ii[None, :] * spacing + (np.abs(jj[:, None]) % 2) * (spacing / 2.0)
    yy = np.broadcast_to(jj[:, None] * ay, xx.shape)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    dist = poly.boundary_distances(pts)
    return pts[dist >= CLEARANCE_FACTOR * spacing]


def _delaunay_mesh(poly: ConvexPolygon, h_target: float) -> Mesh:
    area = poly.area
    spacing = LATTICE_FACTOR * h_target
    last_error = None
    for _ in range(4):
        chain = _boundary_chain(poly, h_target)
        interior = _hex_lattice(poly, spacing)
        pts = np.vstack([chain, interior])
        if len(pts) > NODE_BUDGET:
            raise MeshResourceError(
                f"h_target={h_target:g} needs more than {NODE_BUDGET} mesh nodes"
            )
        tess = Delaunay(pts)
        if tess.coplanar.size:
            spacing *= 0.7919
            last_error = "Delaunay dropped coplanar points"
            continue
        tris = tess.simplices.astype(np.int32)
        a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )
        flip = cross < 0.0
        tris[flip] = tris[flip][:, [0, 2, 1]]
        areas = 0.5 * np.abs(cross)
        keep = areas > 1e-14 * area
        tris = tris[keep]
        if abs(float(areas[keep].sum()) - area) > 1e-9 * area:
            raise MeshResourceError("triangulation does not tile the polygon")
        boundary = np.zeros(len(pts), dtype=bool)
        boundary[: len(chain)] = True
        nodes = _smooth_interior(pts, tris, boundary, area)
        mesh = Mesh(nodes, tris, boundary)
        if mesh.h_max <= 1.5 * h_target:
            return mesh
        spacing *= 0.75
        last_error = f"h_max {mesh.h_max:g} exceeds 1.5 x h_target"
    raise MeshResourceError(f"could not mesh polygon at h_target={h_target:g}: {last_error}")


def _smooth_interior(nodes, tris, boundary, total_area):
    """One damped Lloyd-style pass: move interior nodes toward the
    area-weighted centroid of their incident triangles; revert wholly if
    any triangle degenerates."""
    a, b, c = nodes[tris[:, 0]], nodes[tris[:, 1]], nodes[tris[:, 2]]
    areas = 0.5 * (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )
    centroids = (a + b + c) / 3.0
    wsum = np.zeros(len(nodes))
    acc = np.zeros((len(nodes), 2))
    idx = tris.ravel()
    np.add.at(wsum, idx, np.repeat(areas, 3))
    np.add.at(acc, idx, np.repeat(areas[:, None] * centroids, 3, axis=0))
    movable = (~boundary) & (wsum > 0.0)
    target = nodes.copy()
    target[movable] = acc[movable] / wsum[movable, None]
    smoothed = nodes + 0.5 * (target - nodes)
    a, b, c = smoothed[tris[:, 0]], smoothed[tris[:, 1]], smoothed[tris[:, 2]]
    new_areas = 0.5 * (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )
    if np.any(new_areas <= 1e-14 * total_area):
        return nodes
    return smoothed


def triangulate(poly: ConvexPolygon, h_target: float) -> Mesh:
    """Conforming triangulation with h_max <= 1.5 * h_target, deterministic."""
    if not h_target > 0.0:
        raise ValueError("h_target must be positive")
    if h_target >= poly.diameter:
        raise ValueError(
            f"h_target={h_target:g} must be smaller than the polygon diameter "
            f"{poly.diameter:g}"
        )
    est = poly.area / (0.866 * (LATTICE_FACTOR * h_target) ** 2) + poly.perimeter / h_target
    if est > NODE_BUDGET:
        raise MeshResourceError(
            f"h_target={h_target:g} needs roughly {est:.3g} nodes, over the "
            f"{NODE_BUDGET} budget"
        )
    if _is_axis_rectangle(poly):
        return _structured_rectangle_mesh(poly, h_target)
    return _delaunay_mesh(poly, h_target)


def refine(mesh: Mesh) -> Mesh:
    """Uniform refinement: every triangle splits into four via edge midpoints."""
    tris = mesh.triangles
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    uniq, inverse, counts = np.unique(
        edges, axis=0, return_inverse=True, return_counts=True
    )
    n0 = mesh.n_nodes
    if n0 + len(uniq) > NODE_BUDGET:
        raise MeshResourceError(f"refinement exceeds the {NODE_BUDGET} node budget")
    midpoints = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    nodes = np.vstack([mesh.nodes, midpoints])
    mid_ids = n0 + inverse.reshape(-1, 3)  # columns: edges (0,1), (1,2), (2,0)
    m01, m12, m20 = mid_ids[:, 0], mid_ids[:, 1], mid_ids[:, 2]
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    children = np.concatenate(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([m01, v1, m12], axis=1),
            np.stack([m20, m12, v2], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    boundary = np.concatenate([mesh.boundary_mask, counts == 1])
    out = Mesh(nodes, children, boundary)
    out.parent_edges = uniq
    out.parent_nodes = n0
    return out


def prolong(coarse_u: np.ndarray, fine: Mesh) -> np.ndarray:
    """Interpolate a nodal function from a mesh onto its refinement."""
    if fine.parent_edges is None or fine.parent_nodes != len(coarse_u):
        raise ValueError("fine mesh is not a refinement of the coarse function's mesh")
    e = fine.parent_edges
    return np.concatenate([coarse_u, 0.5 * (coarse_u[e[:, 0]] + coarse_u[e[:, 1]])])


# -- nonlinear solve --------------------------------------------------------


# Solves and family sweeps accept p in (1, P_MAX_SUPPORTED].
P_MAX_SUPPORTED = 32.0

# Relative regularization levels: eps = eps_rel * max |grad u| per level.
EPS_LEVELS = tuple(10.0**-k for k in range(2, 11))
# A level's lagged steps stop below this relative energy decrease; the
# Newton polish on the final level stops below TOL_NEWTON.
TOL_LAGGED = 1e-6
TOL_NEWTON = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 500

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class TorsionSolution:
    """Discrete p-torsion function and its integral on one mesh."""

    mesh: Mesh
    p: float
    u: np.ndarray
    t_p: float
    energy: float
    iterations: int
    converged: bool
    energy_trace: list

    def to_json_dict(self) -> dict:
        out = self.mesh.to_json_dict()
        out["u"] = self.u.tolist()
        out["p"] = self.p
        out["T_p"] = self.t_p
        return out


def _energy(mesh: Mesh, u: np.ndarray, p: float, eps2: float) -> float:
    g = mesh.gradient_squares(u)
    with np.errstate(over="ignore"):
        bulk = float(np.sum(mesh.areas * (g + eps2) ** (p / 2.0)))
    return bulk / p - float(mesh.load_vector @ u)


def solve_p_torsion(
    mesh: Mesh, p: float, opts: SolverOptions | None = None, u0: np.ndarray | None = None
) -> TorsionSolution:
    """Minimize the discrete p-torsion energy by lagged diffusivity.

    The regularization is relative: at each level of EPS_LEVELS,
    eps = eps_rel * max |grad u| for the current iterate. Each level takes
    lagged-diffusivity steps until the energy decrease falls below
    TOL_LAGGED; the final level then polishes with Newton steps down to
    TOL_NEWTON, taking a lagged step wherever Newton is rejected. Every
    step goes through one halving line search and is accepted only if it
    does not raise the regularized energy. Convergence is declared only on
    the final level: by a Newton decrease below TOL_NEWTON, or when a
    lagged step after a rejected Newton step is rejected too (the
    floating-point floor).
    """
    opts = opts or SolverOptions()
    if not (1.0 < p <= P_MAX_SUPPORTED):
        raise ValueError(f"p must lie in (1, {P_MAX_SUPPORTED}], got {p}")
    interior = mesh.interior_index
    if interior.size == 0:
        raise MeshResourceError("mesh has no interior nodes; decrease h_target")
    load = mesh.load_vector
    b_int = load[interior]

    def nodal(x_int: np.ndarray) -> np.ndarray:
        out = np.zeros(mesh.n_nodes)
        out[interior] = x_int
        return out

    def linear_solve(weights: np.ndarray) -> np.ndarray:
        return nodal(spsolve(mesh.stiffness(weights), b_int))

    if p == 2.0:
        u = linear_solve(np.ones(mesh.n_triangles))
        t_p = float(load @ u)
        e2 = _energy(mesh, u, p, 0.0)
        return _checked(TorsionSolution(mesh, p, u, t_p, e2, 1, True, [(0, e2)]))

    iterations = 0
    if u0 is not None:
        u = np.asarray(u0, dtype=float).copy()
        u[mesh.boundary_mask] = 0.0
    elif p > 8.0:
        # for large p the minimizer is close to the boundary-distance cone
        u = mesh.boundary_node_distances.copy()
        u[mesh.boundary_mask] = 0.0
    else:
        u = linear_solve(np.ones(mesh.n_triangles))
        iterations = 1

    def rescaled(v: np.ndarray) -> np.ndarray:
        # exact minimizer of J over the ray {s v}: s = (b.v / E_p(v))^(1/(p-1))
        g = mesh.gradient_squares(v)
        g_top = float(g.max())
        f = float(load @ v)
        if not (0.0 < g_top < math.inf and 0.0 < f < math.inf):
            return v
        # scale out g_top so the p/2 power cannot overflow
        e_scaled = float(np.sum(mesh.areas * (g / g_top) ** (p / 2.0)))
        log_e = 0.5 * p * math.log(g_top) + math.log(e_scaled)
        log_s = (math.log(f) - log_e) / (p - 1.0)
        if abs(log_s) > 700.0:
            log_s = math.copysign(700.0, log_s)
        return v * math.exp(log_s)

    def search(u, d, u_one, lam, j_cur, eps2, ray):
        """Halve lam until the step does not raise the energy at eps2.

        The point tried is u + lam d, or u_one at lam = 1; with ray set, its
        ray minimizer competes. Returns (point, energy, lam), or None after
        40 halvings."""
        for _ in range(40):
            cand = u_one if lam == 1.0 else u + lam * d
            j_c = _energy(mesh, cand, p, eps2)
            if ray:
                cand2 = rescaled(cand)
                j_c2 = _energy(mesh, cand2, p, eps2)
                if j_c2 < j_c:
                    cand, j_c = cand2, j_c2
            if j_c <= j_cur + 1e-12 * abs(j_cur):
                return cand, j_c, lam
            lam *= 0.5
        return None

    def lagged_step(u, g, eps2, j_cur):
        # weights (|grad u|^2 + eps^2)^((p-2)/2), scaled to max 1 in log space
        nonlocal lam_mem
        w_log = (0.5 * (p - 2.0)) * np.log(g + eps2)
        w_log -= w_log.max()
        u_hat = linear_solve(np.exp(np.maximum(w_log, -575.0)))
        accepted = search(u, u_hat - u, u_hat, min(1.0, 2.0 * lam_mem), j_cur, eps2, ray=True)
        if accepted is not None:
            lam_mem = accepted[2]
        return accepted

    def newton_step(u, g, eps2):
        # Newton direction of the regularized energy, or None if the
        # Hessian or the direction is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            w_true = (g + eps2) ** ((p - 2.0) / 2.0)
        if not np.all(np.isfinite(w_true)):
            return None
        hess = mesh.energy_hessian(u, p, eps2)
        if hess is None:
            return None
        residual = b_int - mesh.stiffness(w_true) @ u[interior]
        try:
            d_int = spsolve(hess, residual)
        except Exception:
            return None
        return nodal(d_int) if np.all(np.isfinite(d_int)) else None

    u = rescaled(u)
    trace: list = []
    converged = False
    lam_mem = 1.0
    for li, eps_rel in enumerate(EPS_LEVELS):
        g = mesh.gradient_squares(u)
        g_max = float(g.max())
        if g_max <= 0.0:
            g_max = 1.0
        eps2 = (eps_rel * eps_rel) * g_max
        j_cur = _energy(mesh, u, p, eps2)
        remaining = opts.max_iters - iterations
        if li == len(EPS_LEVELS) - 1:
            cap = max(10, remaining // 3)
        else:
            cap = max(10, remaining // (2 * (len(EPS_LEVELS) - li)))
        for _ in range(cap):
            if iterations >= opts.max_iters:
                break
            iterations += 1
            accepted = lagged_step(u, g, eps2, j_cur)
            if accepted is None:
                break  # at the floating-point floor of this level
            u_new, j_new, _ = accepted
            step_rel = float(np.max(np.abs(u_new - u))) / max(float(np.max(np.abs(u_new))), 1e-300)
            rel_dec = (j_cur - j_new) / max(abs(j_new), 1e-300)
            u, j_cur = u_new, j_new
            g = mesh.gradient_squares(u)
            trace.append((li, j_cur))
            if rel_dec < TOL_LAGGED or step_rel < 1e-13:
                break
    # Newton polish on the final level: quadratic convergence to the strict
    # tolerance that plain lagged steps reach only asymptotically; a rejected
    # Newton step falls back to one lagged step, and only a double rejection
    # counts as the floating-point floor
    while iterations < opts.max_iters:
        g = mesh.gradient_squares(u)
        accepted = None
        d = newton_step(u, g, eps2)
        if d is not None:
            iterations += 1
            accepted = search(u, d, u + d, 1.0, j_cur, eps2, ray=False)
        if accepted is None:
            if iterations >= opts.max_iters:
                break
            iterations += 1
            accepted = lagged_step(u, g, eps2, j_cur)
            if accepted is None:
                converged = True  # stationary to float precision
                break
        u_new, j_new, _ = accepted
        rel_dec = (j_cur - j_new) / max(abs(j_new), 1e-300)
        u, j_cur = u_new, j_new
        trace.append((li, j_cur))
        if rel_dec < TOL_NEWTON:
            converged = True
            break
    # on the optimal ray b.u equals the p-energy, so the reported integral
    # stays a lower bound of the discrete optimum even if slightly unconverged
    u_ray = rescaled(u)
    if _energy(mesh, u_ray, p, 0.0) <= _energy(mesh, u, p, 0.0):
        u = u_ray
    t_p = float(load @ u)
    sol = TorsionSolution(mesh, p, u, t_p, _energy(mesh, u, p, 0.0), iterations, converged, trace)
    if not converged:
        raise ConvergenceError(
            f"p-torsion solve (p={p}) did not converge within {opts.max_iters} "
            f"iterations (reached {iterations})",
            solution=sol,
        )
    return _checked(sol)


def _checked(sol: TorsionSolution) -> TorsionSolution:
    u_max = float(sol.u.max())
    if u_max <= 0.0 or sol.t_p <= 0.0:
        raise ConvergenceError(
            f"degenerate torsion solution (max u = {u_max:g}, T_p = {sol.t_p:g})",
            solution=sol,
        )
    u_min = float(sol.u.min())
    if u_min < -1e-10 * u_max:
        raise ConvergenceError(
            f"discrete maximum principle violated: min u = {u_min:g} vs max u = {u_max:g}",
            solution=sol,
        )
    return sol


# -- refinement study -------------------------------------------------------


def default_h0(poly: ConvexPolygon) -> float:
    """Base mesh size: fine enough for interior structure at any aspect ratio."""
    return min(math.sqrt(poly.area) / 4.0, poly.inradius / 1.5)


@dataclass
class RigidityEstimate:
    """Richardson-extrapolated torsion integral over uniform refinements."""

    t_p: float
    error_estimate: float
    values: list
    h_values: list
    observed_order: float
    iterations: int
    solution: TorsionSolution

    @property
    def slack(self) -> float:
        """Relative slack budget: 3 x (refinement error estimate / value)."""
        return 3.0 * self.error_estimate / abs(self.t_p)


def rigidity_with_refinement(
    poly: ConvexPolygon,
    p: float,
    levels: int = 3,
    h0: float | None = None,
    opts: SolverOptions | None = None,
) -> RigidityEstimate:
    """Solve on `levels` uniformly refined meshes and extrapolate T_p.

    The error estimate is the difference of the two finest levels; the
    empirical convergence order comes from the last three levels when
    available (clamped to [0.5, 4]).
    """
    if levels < 2:
        raise ValueError("refinement study needs levels >= 2")
    if h0 is None:
        h0 = default_h0(poly)
    mesh = triangulate(poly, h0)
    values: list[float] = []
    h_values: list[float] = []
    iterations = 0
    u_prev = None
    sol = None
    for lvl in range(levels):
        if lvl > 0:
            mesh = refine(mesh)
            u_prev = prolong(u_prev, mesh)
        sol = solve_p_torsion(mesh, p, opts, u0=u_prev)
        u_prev = sol.u
        values.append(sol.t_p)
        h_values.append(mesh.h_max)
        iterations += sol.iterations
    d_last = values[-1] - values[-2]
    if levels >= 3 and d_last != 0.0 and values[-2] - values[-3] != 0.0:
        ratio = abs((values[-2] - values[-3]) / d_last)
        order = math.log2(ratio) if ratio > 0 else 2.0
        order = min(max(order, 0.5), 4.0)
    else:
        order = 2.0
    t_ext = values[-1] + d_last / (2.0**order - 1.0)
    return RigidityEstimate(
        t_p=t_ext,
        error_estimate=abs(d_last),
        values=values,
        h_values=h_values,
        observed_order=order,
        iterations=iterations,
        solution=sol,
    )
