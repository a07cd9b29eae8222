"""Piecewise-linear finite elements for the p-torsion problem.

Meshes convex polygons and minimizes the variational energy
J(u) = (1/p) int |grad u|^p - int u over mesh functions vanishing on the
boundary, regularized as (1/p) int (|grad u|^2 + eps^2)^(p/2) with eps
driven down a continuation schedule. Each step is a Newton step with
a lagged-diffusivity step (weights (|grad u|^2 + eps^2)^((p-2)/2)) as
fallback. Gradients of piecewise-linear functions are constant per
triangle, so energies, weights and the torsion integral are all exact.
Per-triangle arrays are component-major, the M triangles on the last axis:
gradients are (2, M), and a matrix is priced as the (6, M) values of each
triangle's six lower local pairs. Every linear system is symmetric positive
definite on the mesh's interior nodes, summed by one np.bincount straight
into LAPACK band storage in reverse Cuthill-McKee order (the mesh's one
band plan) and solved by banded Cholesky.

Axis-aligned rectangles get a structured criss-cross mesh (exactly
symmetric, robust for aspect ratios in the thousands); every other polygon
is meshed by Delaunay triangulation of boundary chain points plus an
interior hexagonal lattice, followed by one smoothing pass.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial import Delaunay

from .errors import ConvergenceError, MeshResourceError
from .geometry import ConvexPolygon

NODE_BUDGET = 2_000_000
# Doubles one band matrix may hold: 1 GiB.
BAND_BUDGET = 2**30 // 8
# The six lower local pairs (i, j), i >= j, of a triangle's symmetric 3 x 3
# stiffness block, in the order of the plan's (6, M) pair arrays.
PAIR_I = np.array((0, 1, 2, 1, 2, 2))
PAIR_J = np.array((0, 0, 0, 1, 1, 2))

# Interior hexagonal lattice spacing relative to h_target, and the minimum
# clearance between lattice points and the boundary chain (in lattice
# spacings). Chosen so the longest Delaunay edge stays below 1.5 h_target.
LATTICE_FACTOR = 0.85
CLEARANCE_FACTOR = 0.45


@dataclass
class BandMatrix:
    """SPD matrix in LAPACK lower band storage, its unknowns in the order perm.

    Entry (i, j), j <= i, of the permuted matrix is ab[i - j, j] of the
    Fortran-ordered (kd + 1, n) array ab; nnz counts the full matrix's
    nonzeros. spsolve factors ab in place, so a matrix is solved once.
    Lower storage: LAPACK's unblocked band Cholesky (kd < 32) then makes
    unit-stride rank-1 updates, which OpenBLAS keeps on one thread; upper
    storage factored 5x slower with two OpenBLAS threads than with one at
    kd = 30."""

    ab: np.ndarray | None
    perm: np.ndarray
    nnz: int


def spsolve(a: BandMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs by banded Cholesky (LAPACK dpbtrf/dpbtrs), consuming a.

    Raises numpy.linalg.LinAlgError if a is not positive definite."""
    ab, a.ab = a.ab, None  # factored in place: a second solve must not reuse it
    ab, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise LinAlgError(f"band matrix is not positive definite (dpbtrf info {info})")
    x, _ = dpbtrs(ab, rhs[a.perm], lower=1, overwrite_b=1)
    out = np.empty_like(x)
    out[a.perm] = x
    return out


class Mesh:
    """Conforming triangulation of a convex polygon.

    nodes: (N, 2) float array; triangles: (M, 3) int array, positively
    oriented; boundary_mask: (N,) bool; h_max: longest edge length;
    parent_edges: for a mesh made by refine, the (N - N0, 2) pairs of
    coarse nodes whose midpoints are nodes N0.. (the first N0 nodes are the
    coarse mesh's), else None. Immutable; its per-triangle kernels (basis
    gradients, unit pair stiffness, band slots) are cached component-major
    in one plan, _band_plan. Every array it holds, given or cached, is
    read-only: rigidity_with_refinement caches the meshes of each polygon
    and solves every p on the same ones.
    """

    def __init__(self, nodes, triangles, boundary_mask, parent_edges=None):
        self.nodes = _frozen(np.ascontiguousarray(nodes, dtype=float))
        self.triangles = _frozen(np.ascontiguousarray(triangles, dtype=np.int32))
        self.boundary_mask = _frozen(np.ascontiguousarray(boundary_mask, dtype=bool))
        if parent_edges is not None:
            parent_edges = _frozen(np.ascontiguousarray(parent_edges, dtype=np.intp))
        self.parent_edges = parent_edges
        self.areas = _frozen(_signed_areas(self.nodes, self.triangles))
        total = float(self.areas.sum())
        if np.any(self.areas <= 1e-14 * total):
            raise MeshResourceError("mesh contains degenerate or inverted triangles")
        a, b, c = (self.nodes[self.triangles[:, k]] for k in range(3))
        self.h_max = float(
            max(
                np.max(np.hypot(*(b - a).T)),
                np.max(np.hypot(*(c - b).T)),
                np.max(np.hypot(*(a - c).T)),
            )
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def load_vector(self) -> np.ndarray:
        """(N,) exact integrals of the nodal basis functions."""
        b = np.zeros(self.n_nodes)
        np.add.at(b, self.triangles.ravel(), np.repeat(self.areas / 3.0, 3))
        return _frozen(b)

    @cached_property
    def interior_index(self) -> np.ndarray:
        return _frozen(np.flatnonzero(~self.boundary_mask))

    @cached_property
    def _band_plan(self):
        """The mesh's one plan of FEM kernels, component-major (triangles on
        the last axis): (G, tt, k6, slot6, perm, kd, nnz).

        G (2, 3, M) holds the x and y components of the basis gradients,
        tt (3, M) the triangles transposed, and k6 (6, M) the unit-weight
        stiffness area * grad phi_i . grad phi_j of the six lower local
        pairs (PAIR_I[e], PAIR_J[e]). The interior unknowns are taken in
        reverse Cuthill-McKee order perm, which confines the matrix to
        half-bandwidth kd. Pair e of triangle m adds into element slot6[e, m]
        of the Fortran-ordered (kd + 1, n) LAPACK lower band array or, if it
        touches a boundary node, into the dump slot (kd + 1) n, which
        _assemble drops. nnz counts the full matrix's distinct nonzeros. tt
        and slot6 are int32; BAND_BUDGET keeps every slot below 2^31.
        """
        tri, m = self.triangles, self.n_triangles
        a, b, c = (self.nodes[tri[:, k]] for k in range(3))
        G = np.empty((2, 3, m))
        for k, (p_opp1, p_opp2) in enumerate(((c, b), (a, c), (b, a))):
            d = p_opp1 - p_opp2
            G[0, k] = -d[:, 1]
            G[1, k] = d[:, 0]
        G /= 2.0 * self.areas
        k6 = self.areas * np.add.reduce(G[:, PAIR_I] * G[:, PAIR_J], axis=0)
        ni = len(self.interior_index)
        imap = np.full(self.n_nodes, -1, dtype=np.int64)
        imap[self.interior_index] = np.arange(ni)
        ti = imap[tri]  # (M, 3)
        rows = np.broadcast_to(ti[:, :, None], (m, 3, 3)).ravel()
        cols = np.broadcast_to(ti[:, None, :], (m, 3, 3)).ravel()
        kept = np.flatnonzero((rows >= 0) & (cols >= 0))
        graph = csr_matrix((np.ones(len(kept)), (rows[kept], cols[kept])), shape=(ni, ni))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.intp)
        rank = np.full(self.n_nodes, -1, dtype=np.int64)  # RCM position, -1 on the boundary
        rank[self.interior_index[perm]] = np.arange(ni)
        tt = np.ascontiguousarray(tri.T)
        r = rank[tt]
        ri, rj = r[PAIR_I], r[PAIR_J]
        col, off = np.minimum(ri, rj), np.abs(ri - rj)
        kd = int(off[col >= 0].max(initial=0))
        if (kd + 1) * ni > BAND_BUDGET:
            raise MeshResourceError(f"a {kd + 1} x {ni} band exceeds {BAND_BUDGET} doubles")
        slot6 = np.where(col >= 0, off + (kd + 1) * col, (kd + 1) * ni).astype(np.int32)
        counts = np.bincount(slot6.ravel(), minlength=(kd + 1) * ni + 1)[:-1]
        occupied = counts.reshape(ni, kd + 1) > 0  # column 0: the diagonal
        nnz = 2 * int(occupied.sum()) - int(occupied[:, 0].sum())
        return (*(_frozen(x) for x in (G, tt, k6, slot6, perm)), kd, nnz)

    def _assemble(self, values: np.ndarray) -> BandMatrix:
        """Interior-reduced band matrix from the plan's (6, M) pair values."""
        slot6, perm, kd, nnz = self._band_plan[3:]
        n = len(perm)
        data = np.bincount(slot6.ravel(), weights=values.ravel(), minlength=(kd + 1) * n + 1)
        return BandMatrix(data[:-1].reshape(n, kd + 1).T, perm, nnz)

    def stiffness(self, weights: np.ndarray) -> BandMatrix:
        """Interior-reduced weighted stiffness matrix."""
        return self._assemble(weights * self._band_plan[2])

    def energy_hessian(self, gu: np.ndarray, g: np.ndarray, p: float, eps2: float):
        """(Hessian, gradient) of (1/p) int (|grad u|^2 + eps2)^(p/2) at the u
        whose (2, M) per-triangle gradients are gu, with squares g,
        interior-reduced; the gradient is K(w) u for the lagged weights w,
        formed per triangle. None if the coefficients are not finite (wild
        iterate): c = (p - 2) w / (g + eps2) is finite only where w is. An
        entry that overflows still gets the Newton step rejected."""
        G, tt, k6 = self._band_plan[:3]
        with np.errstate(over="ignore", invalid="ignore"):
            ge = g + eps2
            w = ge ** ((p - 2.0) / 2.0)
            c = (p - 2.0) * w / ge
            if not np.isfinite(c).all():
                return None
            q = np.add.reduce(G * gu[:, None], axis=0)  # (3, M): grad phi_i . grad u
            cq = c * self.areas * q
            values = w * k6 + cq[PAIR_I] * q[PAIR_J]
            grad = (w * self.areas) * q
        grad = np.bincount(tt.ravel(), weights=grad.ravel(), minlength=self.n_nodes)
        return self._assemble(values), grad[self.interior_index]

    def prolong(self, u_coarse: np.ndarray) -> np.ndarray:
        """Nodal values on this refined mesh of the piecewise-linear function
        with nodal values u_coarse on the mesh it was refined from."""
        e = self.parent_edges
        return np.concatenate([u_coarse, 0.5 * (u_coarse[e[:, 0]] + u_coarse[e[:, 1]])])

    def gradient_field(self, u: np.ndarray) -> np.ndarray:
        """(2, M) gradient of a nodal function on each triangle."""
        G, tt = self._band_plan[:2]
        return np.add.reduce(G * u.take(tt), axis=1)

    def gradient_squares(self, u: np.ndarray) -> np.ndarray:
        """(M,) squared gradient magnitudes of a nodal function, inf where
        they overflow."""
        with np.errstate(over="ignore"):
            return _squares(self.gradient_field(u))

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "triangles": self.triangles.tolist(),
            "boundary_mask": self.boundary_mask.astype(int).tolist(),
        }


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _squares(gu: np.ndarray) -> np.ndarray:
    """(M,) squared magnitudes of (2, M) per-triangle gradients; the multiply
    warns on overflow, so callers that allow it use np.errstate."""
    sq = gu * gu
    return np.add(sq[0], sq[1], out=sq[0])


# -- mesh generation --------------------------------------------------------


def _signed_areas(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """(M,) triangle areas, positive for counter-clockwise vertex order."""
    a, b, c = nodes[tris[:, 0]], nodes[tris[:, 1]], nodes[tris[:, 2]]
    return 0.5 * (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )


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
    return Mesh(nodes, tris, boundary)


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
        areas = _signed_areas(pts, tris)
        flip = areas < 0.0
        tris[flip] = tris[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
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
    areas = _signed_areas(nodes, tris)
    a, b, c = nodes[tris[:, 0]], nodes[tris[:, 1]], nodes[tris[:, 2]]
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
    if np.any(_signed_areas(smoothed, tris) <= 1e-14 * total_area):
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
    """Uniform refinement: every triangle splits into four via edge midpoints,
    which become nodes n_nodes.. of the fine mesh (its parent_edges)."""
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
    return Mesh(nodes, children, boundary, parent_edges=uniq)


# -- nonlinear solve --------------------------------------------------------


# Solves and family sweeps accept p in (1, P_MAX_SUPPORTED].
P_MAX_SUPPORTED = 32.0

# Relative regularization levels: eps = eps_rel * max |grad u| per level.
EPS_LEVELS = tuple(10.0**-k for k in range(2, 11))
# A level before the last ends once a step lowers the energy by less than
# TOL_LAGGED (relative); the last level ends on a full (lam = 1) step that
# lowers it by less than TOL_NEWTON.
TOL_LAGGED = 1e-6
TOL_NEWTON = 1e-10
# Floor of the lagged weights relative to their maximum. Unfloored, a flat
# triangle at p = 32 weighs (eps_rel^2)^15 ~ 1e-60 and the lagged point lands
# ~1e56 |u| away, out of the halvings' reach; the floor keeps it near
# |u| / 1e-10. For p < 2 the weights stay above eps_rel^(2-p) >= 1e-10.
LOG_WEIGHT_FLOOR = math.log(1e-10)
# A power x^(p/2) that underflows takes libm's slow path (10-20x at p = 32), so
# bases are raised to POWER_FLOOR^(2/p); each adds at most area * POWER_FLOOR.
POWER_FLOOR = 1e-300
# Iteration budget of one solve, over all eps levels.
MAX_ITERS = 500
# At or below this p, a refined level of a refinement study starts from the
# prolonged coarse solution (nested iteration); above it, from cold_start.
# Over four levels of ten model shapes (six random polygons, the square, the
# 64-gon, the 4:1 and 10:1 ellipses), the prolonged start took 274 against
# 348 iterations at p = 1.5 and about 15% less time at p = 2.5 to 5 for
# about as many; at p = 8 both took the same time, and at p = 10 and 16
# cold_start took fewer iterations (263 against 313 at p = 10) and less time.
NESTED_START_P_MAX = 8.0


@dataclass
class TorsionSolution:
    """Discrete p-torsion function and its integral on one mesh. iterations
    is newton_steps + lagged_steps, the steps tried; at p = 2 it is 1, the
    linear solve. backtracks counts the line-search trials rejected."""

    mesh: Mesh
    p: float
    u: np.ndarray
    t_p: float
    energy: float
    iterations: int
    converged: bool
    energy_trace: list
    newton_steps: int = 0
    lagged_steps: int = 0
    backtracks: int = 0


# These run several times per line-search trial on arrays of a few hundred
# entries, where a call's overhead outweighs its arithmetic: they work in
# place and reduce with ufunc.reduce, not the np.sum and np.max wrappers.


def _power_sums(mesh: Mesh, x: np.ndarray, p: float) -> np.ndarray:
    """sum over triangles of area * max(x, floor)^(p/2), along x's last axis;
    overwrites x."""
    np.maximum(x, POWER_FLOOR ** (2.0 / p), out=x)
    x **= p / 2.0
    x *= mesh.areas
    return np.add.reduce(x, axis=-1)


def _energy(mesh: Mesh, g: np.ndarray, f: float, p: float, eps2: float) -> float:
    """Regularized energy of a function with squared gradients g and b.u = f;
    inf if it overflows, which callers allow with np.errstate(over="ignore")."""
    return float(_power_sums(mesh, g + eps2, p)) / p - f


def _ray_priced(mesh: Mesh, g: np.ndarray, f: float, p: float, eps2: float):
    """(energy at eps2, s) of the lower of u, with squared gradients g and
    b.u = f, (s = 1) and its ray minimizer s u, which wins ties. On the ray
    J(s u) = s^p E_p(u) / p - s f is least at s = (f / E_p(u))^(1/(p-1)),
    with log s clamped to [-700, 700], where exp(log s) is finite. There is
    no minimizer to compute (s = 1) if u is zero, f <= 0, or g or f is not
    finite. u's energy and the p-energy that sets s are priced in one
    stacked pass. Callers allow overflow, as for _energy."""
    g_top = float(np.maximum.reduce(g))
    if not (0.0 < g_top < math.inf and 0.0 < f < math.inf):
        return _energy(mesh, g, f, p, eps2), 1.0
    x = np.empty((2, len(g)))
    np.add(g, eps2, out=x[0])
    np.divide(g, g_top, out=x[1])  # g_top scaled out: the p/2 power cannot overflow
    e_reg, e_scaled = _power_sums(mesh, x, p)
    j = float(e_reg) / p - f
    log_e = 0.5 * p * math.log(g_top) + math.log(float(e_scaled))
    s = math.exp(min(max((math.log(f) - log_e) / (p - 1.0), -700.0), 700.0))
    if s != 1.0:
        j_s = _energy(mesh, g * s * s, s * f, p, eps2)
        if j_s <= j:
            return j_s, s
    return j, 1.0


def solve_p_torsion(mesh: Mesh, p: float, start: np.ndarray) -> TorsionSolution:
    """Minimize the discrete p-torsion energy by Newton steps along a
    continuation in the regularization, with lagged diffusivity as fallback.

    It starts from `start` (nodal values; boundary values are taken as 0),
    such as cold_start or a coarser solution prolonged. The start is priced
    as every line-search trial and the end are, by _ray_priced without
    regularization: it moves to its ray minimizer unless that raises the
    energy. At p = 2 the solve is one linear solve and `start` is not used.
    At each level of EPS_LEVELS, eps = eps_rel * max |grad u| for the
    current iterate. Each step tries the Newton direction of the regularized
    energy first and the lagged (Kacanov) step only where Newton is
    rejected; either goes through one halving line search, against the ray
    minimizer of each trial point, and must not raise the energy. A search
    starts at lam = 1 after a search that accepted its first trial, and at
    min(1, 2 lam) after one that backtracked to lam (a search that accepts
    nothing leaves this start as it was). A level ends on a step that lowers
    the energy by less than TOL_LAGGED; when that is its first step and a
    full (lam = 1) Newton step, the last level comes next. On the last level
    a step must lower the energy. It converges on a full step that lowers
    the energy by less than TOL_NEWTON, or when both kinds of step are
    rejected (the floating-point floor). A converged u with nodes below 0
    offers max(u, 0) as one more candidate, priced like the end, and takes
    it unless it raises the energy. A solve that has not converged after
    MAX_ITERS iterations, over all levels, raises ConvergenceError carrying
    its last iterate.
    """
    _check_p(p)
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
        try:
            return nodal(spsolve(mesh.stiffness(weights), b_int))
        except LinAlgError as exc:
            raise ConvergenceError(f"p-torsion solve (p={p}): {exc}") from exc

    if p == 2.0:
        u = linear_solve(np.ones(mesh.n_triangles))
        t_p = float(load @ u)
        e2 = _energy(mesh, mesh.gradient_squares(u), t_p, p, 0.0)
        return _checked(TorsionSolution(mesh, p, u, t_p, e2, 1, True, [(0, e2)]))

    u = np.array(start, dtype=float)
    u[mesh.boundary_mask] = 0.0
    iterations = trials = 0

    def search(u, gu, f_u, d, lam, j_cur, eps2, must_lower):
        """Halve lam until u + lam d, or its ray minimizer, does not raise the
        energy at eps2; trials are priced from the gradients of u and d and
        from f_u = b.u. The accepted (point, lam), or None after 40 halvings
        or, if must_lower, when it does not lower the energy (passed by
        rounding alone)."""
        nonlocal trials
        f_d = float(load @ d)
        with np.errstate(over="ignore"):
            gd = mesh.gradient_field(d)
            for _ in range(40):
                trials += 1
                gc = gu + lam * gd
                j_c, s = _ray_priced(mesh, _squares(gc), f_u + lam * f_d, p, eps2)
                if j_c <= j_cur + 1e-12 * abs(j_cur):
                    break
                lam *= 0.5
            else:
                return None
        return None if must_lower and j_c >= j_cur else ((u + lam * d) * s, lam)

    def lagged_point(g, eps2):
        # weights (|grad u|^2 + eps^2)^((p-2)/2), scaled to max 1 in log space
        w_log = (0.5 * (p - 2.0)) * np.log(g + eps2)
        return linear_solve(np.exp(np.maximum(w_log - w_log.max(), LOG_WEIGHT_FLOOR)))

    def newton_direction(gu, g, eps2):
        # Newton direction of the regularized energy, or None if the Hessian
        # is not finite or not positive definite, or the direction is not finite
        hess_grad = mesh.energy_hessian(gu, g, p, eps2)
        if hess_grad is None:
            return None
        try:
            d_int = spsolve(hess_grad[0], b_int - hess_grad[1])
        except LinAlgError:
            return None
        return nodal(d_int) if np.all(np.isfinite(d_int)) else None

    # gu and g, the gradients of u and their squares, are recomputed from
    # each accepted point: updated along with u, they would drift
    gu = mesh.gradient_field(u)
    with np.errstate(over="ignore"):
        s = _ray_priced(mesh, _squares(gu), float(load @ u), p, 0.0)[1]
        u, gu = u * s, gu * s
        g = _squares(gu)
    trace: list = []
    converged = False
    lam0 = 1.0  # first trial of the next search
    newton_steps = lagged_steps = 0
    last = len(EPS_LEVELS) - 1
    li = 0
    while True:
        eps2 = (EPS_LEVELS[li] * EPS_LEVELS[li]) * (float(g.max()) or 1.0)
        f = float(load @ u)
        with np.errstate(over="ignore"):
            j_cur = _energy(mesh, g, f, p, eps2)
        remaining = MAX_ITERS - iterations
        cap = remaining if li == last else max(10, remaining // (2 * (last + 1 - li)))
        settled = False  # the level ended on its first step, a full Newton step
        for step in range(cap):
            accepted = None
            d = newton_direction(gu, g, eps2) if iterations < MAX_ITERS else None
            if d is not None:
                iterations += 1
                newton_steps += 1
                accepted = search(u, gu, f, d, lam0, j_cur, eps2, li == last)
            newton = accepted is not None
            if not newton:
                if iterations >= MAX_ITERS:
                    break
                iterations += 1
                lagged_steps += 1
                d = lagged_point(g, eps2) - u
                accepted = search(u, gu, f, d, lam0, j_cur, eps2, li == last)
            if accepted is None:
                converged = li == last  # stationary to float precision
                break
            u, lam = accepted
            lam0 = 1.0 if lam == lam0 else min(1.0, 2.0 * lam)
            f = float(load @ u)
            with np.errstate(over="ignore"):
                gu = mesh.gradient_field(u)
                g = _squares(gu)
                j_prev, j_cur = j_cur, _energy(mesh, g, f, p, eps2)
            rel_dec = (j_prev - j_cur) / max(abs(j_cur), 1e-300)
            trace.append((li, j_cur))
            if li == last:
                if lam == 1.0 and rel_dec < TOL_NEWTON:
                    converged = True
                    break
            elif rel_dec < TOL_LAGGED:
                settled = newton and lam == 1.0 and step == 0
                break
        if li == last or iterations >= MAX_ITERS:
            break
        li = last if settled else li + 1
    # on the optimal ray b.u equals the p-energy, so the reported integral
    # stays a lower bound of the discrete optimum even if slightly unconverged
    f = float(load @ u)
    with np.errstate(over="ignore"):
        energy, s = _ray_priced(mesh, g, f, p, 0.0)
        u = u * s
        if converged and u.min() < 0.0:
            # the floating-point floor can stop where u is nearly flat with
            # nodes a rounding below 0; max(u, 0) is one more candidate
            v = np.maximum(u, 0.0)
            e_v, s_v = _ray_priced(mesh, mesh.gradient_squares(v), float(load @ v), p, 0.0)
            if e_v <= energy:
                u, energy = v * s_v, e_v
    t_p = float(load @ u)
    backtracks = trials - len(trace)  # every search accepts at most its last trial
    sol = TorsionSolution(
        mesh, p, u, t_p, energy, iterations, converged, trace, newton_steps, lagged_steps,
        backtracks,
    )
    if not converged:
        raise ConvergenceError(
            f"p-torsion solve (p={p}) did not converge within {MAX_ITERS} "
            f"iterations (reached {iterations})",
            solution=sol,
        )
    return _checked(sol)


def _check_p(p: float) -> None:
    if not (1.0 < p <= P_MAX_SUPPORTED):
        raise ValueError(f"p must lie in (1, {P_MAX_SUPPORTED}], got {p}")


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


def cold_start(poly: ConvexPolygon, mesh: Mesh, p: float) -> np.ndarray:
    """(N,) start for a solve of p on a mesh of poly with no solution to
    start from: the disk's p-torsion function c (R^p' - r^p'), p' = p/(p - 1),
    written in the boundary distance d and the inradius R, up to scale,
    1 - (1 - d/R)_+^p', and 0 on the boundary. It is the disk's parabola at
    p = 2 and tends to d/R as p grows; ray pricing picks its scale."""
    d = poly.boundary_distances(mesh.nodes) / poly.inradius
    u = 1.0 - np.maximum(1.0 - d, 0.0) ** (p / (p - 1.0))
    u[mesh.boundary_mask] = 0.0
    return u


@dataclass
class RigidityEstimate:
    """Richardson-extrapolated torsion integral over uniform refinements."""

    t_p: float
    error_estimate: float
    values: list
    observed_order: float
    iterations: int
    solution: TorsionSolution

    @property
    def slack(self) -> float:
        """Relative slack budget: 3 x (refinement error estimate / value)."""
        return 3.0 * self.error_estimate / abs(self.t_p)


# Nested meshes of each polygon, by base mesh size h0: triangulate(poly, h0)
# and its uniform refinements, shared by every p solved on the polygon and
# dropped with it.
_NESTED_MESHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _nested_meshes(poly: ConvexPolygon, h0: float, levels: int) -> list:
    """The first `levels` cached meshes of poly at base size h0, meshed and
    refined on first use."""
    by_h0 = _NESTED_MESHES.setdefault(poly, {})
    meshes = by_h0.get(h0)
    if meshes is None:
        meshes = by_h0[h0] = [triangulate(poly, h0)]
    while len(meshes) < levels:
        meshes.append(refine(meshes[-1]))
    return meshes[:levels]


def rigidity_with_refinement(
    poly: ConvexPolygon,
    p: float,
    levels: int = 3,
    h0: float | None = None,
) -> RigidityEstimate:
    """Solve on `levels` uniformly refined meshes and extrapolate T_p.

    For p <= NESTED_START_P_MAX each refined level starts from the coarser
    level's solution, interpolated at edge midpoints (nested iteration). The
    base level, and every level for larger p, start from cold_start. A p
    outside (1, P_MAX_SUPPORTED] raises ValueError before any mesh or start
    is built. On nested meshes T_p grows with the level, and equal T_p on
    the two finest levels, which would give a zero error estimate, raise
    ConvergenceError.
    The error estimate is the difference of the two finest levels; the
    empirical convergence order comes from the last three levels when
    available (clamped to [0.5, 4]).
    The meshes are cached per polygon object and h0 and are read-only:
    every p solved on the same polygon reuses them, with their FEM arrays
    and band plans, and est.solution.mesh is one of them.
    """
    _check_p(p)
    if levels < 2:
        raise ValueError("refinement study needs levels >= 2")
    if h0 is None:
        h0 = default_h0(poly)
    values: list[float] = []
    iterations = 0
    sol = None
    for mesh in _nested_meshes(poly, h0, levels):
        if sol is not None and p <= NESTED_START_P_MAX:
            start = mesh.prolong(sol.u)
        else:
            start = cold_start(poly, mesh, p)
        sol = solve_p_torsion(mesh, p, start=start)
        values.append(sol.t_p)
        iterations += sol.iterations
    d_last = values[-1] - values[-2]
    if d_last == 0.0:
        # on nested meshes T_p grows with the level: a level made no progress
        raise ConvergenceError(
            f"refinement study (p={p}): T_p did not change from level {levels - 2} "
            f"to level {levels - 1} ({values[-1]:g}), so it has no error estimate",
            solution=sol,
        )
    if levels >= 3 and values[-2] - values[-3] != 0.0:
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
        observed_order=order,
        iterations=iterations,
        solution=sol,
    )
