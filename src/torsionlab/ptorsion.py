"""Piecewise-linear finite elements for the p-torsion problem.

Meshes convex polygons and minimizes the variational energy
J(u) = (1/p) int |grad u|^p - int u over mesh functions vanishing on the
boundary, regularized as (1/p) int (|grad u|^2 + eps^2)^(p/2) with one
eps per solve, EPS_REL times the start's max |grad u|. Each step is a
Newton step with a lagged-diffusivity step (weights
(|grad u|^2 + eps^2)^((p-2)/2)) as fallback. Below p = PRIMAL_DUAL_P_MAX the
Newton steps are primal-dual: the solve carries a per-triangle flux sigma,
which replaces w grad u in one factor of the Hessian's rank-one term, so the
step no longer overshoots by about 1/(p - 1) where |grad u| is below its
target. Gradients of piecewise-linear functions are constant per triangle,
so energies, weights and the torsion integral are all exact.
Per-triangle arrays are component-major, the M triangles on the last axis:
gradients are (2, M), and a matrix is priced as the (6, M) values of each
triangle's six lower local pairs. Every linear system is symmetric positive
definite on the mesh's interior nodes, summed by one np.bincount straight
into LAPACK band storage in reverse Cuthill-McKee order (the mesh's one
band plan) and solved in that order by banded Cholesky.

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
from scipy.linalg.lapack import dpbsv
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
# Vertex k of child c of a refined triangle, as a row of its (v0, v1, v2,
# m01, m12, m20) ids: the children at v0, v1 and v2, then the middle one.
_CHILDREN = np.array(((0, 3, 5, 3), (3, 1, 4, 4), (5, 4, 2, 5)))

# Interior hexagonal lattice spacing relative to h_target, and the minimum
# clearance between lattice points and the boundary chain (in lattice
# spacings). Chosen so the longest Delaunay edge stays below 1.5 h_target.
LATTICE_FACTOR = 0.85
CLEARANCE_FACTOR = 0.45


@dataclass
class BandMatrix:
    """SPD matrix in LAPACK lower band storage, its unknowns in the order perm.

    Unknown k is interior node interior_index[perm[k]]. Entry (i, j), j <= i,
    of the permuted matrix is ab[i - j, j] of the Fortran-ordered (kd + 1, n)
    array ab; nnz counts the full matrix's nonzeros. spsolve factors ab in
    place, so a matrix is solved once. Lower storage: LAPACK's unblocked band
    Cholesky (kd < 32) then makes unit-stride rank-1 updates, which OpenBLAS
    keeps on one thread; upper storage factored 5x slower with two OpenBLAS
    threads than with one at kd = 30."""

    ab: np.ndarray | None
    perm: np.ndarray
    nnz: int


def spsolve(a: BandMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs, both in a's order perm, by one LAPACK dpbsv call (band
    Cholesky: dpbtrf, then dpbtrs), consuming a; rhs is not changed.

    Raises numpy.linalg.LinAlgError if a is not positive definite."""
    ab, a.ab = a.ab, None  # factored in place: a second solve must not reuse it
    _, x, info = dpbsv(ab, rhs, lower=1, overwrite_ab=1)
    if info != 0:
        raise LinAlgError(f"band matrix is not positive definite (dpbsv info {info})")
    return x


class Mesh:
    """Conforming triangulation of a convex polygon.

    nodes: (N, 2) float array; triangles: (M, 3) int array, positively
    oriented; boundary_mask: (N,) bool; h_max: longest edge length;
    parent_edges: for a mesh made by refine, the (N - N0, 2) pairs of
    coarse nodes whose midpoints are nodes N0.. (the first N0 nodes are the
    coarse mesh's), else None. Immutable; areas, h_max and the basis
    gradients come from one gather of the triangles' edge vectors, and the
    per-triangle kernels (basis gradients, unit pair stiffness, band slots)
    are cached component-major in one plan, _band_plan. Every array it
    holds, given or cached, is read-only: rigidity_with_refinement caches
    the meshes of each polygon and solves every p on the same ones.
    """

    def __init__(self, nodes, triangles, boundary_mask, parent_edges=None):
        self.nodes = _frozen(np.ascontiguousarray(nodes, dtype=float))
        tt = np.ascontiguousarray(np.asarray(triangles).T, dtype=np.intp)
        self.triangles = _frozen(np.ascontiguousarray(tt.T, dtype=np.int32))
        self.boundary_mask = _frozen(np.ascontiguousarray(boundary_mask, dtype=bool))
        if parent_edges is not None:
            parent_edges = _frozen(np.ascontiguousarray(parent_edges, dtype=np.intp))
        self.parent_edges = parent_edges
        e = _edge_vectors(self.nodes, tt)
        self.areas = _frozen(_signed_areas(e))
        total = float(self.areas.sum())
        if np.any(self.areas <= 1e-14 * total):
            raise MeshResourceError("mesh contains degenerate or inverted triangles")
        self.h_max = float(np.hypot(e[0], e[1]).max())
        # grad phi_k is the edge opposite vertex k rotated by +90 degrees, over 2 * area
        G = e[::-1] / (2.0 * self.areas)
        np.negative(G[0], out=G[0])
        self._grads, self._tt = _frozen(G), _frozen(tt)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def load_vector(self) -> np.ndarray:
        """(N,) exact integrals of the nodal basis functions."""
        b = np.bincount(
            self.triangles.ravel(), np.repeat(self.areas / 3.0, 3), minlength=self.n_nodes
        )
        return _frozen(b)

    @cached_property
    def interior_index(self) -> np.ndarray:
        return _frozen(np.flatnonzero(~self.boundary_mask))

    @cached_property
    def _band_plan(self):
        """The mesh's one plan of FEM kernels, component-major (triangles on
        the last axis): (G, tt, k6, slot6, perm, kd, nnz, rcm_nodes, rcm_tt).

        G (2, 3, M) holds the x and y components of the basis gradients,
        tt (3, M) the triangles transposed, and k6 (6, M) the unit-weight
        stiffness area * grad phi_i . grad phi_j of the six lower local
        pairs (PAIR_I[e], PAIR_J[e]). The interior unknowns are taken in
        reverse Cuthill-McKee order perm, which confines the matrix to
        half-bandwidth kd. scipy orders the canonical CSR graph whose entries
        are the sorted, distinct keys row * n + col of every triangle's nine
        local pairs with both nodes interior; nnz, the full matrix's distinct
        nonzeros, is their count. Pair e of triangle m adds into element
        slot6[e, m] of the Fortran-ordered (kd + 1, n) LAPACK lower band
        array or, if it touches a boundary node, into the dump slot
        (kd + 1) n, which _assemble drops. rcm_nodes = interior_index[perm];
        rcm_tt (3, M) holds the vertices' RCM positions, ni on the boundary.
        tt, slot6 and rcm_tt are intp, the index type of take and bincount,
        which would otherwise cast them. No interior node: MeshResourceError.
        """
        ni = len(self.interior_index)
        if ni == 0:
            raise MeshResourceError("mesh has no interior nodes; decrease h_target")
        G, tt = self._grads, self._tt
        gg = G.take(PAIR_I, axis=1) * G.take(PAIR_J, axis=1)
        k6 = self.areas * (gg[0] + gg[1])
        imap = np.full(self.n_nodes, -1, dtype=np.intp)
        imap[self.interior_index] = np.arange(ni)
        ti = imap[tt]  # (3, M), -1 on the boundary
        inner = ti >= 0
        # row * ni + col of the nine local pairs, sorted and distinct: the
        # graph's canonical CSR entries, the diagonal included
        keys = np.sort((ti[:, None] * ni + ti)[inner[:, None] & inner])
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rows, cols = np.divmod(keys, ni)
        # int32 indices, to which scipy would otherwise convert them
        indptr = np.searchsorted(rows, np.arange(ni + 1)).astype(np.int32)
        graph = csr_matrix((np.ones(len(keys)), cols.astype(np.int32), indptr), shape=(ni, ni))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.intp)
        rcm_nodes = self.interior_index[perm]
        rank = np.full(self.n_nodes, ni, dtype=np.intp)  # RCM position, ni on the boundary
        rank[rcm_nodes] = np.arange(ni)
        rcm_tt = rank[tt]
        ri, rj = rcm_tt[PAIR_I], rcm_tt[PAIR_J]
        col, off = np.minimum(ri, rj), np.abs(ri - rj)
        inner = np.maximum(ri, rj) < ni
        kd = int(off[inner].max(initial=0))
        if (kd + 1) * ni > BAND_BUDGET:
            raise MeshResourceError(f"a {kd + 1} x {ni} band exceeds {BAND_BUDGET} doubles")
        slot6 = np.where(inner, off + (kd + 1) * col, (kd + 1) * ni)
        k6, slot6, perm, rcm_nodes, rcm_tt = map(_frozen, (k6, slot6, perm, rcm_nodes, rcm_tt))
        return G, tt, k6, slot6, perm, kd, len(keys), rcm_nodes, rcm_tt

    def _assemble(self, values: np.ndarray) -> BandMatrix:
        """Interior-reduced band matrix from the plan's (6, M) pair values."""
        slot6, perm, kd, nnz = self._band_plan[3:7]
        n = len(perm)
        data = np.bincount(slot6.ravel(), weights=values.ravel(), minlength=(kd + 1) * n + 1)
        return BandMatrix(data[:-1].reshape(n, kd + 1).T, perm, nnz)

    def stiffness(self, weights: np.ndarray) -> BandMatrix:
        """Interior-reduced weighted stiffness matrix."""
        return self._assemble(weights * self._band_plan[2])

    def energy_hessian(self, gu: np.ndarray, g: np.ndarray, p: float, eps2: float, sigma=None):
        """(Newton matrix, gradient, w, g + eps2) of (1/p) int (|grad u|^2 +
        eps2)^(p/2) at the u whose (2, M) per-triangle gradients are gu, with
        squares g, interior-reduced, the gradient in RCM order; the gradient is
        K(w) u for the lagged weights w = (g + eps2)^((p - 2)/2), formed per
        triangle. The matrix is the Hessian, a [w grad phi_i . grad phi_j +
        c q_i q_j] per triangle with q_i = grad phi_i . grad u and
        c = (p - 2) w / (g + eps2). Given a (2, M) flux sigma (primal-dual
        Newton), sigma is clipped in place to |sigma|^2 <= w^2 (g + eps2), and
        c q_i q_j becomes h (r_i q_j + q_i r_j) with r_i = grad phi_i . sigma
        and h = c / (2 w): the same at sigma = w grad u, and for p < 2 each
        triangle's 2 x 2 tensor keeps its smallest eigenvalue at or above
        (p - 1) w, so the matrix stays SPD. None if the coefficients are not
        finite (wild iterate): c is finite only where w is, and a non-finite
        sigma makes the values so. An entry that overflows still gets the
        Newton step rejected."""
        G, _, k6, _, perm, _, _, _, rcm_tt = self._band_plan
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ge = g + eps2
            w = ge ** ((p - 2.0) / 2.0)
            q = np.add.reduce(G * gu[:, None], axis=0)  # (3, M): grad phi_i . grad u
            if sigma is None:
                c = (p - 2.0) * w / ge
                if not np.isfinite(c).all():
                    return None
                cq = c * self.areas * q
                values = w * k6 + cq.take(PAIR_I, axis=0) * q.take(PAIR_J, axis=0)
            else:
                # |sigma|^2 <= w^2 (g + eps2) without a mask: where sigma fits, the
                # quotient is at least 1 or NaN (0/0, inf/inf), which fmin drops
                factor = np.divide(w * w * ge, _squares(sigma))
                sigma *= np.sqrt(np.fmin(factor, 1.0, out=factor), out=factor)
                r = np.add.reduce(G * sigma[:, None], axis=0)
                ha = np.divide(self.areas, ge)
                ha *= 0.5 * (p - 2.0)
                values = (ha * r).take(PAIR_I, axis=0) * q.take(PAIR_J, axis=0)
                values += (ha * q).take(PAIR_I, axis=0) * r.take(PAIR_J, axis=0)
                values += w * k6
                if not np.isfinite(values).all():
                    return None
            grad = (w * self.areas) * q
        grad = np.bincount(rcm_tt.ravel(), weights=grad.ravel(), minlength=len(perm) + 1)
        return self._assemble(values), grad[:-1], w, ge  # the boundary's slot dropped

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


def _edge_vectors(nodes: np.ndarray, tt: np.ndarray) -> np.ndarray:
    """(2, 3, M) edge vectors of the triangles tt (3, M): edge k, opposite
    vertex k, runs from vertex k + 1 to vertex k + 2."""
    xy = nodes.T.take(tt, axis=1)  # (2, 3, M)
    return xy.take((2, 0, 1), axis=1) - xy.take((1, 2, 0), axis=1)  # C-ordered, so G is too


def _signed_areas(e: np.ndarray) -> np.ndarray:
    """(M,) triangle areas from their _edge_vectors, positive for
    counter-clockwise vertex order."""
    return 0.5 * (e[0, 1] * e[1, 2] - e[1, 1] * e[0, 2])


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
    """Boundary points, each edge split into ceil(length / h_target) parts."""
    v = poly.vertices
    d = np.concatenate([v[1:], v[:1]]) - v
    parts = np.array([max(1, math.ceil(math.hypot(x, y) / h_target)) for x, y in d.tolist()])
    edge = np.repeat(np.arange(len(v)), parts)
    frac = (np.arange(len(edge)) - np.repeat(np.cumsum(parts) - parts, parts)) / parts[edge]
    return v[edge] + frac[:, None] * d[edge]


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
    chain = _boundary_chain(poly, h_target)
    last_error = None
    for _ in range(4):
        pts = np.vstack([chain, _hex_lattice(poly, spacing)])
        if len(pts) > NODE_BUDGET:
            raise MeshResourceError(
                f"h_target={h_target:g} needs more than {NODE_BUDGET} mesh nodes"
            )
        tess = Delaunay(pts)
        if tess.coplanar.size:
            spacing *= 0.7919
            last_error = "Delaunay dropped coplanar points"
            continue
        tt = tess.simplices.T.astype(np.intp)
        areas = _signed_areas(_edge_vectors(pts, tt))
        flip = areas < 0.0
        tt[1:, flip] = tt[:0:-1, flip]
        areas = np.abs(areas)  # the flipped triangles' areas, bit for bit
        keep = areas > 1e-14 * area
        tt, areas = tt[:, keep], areas[keep]
        if abs(float(areas.sum()) - area) > 1e-9 * area:
            raise MeshResourceError("triangulation does not tile the polygon")
        boundary = np.zeros(len(pts), dtype=bool)
        boundary[: len(chain)] = True
        nodes = _smooth_interior(pts, tt, boundary, areas, area)
        mesh = Mesh(nodes, tt.T, boundary)
        if mesh.h_max <= 1.5 * h_target:
            return mesh
        spacing *= 0.75
        last_error = f"h_max {mesh.h_max:g} exceeds 1.5 x h_target"
    raise MeshResourceError(f"could not mesh polygon at h_target={h_target:g}: {last_error}")


def _smooth_interior(nodes, tt, boundary, areas, total_area):
    """One damped Lloyd-style pass: move interior nodes toward the
    area-weighted centroid of their incident triangles tt (3, M) of the given
    areas; revert wholly if any triangle degenerates. idx lists each
    triangle's vertices in turn, so every node sums in triangle order."""
    xy = nodes.T.take(tt, axis=1)  # (2, 3, M)
    a, b, c = xy[:, 0], xy[:, 1], xy[:, 2]
    idx = tt.T.ravel()
    n = len(nodes)
    wsum = np.bincount(idx, np.repeat(areas, 3), minlength=n)
    weighted = np.repeat(areas * ((a + b + c) / 3.0), 3, axis=1)  # (2, 3M)
    acc = [np.bincount(idx, w, minlength=n) for w in weighted]
    movable = (~boundary) & (wsum > 0.0)
    target = nodes.copy()
    target[movable] = np.stack(acc, axis=1)[movable] / wsum[movable, None]
    smoothed = nodes + 0.5 * (target - nodes)
    if np.any(_signed_areas(_edge_vectors(smoothed, tt)) <= 1e-14 * total_area):
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
    which become nodes n_nodes.. of the fine mesh (its parent_edges) in the
    order of the edges' intp keys lo * n_nodes + hi, lo < hi their ends: the
    pairs' lexicographic order. An edge whose key occurs once is boundary."""
    tt, n0 = mesh._tt, mesh.n_nodes
    nxt = tt[[1, 2, 0]]  # rows: the edges (0, 1), (1, 2), (2, 0)
    keys = (np.minimum(tt, nxt) * n0 + np.maximum(tt, nxt)).ravel()
    keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    if n0 + len(keys) > NODE_BUDGET:
        raise MeshResourceError(f"refinement exceeds the {NODE_BUDGET} node budget")
    lo, hi = np.divmod(keys, n0)
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])])
    # rows v0, v1, v2, m01, m12, m20 of the (6, M) vertex and midpoint ids
    ids = np.concatenate([tt, n0 + inverse.reshape(3, -1)])
    children = ids[_CHILDREN].reshape(3, -1)  # (3, 4M): the children's tt
    boundary = np.concatenate([mesh.boundary_mask, counts == 1])
    return Mesh(nodes, children.T, boundary, parent_edges=np.stack([lo, hi], axis=1))


# -- nonlinear solve --------------------------------------------------------


# Solves and family sweeps accept p in (1, P_MAX_SUPPORTED].
P_MAX_SUPPORTED = 32.0

# Relative regularization of every solve: eps = EPS_REL * max |grad u| of
# the ray-scaled start. A solve ends on a full (lam = 1) step that lowers the
# energy by less than TOL_NEWTON (relative).
EPS_REL = 1e-10
TOL_NEWTON = 1e-10
# Floor of the lagged weights relative to their maximum. Unfloored, a flat
# triangle at p = 32 weighs (EPS_REL^2)^15 ~ 1e-300 and the lagged point lands
# far out of the halvings' reach; the floor keeps it near |u| / 1e-10. For
# p < 2 the weights stay above EPS_REL^(2-p) >= 1e-10.
LOG_WEIGHT_FLOOR = math.log(1e-10)
# A power x^(p/2) that underflows takes libm's slow path (10-20x at p = 32), so
# bases are raised to POWER_FLOOR^(2/p); each adds at most area * POWER_FLOOR.
POWER_FLOOR = 1e-300
# Iteration budget of one solve.
MAX_ITERS = 500
# At or below this p, a refined level of a refinement study starts from the
# prolonged coarse solution (nested iteration); above it, from cold_start.
# Over four levels of ten model shapes (six random polygons, the square, the
# 64-gon, the 4:1 and 10:1 ellipses; best of 7, one BLAS thread), the
# prolonged start took 203 against 275 iterations at p = 1.5 (0.24 against
# 0.44 s), 176 against 178 at p = 3 (10% less time) and 217 against 199 at
# p = 5 (5% less time). cold_start took fewer iterations above p = 5:
# 226 against 271 at p = 8 (0.28 against 0.30 s, best of 3), 233 against
# 289 at p = 10 (3%) and 270 against 357 at p = 16 (20%); at p = 32 fewer
# iterations (459 against 514) but 39% more time. On the 52 broad-set
# shapes at levels 3 cold refined levels took 828 against 1037 iterations
# at p = 8 (2.5 against 3.9 s) and 782 against 952 at p = 6; p = 5 was
# faster cold too, but the corridor's p = 5 estimates keep their start.
NESTED_START_P_MAX = 5.0
# Below this p, Newton steps are primal-dual (Chan, Golub and Mulet, SIAM J.
# Sci. Comput. 20, 1999): each solve carries a per-triangle flux sigma from
# step to step (see solve_p_torsion). A step then costs about 19 us more at
# 864 triangles (the clip, a second cross term, the flux update), so the
# constant is set where iterations stop falling. Primal-dual against primal
# steps, levels-3 studies of random polygons, iterations (time): p = 1.05
# -49% (-41%), 1.2 -21% (+1%), 1.3 -9% (+16%), 1.4 -2% (+23%), 1.45 +6% (+36%)
# on 40 polygons of at most 470 nodes; -55% (-57%), -24% (-25%), -22% (-28%),
# -13% (-27%) and +4% (+4%) on 8 polygons at levels 5 (6.4k-7.1k nodes).
PRIMAL_DUAL_P_MAX = 1.45


@dataclass
class TorsionSolution:
    """Discrete p-torsion function and its integral on one mesh. iterations
    is newton_steps + lagged_steps, the steps tried; at p = 2 it is 1, the
    linear solve. energy_trace lists the regularized energy after each
    accepted step, in order (at p = 2, the one energy), and backtracks
    counts the line-search trials rejected. flux is the (2, M) primal-dual
    flux sigma of the last iterate, from which a solve at a nearby p may
    start; None for a primal solve (p >= PRIMAL_DUAL_P_MAX) and after a
    lagged step, where the flux is the primal one, w grad u."""

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
    flux: np.ndarray | None = None


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
    """(energy at eps2, s) of the ray minimizer s u of u, with squared
    gradients g and b.u = f: J(s u) = s^p E_p(u) / p - s f is least at
    s = (f / E_p(u))^(1/(p-1)), where b.(s u) = E_p(s u), log s clamped to
    [-700, 700] so that exp(log s) is finite. s = 1 if u is zero, f <= 0, g
    or f is not finite, or the energy of s u is not finite. Callers allow
    overflow, as for _energy."""
    g_top = float(np.maximum.reduce(g))
    if 0.0 < g_top < math.inf and 0.0 < f < math.inf:
        # g_top scaled out: the p/2 power cannot overflow
        log_e = 0.5 * p * math.log(g_top) + math.log(float(_power_sums(mesh, g / g_top, p)))
        s = math.exp(min(max((math.log(f) - log_e) / (p - 1.0), -700.0), 700.0))
        j_s = _energy(mesh, g * s * s, s * f, p, eps2)
        if math.isfinite(j_s):
            return j_s, s
    return _energy(mesh, g, f, p, eps2), 1.0


def _flux_step(sigma, gu, gd, w, ge, p, lam, s):
    """(2, M) flux after an accepted Newton step u <- s (u + lam d), from the
    flux sigma at u (None: the primal flux w gu). The full step solves the
    flux relation (g + eps2)^((2 - p)/2) sigma = grad u linearized at
    (u, sigma) in d, per triangle:
    full = w (gu + gd) - ((2 - p)/(g + eps2)) (gu . gd) sigma, with
    w = (g + eps2)^((p - 2)/2); the result is s^(p - 1) [(1 - lam) sigma +
    lam full], s^(p - 1) scaling the flux of u to that of s u. gu and gd are
    the gradients of u and d; w and ge = g + eps2 are energy_hessian's at u."""
    with np.errstate(over="ignore", invalid="ignore"):
        if sigma is None:
            sigma = w * gu
        # s^(p-1) [(1 - lam) sigma + lam full] = coef sigma + c2 w (gu + gd)
        c2 = s ** (p - 1.0) * lam
        coef = np.add.reduce(gu * gd, axis=0)
        coef *= (2.0 - p) * c2
        coef /= ge
        np.subtract(s ** (p - 1.0) - c2, coef, out=coef)
        w *= c2
        out = coef * sigma
        out += w * (gu + gd)
        return out


def solve_p_torsion(mesh: Mesh, p: float, start: np.ndarray, flux=None) -> TorsionSolution:
    """Minimize the discrete p-torsion energy, regularized by one eps, by
    Newton steps with lagged diffusivity as fallback.

    It starts from `start` (nodal values; boundary values are taken as 0),
    such as cold_start or a coarser solution prolonged. The start, every
    line-search trial and the end move to their ray minimizers by
    _ray_priced (the start and the end without regularization), so T_p = b.u
    is the end's p-energy, a lower bound of the discrete optimum. At p = 2
    the solve is one linear solve and `start` is not used.
    eps = EPS_REL * max |grad u| of the ray-scaled start, once for the whole
    solve. Each step tries the Newton direction of the regularized energy
    first and the lagged (Kacanov) step only where Newton is rejected. For
    p < PRIMAL_DUAL_P_MAX the Newton steps are primal-dual: the solve carries
    a per-triangle flux sigma for Mesh.energy_hessian, the primal flux
    w grad u after a lagged step and at the start unless `flux` is given,
    moved by _flux_step after each accepted Newton step; the right-hand
    side stays the energy's gradient, so each direction still descends the
    same energy. `flux`, such as the previous p's TorsionSolution.flux on
    the same mesh, is copied (energy_hessian clips the flux in place) and
    is not read at p >= PRIMAL_DUAL_P_MAX: the exact flux satisfies
    -div sigma = 1 at every p, so it starts near the new one. Either step
    goes through one halving line search, against the ray minimizer of each
    trial point, and must lower the energy. A search starts at lam = 1 after
    a search that accepted its first trial, and at min(1, 2 lam) after one
    that backtracked to lam (a search that accepts nothing leaves this start
    as it was). The solve converges on a full step that lowers the energy by
    less than TOL_NEWTON, or when both kinds of step are rejected (the
    floating-point floor). A converged u with nodes below 0 offers max(u, 0)
    as one more candidate, priced like the end, and takes it unless it
    raises the energy. Cold solves at p = 1.01 need it on the 10:1, 100:1
    and 1000:1 ellipse 128-gons: on the base meshes of the first two they
    stop at min u = -3.5e-5 and -5.4e-2 times max u, beyond _checked's
    -1e-10 bound. A solve that has not converged after MAX_ITERS
    iterations raises ConvergenceError carrying its last iterate.
    """
    _check_p(p)
    load = mesh.load_vector
    rcm_nodes = mesh._band_plan[7]
    b_rcm = load[rcm_nodes]  # linear systems are solved in RCM order

    def nodal(x: np.ndarray) -> np.ndarray:
        out = np.zeros(mesh.n_nodes)
        out[rcm_nodes] = x
        return out

    def linear_solve(weights: np.ndarray) -> np.ndarray:
        try:
            return nodal(spsolve(mesh.stiffness(weights), b_rcm))
        except LinAlgError as exc:
            raise ConvergenceError(f"p-torsion solve (p={p}): {exc}") from exc

    if p == 2.0:
        u = linear_solve(np.ones(mesh.n_triangles))
        t_p = float(load @ u)
        e2 = _energy(mesh, mesh.gradient_squares(u), t_p, p, 0.0)
        return _checked(TorsionSolution(mesh, p, u, t_p, e2, 1, True, [e2]))

    u = np.array(start, dtype=float)
    u[mesh.boundary_mask] = 0.0
    iterations = trials = 0

    def search(u, gu, f_u, d, lam, j_cur, eps2):
        """Halve lam until the ray minimizer s (u + lam d) does not raise the
        energy at eps2; trials are priced from the gradients of u and d and
        from f_u = b.u. The accepted (point, lam, ray scale s, gradient of
        d), or None after 40 halvings or when it does not lower the energy
        (passed by rounding alone)."""
        nonlocal trials
        f_d = float(load @ d)
        with np.errstate(over="ignore"):
            gd = mesh.gradient_field(d)
            for _ in range(40):
                trials += 1
                # at lam = 1 the products by lam are exact, so they are skipped
                gc, f_c = (gu + gd, f_u + f_d) if lam == 1.0 else (gu + lam * gd, f_u + lam * f_d)
                j_c, s = _ray_priced(mesh, _squares(gc), f_c, p, eps2)
                if j_c <= j_cur + 1e-12 * abs(j_cur):
                    break
                lam *= 0.5
            else:
                return None
        return None if j_c >= j_cur else ((u + lam * d) * s, lam, s, gd)

    def lagged_point(g, eps2):
        # weights (|grad u|^2 + eps^2)^((p-2)/2), scaled to max 1 in log space
        w_log = (0.5 * (p - 2.0)) * np.log(g + eps2)
        return linear_solve(np.exp(np.maximum(w_log - w_log.max(), LOG_WEIGHT_FLOOR)))

    def newton_direction(gu, g, eps2, sigma):
        # (Newton direction of the regularized energy, w, g + eps2), or None if the
        # Hessian is not finite or not positive definite, or the direction is not finite
        system = mesh.energy_hessian(gu, g, p, eps2, sigma)
        if system is None:
            return None
        try:
            x = spsolve(system[0], b_rcm - system[1])
        except LinAlgError:
            return None
        return (nodal(x), *system[2:]) if np.isfinite(x).all() else None

    # gu and g, the gradients of u and their squares, are recomputed from
    # each accepted point: updated along with u, they would drift
    gu = mesh.gradient_field(u)
    with np.errstate(over="ignore"):
        s = _ray_priced(mesh, _squares(gu), float(load @ u), p, 0.0)[1]
        u, gu = u * s, gu * s
        g = _squares(gu)
        eps2 = (EPS_REL * EPS_REL) * (float(g.max()) or 1.0)
        f = float(load @ u)
        j_cur = _energy(mesh, g, f, p, eps2)
    trace: list = []
    converged = False
    lam0 = 1.0  # first trial of the next search
    primal_dual = p < PRIMAL_DUAL_P_MAX
    # the primal-dual flux, a private copy; None: the primal flux w grad u
    sigma = np.array(flux, dtype=float) if primal_dual and flux is not None else None
    newton_steps = lagged_steps = 0
    while iterations < MAX_ITERS:
        accepted = None
        step = newton_direction(gu, g, eps2, sigma)
        if step is not None:
            iterations += 1
            newton_steps += 1
            accepted = search(u, gu, f, step[0], lam0, j_cur, eps2)
        newton = accepted is not None
        if not newton:
            if iterations >= MAX_ITERS:
                break
            iterations += 1
            lagged_steps += 1
            d = lagged_point(g, eps2) - u
            accepted = search(u, gu, f, d, lam0, j_cur, eps2)
        if accepted is None:
            converged = True  # stationary to float precision
            break
        u, lam, s, gd = accepted
        lam0 = 1.0 if lam == lam0 else min(1.0, 2.0 * lam)
        if newton and primal_dual:
            sigma = _flux_step(sigma, gu, gd, step[1], step[2], p, lam, s)
        else:
            sigma = None  # a lagged step resets the flux to the primal one
        f = float(load @ u)
        with np.errstate(over="ignore"):
            gu = mesh.gradient_field(u)
            g = _squares(gu)
            j_prev, j_cur = j_cur, _energy(mesh, g, f, p, eps2)
        trace.append(j_cur)
        if lam == 1.0 and (j_prev - j_cur) / max(abs(j_cur), 1e-300) < TOL_NEWTON:
            converged = True
            break
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
        backtracks, sigma,
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
    """Richardson-extrapolated torsion integral over uniform refinements;
    solutions holds each level's solution, coarsest first."""

    t_p: float
    error_estimate: float
    values: list
    observed_order: float
    iterations: int
    solutions: list

    @property
    def solution(self) -> TorsionSolution:
        """The finest level's solution."""
        return self.solutions[-1]

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
    previous: RigidityEstimate | None = None,
) -> RigidityEstimate:
    """Solve on `levels` uniformly refined meshes and extrapolate T_p.

    Continuation in p: `previous` is the estimate of the p_prev before p on
    the same polygon. If it has as many levels and p < p_prev <= 2 or
    8 <= p_prev < p, each level starts from its solution on the same mesh,
    and below PRIMAL_DUAL_P_MAX from its flux too (TorsionSolution.flux).
    Otherwise, for p <= NESTED_START_P_MAX (5) a refined level starts from the
    coarser level's solution, interpolated at edge midpoints (nested
    iteration), and every other level from cold_start. Every start is solved
    at the one regularization EPS_REL. A p outside (1, P_MAX_SUPPORTED] raises
    ValueError before any mesh or start is built. On nested meshes T_p
    grows with the level, and equal T_p on the two finest levels, which
    would give a zero error estimate, raise ConvergenceError.
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
    near = []
    if previous is not None and len(previous.solutions) == levels:
        p_prev = previous.solution.p
        if p < p_prev <= 2.0 or 8.0 <= p_prev < p:
            near = previous.solutions
    solutions: list[TorsionSolution] = []
    for k, mesh in enumerate(_nested_meshes(poly, h0, levels)):
        flux = None
        if near and near[k].mesh is mesh:
            start, flux = near[k].u, near[k].flux
        elif solutions and p <= NESTED_START_P_MAX:
            start = mesh.prolong(solutions[-1].u)
        else:
            start = cold_start(poly, mesh, p)
        solutions.append(solve_p_torsion(mesh, p, start=start, flux=flux))
    values = [s.t_p for s in solutions]
    d_last = values[-1] - values[-2]
    if d_last == 0.0:
        # on nested meshes T_p grows with the level: a level made no progress
        raise ConvergenceError(
            f"refinement study (p={p}): T_p did not change from level {levels - 2} "
            f"to level {levels - 1} ({values[-1]:g}), so it has no error estimate",
            solution=solutions[-1],
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
        iterations=sum(s.iterations for s in solutions),
        solutions=solutions,
    )
