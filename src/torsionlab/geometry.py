"""Computational geometry for strictly convex planar polygons.

Provides the polygon type with its measures (area, perimeter, diameter),
the distance-to-boundary function, the exact erosion schedule of the inner
parallel bodies with the inradius and incenter where it ends and the average
distance to the boundary it integrates, and deterministic random polygon
samplers.

All computations run in coordinates translated to the vertex centroid so
that thin or far-offset domains (aspect ratios up to ~1e4) remain well
conditioned.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .errors import InvalidDomainError, SamplingError

# Relative tolerances from the construction contract: consecutive vertices
# must be separated by more than SEPARATION_RTOL * diameter and every
# consecutive cross product must exceed CONVEXITY_RTOL * diameter^2.
SEPARATION_RTOL = 1e-12
CONVEXITY_RTOL = 1e-12

# An edge of an eroded body counts as vanished once its length is at most
# EROSION_RTOL * diameter.
EROSION_RTOL = 1e-14

# Bounds input size: the diameter's pdist holds n (n - 1) / 2 distances, 16 MiB
# here and 1.6 GB at 20,000 vertices; the erosion's passes are quadratic in time
# (512 passes, 19 ms, on the 2048-vertex ellipse). Twice the tests' 1000-gon.
MAX_VERTICES = 2048


def _as_vertex_array(vertices) -> np.ndarray:
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise InvalidDomainError("vertices must be an (n, 2) array of planar points")
    if len(v) > MAX_VERTICES:
        raise InvalidDomainError(f"a polygon has at most MAX_VERTICES = {MAX_VERTICES} vertices")
    if not np.all(np.isfinite(v)):
        raise InvalidDomainError("vertices must be finite numbers")
    return v


@dataclass(frozen=True)
class ErosionPiece:
    """Offsets [start, end] over which the eroded body keeps its `edges`.

    There area(erode(poly, t)) = area - perimeter s + curvature s^2 with
    s = t - start, curvature being the sum of tan(a/2) over the turn angles
    a at the body's vertices.
    """

    start: float
    end: float
    area: float
    perimeter: float
    curvature: float
    edges: np.ndarray

    def area_at(self, t: float) -> float:
        s = t - self.start
        return self.area - s * (self.perimeter - s * self.curvature)


class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertices.

    Instances are immutable: the vertex array is read-only and all derived
    quantities are cached. Every polygon but `erode`'s bodies is checked once,
    when it is built: vertex count, separation, strict convexity and a winding
    number of one. Near-degenerate inputs are rejected, not repaired.
    """

    def __init__(self, vertices):
        v = _as_vertex_array(vertices)
        n = len(v)
        if n < 3:
            raise InvalidDomainError(f"a polygon needs at least 3 vertices, got {n}")
        v.setflags(write=False)
        self.vertices = v
        diam = self.diameter
        if not diam < math.inf:  # pdist's squared distances overflowed
            raise InvalidDomainError("the vertex coordinates are too large: the diameter overflows")
        if diam <= 0.0:
            raise InvalidDomainError("all vertices coincide")
        e = np.roll(v, -1, axis=0) - v
        seplen = np.hypot(e[:, 0], e[:, 1])
        short = np.flatnonzero(seplen <= SEPARATION_RTOL * diam)
        if short.size:
            i = int(short[0])
            raise InvalidDomainError(
                f"vertices {i} and {(i + 1) % n} coincide (separation "
                f"{seplen[i]:.3e} <= {SEPARATION_RTOL:g} x diameter)"
            )
        e_next = np.roll(e, -1, axis=0)
        cross = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
        bad = np.flatnonzero(cross <= CONVEXITY_RTOL * diam * diam)
        if bad.size:
            i = int(bad[0])
            j, k = (i + 1) % n, (i + 2) % n
            pts = ", ".join(f"({float(v[m][0]):g}, {float(v[m][1]):g})" for m in (i, j, k))
            raise InvalidDomainError(
                f"vertex triple ({i}, {j}, {k}) violates strict convexity / "
                f"counter-clockwise order: cross product {cross[i]:.6e} at points {pts}"
            )
        # all turns are left turns, so they sum to 2 pi times the winding number
        turning = float(np.sum(np.arctan2(cross, np.einsum("ij,ij->i", e, e_next))))
        if turning > 3.0 * math.pi:
            winds = round(turning / (2.0 * math.pi))
            raise InvalidDomainError(f"the vertices wind {winds} times, not once")

    @classmethod
    def _unchecked(cls, vertices: np.ndarray) -> ConvexPolygon:
        """Polygon of the vertices as they are, built without the checks."""
        poly = object.__new__(cls)
        vertices.setflags(write=False)
        poly.vertices = vertices
        return poly

    def __repr__(self):
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.area:.6g})"

    # -- basic measures ----------------------------------------------------

    @cached_property
    def _center(self) -> np.ndarray:
        """Vertex centroid used as the local origin for conditioning."""
        return self.vertices.mean(axis=0)

    @cached_property
    def _centered(self) -> np.ndarray:
        return self.vertices - self._center

    @cached_property
    def area(self) -> float:
        w = self._centered
        x, y = w[:, 0], w[:, 1]
        x1, y1 = np.roll(x, -1), np.roll(y, -1)
        return float(0.5 * np.sum(x * y1 - x1 * y))

    @cached_property
    def perimeter(self) -> float:
        e = np.roll(self._centered, -1, axis=0) - self._centered
        return float(np.sum(np.hypot(e[:, 0], e[:, 1])))

    @cached_property
    def diameter(self) -> float:
        return float(pdist(self._centered).max())

    # -- edge half-planes --------------------------------------------------

    @cached_property
    def _edge_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals N and offsets c with interior = {N.x < c}.

        Both are expressed in centered coordinates.
        """
        w = self._centered
        e = np.roll(w, -1, axis=0) - w
        length = np.hypot(e[:, 0], e[:, 1])
        normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / length[:, None]
        offsets = np.einsum("ij,ij->i", normals, w)
        return normals, offsets

    def boundary_distances(self, points) -> np.ndarray:
        """Distance to the boundary for an array of points, 0 outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self._center
        normals, offsets = self._edge_lines
        d = np.min(offsets[None, :] - pts @ normals.T, axis=1)
        return np.maximum(d, 0.0)

    # -- inner parallel bodies ---------------------------------------------

    @cached_property
    def _erosion(self) -> tuple[tuple[ErosionPiece, ...], np.ndarray]:
        w = self._centered
        normals, offsets = self._edge_lines
        lengths = np.hypot(*(np.roll(w, -1, axis=0) - w).T)
        edges = np.arange(len(lengths))
        tol = EROSION_RTOL * self.diameter
        start, area = 0.0, self.area
        pieces = []
        while True:
            na = normals[edges]
            nb = np.roll(na, -1, axis=0)
            # tan of half the turn angle a at the vertex that ends each edge.
            # Past a = pi/2 sin a / (1 + cos a) cancels, and so does any form
            # through a itself at needle-sharp vertices; (1 - cos a) / sin a
            # keeps the digits. Only the chosen form is divided: near a = pi,
            # 1 + cos a can be 0 while sin a is not.
            sin = na[:, 0] * nb[:, 1] - na[:, 1] * nb[:, 0]
            cos = np.einsum("ij,ij->i", na, nb)
            acute = cos >= 0.0
            tan_half = np.where(acute, sin, 1.0 - cos) / np.where(acute, 1.0 + cos, sin)
            rates = tan_half + np.roll(tan_half, 1)
            life = lengths / rates
            step = float(np.min(life))
            left = lengths - rates * step
            alive = left > tol
            alive[np.argmin(life)] = False  # so every pass removes an edge
            end = start + step
            perimeter, curvature = float(np.sum(lengths)), float(np.sum(tan_half))
            # rounding can keep an edge that vanishes as the body shrinks to a
            # segment; kept neighbours whose normals are opposite to within the
            # convexity tolerance meet nowhere, so the body ends here
            kept = na[alive]
            opposite = np.hypot(*(kept + np.roll(kept, -1, axis=0)).T) <= CONVEXITY_RTOL
            if np.count_nonzero(alive) < 3 or opposite.any():
                break
            piece = ErosionPiece(start, end, area, perimeter, curvature, edges)
            pieces.append(piece)
            start, area = end, piece.area_at(end)
            edges, lengths = edges[alive], left[alive]
        # the body shrinks to a point or a segment at the last event; its
        # corners meet there, and their mean is a centre of the largest disk
        center = np.mean(_line_crossings(na, offsets[edges] - end), axis=0)
        r_in = float(np.min(offsets - normals @ center))
        pieces.append(ErosionPiece(start, r_in, area, perimeter, curvature, edges))
        return tuple(pieces), center + self._center

    @property
    def erosion_schedule(self) -> tuple[ErosionPiece, ...]:
        """Exact area of the body eroded by t, for t in [0, inradius].

        Every edge line moves inward at unit speed, so an edge shrinks at a
        constant rate until it vanishes. The offsets where edges vanish are
        the straight-skeleton events of the polygon (Aichholzer et al.,
        J.UCS 1995); they cut [0, inradius] into pieces on which the area
        is quadratic. Edges that vanish at the same event leave together.
        The last event, where fewer than three edges are left (or two left
        neighbours face opposite ways), is where the body vanishes: the last
        piece ends at the distance from the point it shrinks to, the
        incenter, to the nearest edge line.
        """
        return self._erosion[0]

    @property
    def inradius(self) -> float:
        return self._erosion[0][-1].end

    @property
    def incenter(self) -> np.ndarray:
        return self._erosion[1]


def _line_crossings(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Points where each line N.x = c meets the next, in centered coordinates."""
    nb, cb = np.roll(normals, -1, axis=0), np.roll(offsets, -1)
    det = normals[:, 0] * nb[:, 1] - normals[:, 1] * nb[:, 0]
    x = (offsets * nb[:, 1] - cb * normals[:, 1]) / det
    y = (normals[:, 0] * cb - nb[:, 0] * offsets) / det
    return np.stack([x, y], axis=1)


# -- constructors -----------------------------------------------------------


def make_rectangle(L: float, R: float) -> ConvexPolygon:
    """Rectangle (0, L) x (0, 2R) with half-width R (inradius for L >= 2R)."""
    if L <= 0 or R <= 0:
        raise InvalidDomainError("rectangle needs L > 0 and R > 0")
    return ConvexPolygon([(0.0, 0.0), (L, 0.0), (L, 2.0 * R), (0.0, 2.0 * R)])


def make_regular_ngon(n: int, circumradius: float = 1.0) -> ConvexPolygon:
    if n < 3:
        raise InvalidDomainError("regular polygon needs n >= 3")
    if n > MAX_VERTICES:
        raise InvalidDomainError(f"regular polygon needs n <= MAX_VERTICES = {MAX_VERTICES}")
    if circumradius <= 0:
        raise InvalidDomainError("circumradius must be positive")
    theta = 2.0 * np.pi * np.arange(n) / n
    verts = circumradius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return ConvexPolygon(verts)


def make_ellipse_polygon(a: float, b: float, n: int) -> ConvexPolygon:
    """Inscribed polygon with n vertices at uniform parameter angles."""
    if a <= 0 or b <= 0:
        raise InvalidDomainError("ellipse semi-axes must be positive")
    if n < 3:
        raise InvalidDomainError("ellipse polygon needs n >= 3")
    if n > MAX_VERTICES:
        raise InvalidDomainError(f"ellipse polygon needs n <= MAX_VERTICES = {MAX_VERTICES}")
    theta = 2.0 * np.pi * np.arange(n) / n
    verts = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    return ConvexPolygon(verts)


def make_triangle(p0, p1, p2) -> ConvexPolygon:
    """Triangle from three points, reordered counter-clockwise if needed."""
    v = _as_vertex_array([p0, p1, p2])
    e0, e1 = v[1] - v[0], v[2] - v[1]
    if e0[0] * e1[1] - e0[1] * e1[0] < 0.0:
        v = v[::-1]
    return ConvexPolygon(v)


def _count(x) -> int:
    """A spec's count: an int, or a float equal to one (JSON 2e9). Any other
    value is refused, where int() would read n 6.9 as a hexagon or "6" as 6;
    an infinite count overflows."""
    if isinstance(x, float):
        n = int(x)
        if n == x:
            return n
    return operator.index(x)


def _length(x) -> float:
    """A spec's length: a JSON number, not true, false or a string, which
    float() would read as 1.0, 0.0 or the number it spells."""
    if isinstance(x, (bool, str)):
        raise TypeError(f"a length must be a number, got {json.dumps(x)}")
    return float(x)


# Each shape-spec kind and how it builds its polygon from the spec's fields.
SHAPE_KINDS = {
    "polygon": lambda p: ConvexPolygon(p["vertices"]),
    "rectangle": lambda p: make_rectangle(_length(p["L"]), _length(p["R"])),
    "regular_ngon": lambda p: make_regular_ngon(
        _count(p["n"]), _length(p.get("circumradius", 1.0))
    ),
    "ellipse_polygon": lambda p: make_ellipse_polygon(
        _length(p["a"]), _length(p["b"]), _count(p["n"])
    ),
    "triangle": lambda p: make_triangle(p["points"][0], p["points"][1], p["points"][2]),
    "random": lambda p: random_convex_polygon(
        p["seed"], _count(p.get("n", 24)), p.get("mode", "hull-of-uniform")
    ),
}


def shape_from_json(obj) -> ConvexPolygon:
    """Polygon of a shape spec: a JSON object, or its text, with a "kind" field."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidDomainError('shape spec must be an object with a "kind" field')
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in SHAPE_KINDS:
        raise InvalidDomainError(
            f"unknown shape kind {kind!r}; expected one of {tuple(SHAPE_KINDS)}"
        )
    try:
        return SHAPE_KINDS[kind](obj)
    except InvalidDomainError:
        raise
    except KeyError as exc:
        raise InvalidDomainError(f"shape kind {kind!r} is missing parameter {exc}") from None
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDomainError(f"malformed {kind!r} shape spec: {exc}") from None


# -- transforms -------------------------------------------------------------


def scale(poly: ConvexPolygon, t: float) -> ConvexPolygon:
    """Dilation t * poly about the origin."""
    if not t > 0.0:
        raise InvalidDomainError("scale factor must be positive")
    return ConvexPolygon(poly.vertices * t)


# -- inward erosion ---------------------------------------------------------


def erode(poly: ConvexPolygon, t: float):
    """Inner parallel body: intersection of edge half-planes offset by t.

    Returns a ConvexPolygon, or None (empty) when t >= inradius. Its
    vertices are the crossings of consecutive edge lines that the erosion
    schedule keeps at t. An edge about to vanish can come out with a
    negative length through rounding, so edges no longer than the
    tolerance are dropped. The result can contain edges shorter than the
    construction tolerance, so it is the one polygon built unchecked.
    """
    if t < 0.0:
        raise InvalidDomainError("erosion offset must be nonnegative")
    if t == 0.0:
        return poly
    if t >= poly.inradius:
        return None
    normals, offsets = poly._edge_lines
    edges = next(pc for pc in poly.erosion_schedule if t < pc.end).edges
    while edges.size >= 3:
        na = normals[edges]
        corners = _line_crossings(na, offsets[edges] - t)
        # edge k runs from corner k-1 to corner k along (-n_y, n_x)
        d = corners - np.roll(corners, 1, axis=0)
        lengths = d[:, 0] * -na[:, 1] + d[:, 1] * na[:, 0]
        short = lengths <= EROSION_RTOL * poly.diameter
        if not short.any():
            return ConvexPolygon._unchecked(corners + poly._center)
        edges = edges[~short]
    return None


def average_distance(poly: ConvexPolygon) -> float:
    """Mean distance to the boundary over the polygon.

    Uses the layer-cake identity: the integral of the distance function is
    the integral over t in [0, inradius] of area(erode(poly, t)). On each
    piece [a, b] of the erosion schedule that area is a quadratic q, whose
    integral is exactly (b - a) (q(a) + 4 q((a + b) / 2) + q(b)) / 6. This
    form adds nonnegative areas where the expanded A s - P s^2/2 + C s^3/3
    cancels, and the body vanishes at the inradius, so the last q(b) is 0.
    """
    schedule = poly.erosion_schedule
    end_areas = [pc.area for pc in schedule[1:]] + [0.0]
    total = 0.0
    for pc, end_area in zip(schedule, end_areas):
        mid_area = pc.area_at(0.5 * (pc.start + pc.end))
        total += (pc.end - pc.start) / 6.0 * (pc.area + 4.0 * mid_area + end_area)
    return total / poly.area


# -- random samplers --------------------------------------------------------

MAX_SAMPLER_ATTEMPTS = 100


def random_convex_polygon(seed, n: int = 24, mode: str = "hull-of-uniform") -> ConvexPolygon:
    """Deterministic random convex polygon in the unit disk.

    hull-of-uniform: convex hull of n uniform points in the unit disk
    (vertex count <= n). perturbed-ngon: convex hull of a regular n-gon
    whose radii are jittered by up to 30%.
    """
    if n < 3:
        raise InvalidDomainError("sampler needs n >= 3")
    if mode not in ("hull-of-uniform", "perturbed-ngon"):
        raise InvalidDomainError(f"unknown sampler mode {mode!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        if mode == "hull-of-uniform":
            radius = np.sqrt(rng.uniform(size=n))
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        else:
            radius = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=n)
            theta = 2.0 * np.pi * np.arange(n) / n
        pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        try:
            hull = ConvexHull(pts)
            return ConvexPolygon(pts[hull.vertices])
        except (InvalidDomainError, QhullError):
            continue
    raise SamplingError(
        f"no valid convex polygon after {MAX_SAMPLER_ATTEMPTS} attempts "
        f"(seed={seed}, n={n}, mode={mode})"
    )
