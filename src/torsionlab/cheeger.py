"""Cheeger constant of convex polygons and the small-p rigidity trend.

For a planar convex body the Cheeger problem is solved by an inner
parallel set rounded by a disk (Kawohl & Lachand-Robert, Pacific J. Math.
225, 2006): h = 1/r* where r* is the unique root of
area(erode(poly, r)) = pi r^2, found in closed form on one piece of the
polygon's erosion schedule. The module also tracks how the normalized
rigidity approaches h as p decreases toward 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDomainError
from .geometry import ConvexPolygon, erode
from .ptorsion import rigidity_with_refinement
from .functionals import normalized_rigidity


@dataclass(frozen=True)
class CheegerResult:
    h: float
    r_star: float
    cheeger_core: ConvexPolygon
    residual: float


def cheeger_constant(poly: ConvexPolygon) -> CheegerResult:
    """Cheeger constant from the root r* of area(erode(r)) - pi r^2.

    The function is strictly decreasing from area > 0 at r = 0 to a
    negative value at r = inradius, so the root exists and is unique. On
    the erosion-schedule piece where it changes sign it is the quadratic
    c - b s + a s^2 in s = r - start, with c > 0 and b > 0, whose root in
    the piece is s = 2c / (b + sqrt(b^2 - 4ac)).
    """
    piece = next(pc for pc in poly.erosion_schedule if pc.area_at(pc.end) <= math.pi * pc.end**2)
    t0 = piece.start
    a = piece.curvature - math.pi
    b = piece.perimeter + 2.0 * math.pi * t0
    c = piece.area - math.pi * t0 * t0
    r_star = t0 + 2.0 * c / (b + math.sqrt(max(b * b - 4.0 * a * c, 0.0)))
    core = erode(poly, r_star)
    if core is None:
        raise InvalidDomainError("cheeger core collapsed; polygon is degenerate")
    residual = abs(core.area - math.pi * r_star * r_star)
    return CheegerResult(h=1.0 / r_star, r_star=r_star, cheeger_core=core, residual=residual)


@dataclass
class SmallPRow:
    p: float
    T_norm: float
    deviation_from_h: float  # |T_norm - h|


@dataclass
class SmallPTrend:
    """Normalized rigidity against the Cheeger constant for p near 1.

    The field names, in order, are the keys of the JSON report.
    """

    rows: list  # of SmallPRow
    cheeger_h: float
    q1: float  # inradius x h


def p_to_one_trend(
    poly: ConvexPolygon,
    p_list,
    levels: int = 3,
    h0: float | None = None,
) -> SmallPTrend:
    """Tabulate T(p; .) for a decreasing list of exponents near 1.

    p >= 1.05 is the trend's floor (the solver takes p > 1); the deviation
    column is the distance to the Cheeger constant, the p -> 1 limit of
    T(p; .). It compares T(p) (units length^-p) with h (length^-1), so for
    p > 1 its value depends on the size of the shape, not only its form.
    """
    ps = [float(p) for p in p_list]
    if min(ps) < 1.05:
        raise ValueError("small-p trend supports p >= 1.05")
    if any(b >= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p_list must be strictly decreasing")
    h = cheeger_constant(poly).h
    rows = []
    est = None
    for p in ps:
        est = rigidity_with_refinement(poly, p, levels=levels, h0=h0, previous=est)
        t_norm = normalized_rigidity(est.t_p, poly.area, p)
        rows.append(SmallPRow(p, t_norm, abs(t_norm - h)))
    return SmallPTrend(rows=rows, cheeger_h=h, q1=poly.inradius * h)
