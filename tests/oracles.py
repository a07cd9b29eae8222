"""Independent oracles used to cross-check solver output.

Nothing in this module imports torsionlab, so comparisons against these
values are not circular.  The frozen constants below were produced by
running the generator functions in this file at the stated settings and
are kept literal so the tests do not depend on runtime regeneration.
"""

import math

import numpy as np

# Truncated double Fourier series for the unit-square torsion integral,
# sum over odd m, n of 64 / (pi^6 m^2 n^2 (m^2 + n^2)).
# square_torsion_series(399) reproduces this to the last digit.
SQUARE_T2_SERIES_M399 = 0.03514425331162486

# Tail-extrapolated limit of the same series (Richardson in 1/M).
SQUARE_T2 = 0.035144253738683864

# Quantities derived from SQUARE_T2 by exact algebra. For the unit square
# at p = 2: normalized rigidity |O|^(p-1) T_p^(1-p) = 1 / T_2, and
# Q_2 = R * (T_norm / 3)^(1/2) with R = 1/2.
SQUARE_T_NORM_2 = 1.0 / SQUARE_T2
SQUARE_Q2 = 0.5 * math.sqrt(SQUARE_T_NORM_2 / 3.0)

# Cheeger constants from the inner-parallel-body equation. For a convex
# polygon whose incircle touches every edge, the inner body at offset t
# is similar, so area(t) = A (1 - t/r)^2 and pi t^2 = area(t) solves in
# closed form: h = (1 + sqrt(pi r^2 / A)) / r.
SQUARE_H = 2.0 + math.sqrt(math.pi)  # unit square, r = 1/2, A = 1
EQUILATERAL_H_R1 = 1.7775601507781071  # inradius-1 equilateral, A = 3 sqrt(3)


def square_torsion_series(m_max: int = 399) -> float:
    """Unit-square torsion integral by double Fourier series (odd modes)."""
    m = np.arange(1, m_max + 1, 2, dtype=float)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    terms = 64.0 / (math.pi**6 * mm**2 * nn**2 * (mm**2 + nn**2))
    return float(terms.sum())


def tangential_cheeger(inradius: float, area: float) -> float:
    """Cheeger constant of a convex polygon tangent to its incircle."""
    r = inradius
    return (1.0 + math.sqrt(math.pi * r * r / area)) / r


def rectangle_average_distance(length: float, inradius: float) -> float:
    """Mean boundary distance of a length x 2*inradius rectangle.

    Layer cake: integral of distance = integral over t of the inner
    rectangle area (L - 2t)(2R - 2t), which evaluates to R^2 (3L - 2R)/3.
    """
    big, r = length, inradius
    return r * (3.0 * big - 2.0 * r) / (6.0 * big)


def tangential_average_distance(inradius: float) -> float:
    """Mean boundary distance of any incircle-tangent convex polygon.

    The inner parallel bodies are similar, so the layer cake gives
    A r / 3 over A.
    """
    return inradius / 3.0


def ball_torsion_quadrature(p: float, radius: float = 1.0, n: int = 200001) -> float:
    """Torsion integral of the disk by radial quadrature of the profile.

    The radial solution is u(r) = ((p-1)/p) 2^(-1/(p-1)) (R^p' - r^p')
    with p' = p/(p-1); the integral is done numerically rather than in
    closed form so it checks the analytic antiderivative independently.
    """
    pc = p / (p - 1.0)
    c = (p - 1.0) / p * 0.5 ** (1.0 / (p - 1.0))
    r = np.linspace(0.0, radius, n)
    u = c * (radius**pc - r**pc)
    return float(np.trapezoid(u * 2.0 * math.pi * r, r))


def ball_rigidity(p: float, radius: float, area: float | None = None) -> float:
    """area^(p-1) T_p(B)^(1-p) for the disk B of `radius`.

    With `area` left out it is the disk's own normalized rigidity.
    """
    if area is None:
        area = math.pi * radius * radius
    return (area / ball_torsion_quadrature(p, radius)) ** (p - 1.0)


def regular_ngon_rigidity_bracket(
    p: float, n: int, circumradius: float = 1.0
) -> tuple[float, float]:
    """Two-sided bound on T(p) of the regular n-gon by domain monotonicity.

    T_p grows with the domain and the n-gon lies between its incircle
    (radius R cos(pi/n)) and its circumcircle (radius R). The factor
    T_p^(1-p) reverses the order, so with the n-gon's own area
    |P| = (n/2) R^2 sin(2 pi/n) the circumcircle gives the lower end.
    """
    area = 0.5 * n * circumradius**2 * math.sin(2.0 * math.pi / n)
    inner = circumradius * math.cos(math.pi / n)
    return ball_rigidity(p, circumradius, area), ball_rigidity(p, inner, area)


def _edge_distances(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to the polygon boundary (segments)."""
    best = np.full(len(points), np.inf)
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        ab = b - a
        t = np.clip(((points - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])
        np.minimum(best, d, out=best)
    return best


def _inside(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Half-plane test for a counterclockwise convex polygon."""
    ok = np.ones(len(points), dtype=bool)
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        cross = (b[0] - a[0]) * (points[:, 1] - a[1]) - (b[1] - a[1]) * (
            points[:, 0] - a[0]
        )
        ok &= cross >= 0.0
    return ok


def grid_inradius(vertices: np.ndarray, n: int = 400, zoom_levels: int = 3) -> float:
    """Inradius by grid search with successive zoom around the best cell."""
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    best_val, best_pt = 0.0, 0.5 * (lo + hi)
    for _ in range(zoom_levels):
        gx = np.linspace(lo[0], hi[0], n)
        gy = np.linspace(lo[1], hi[1], n)
        pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
        inside = _inside(pts, vertices)
        if inside.any():
            d = np.where(inside, _edge_distances(pts, vertices), -1.0)
            k = int(np.argmax(d))
            if d[k] > best_val:
                best_val, best_pt = float(d[k]), pts[k]
        span = (hi - lo) / (n - 1) * 4.0
        lo = best_pt - span
        hi = best_pt + span
    return best_val


def monte_carlo_average_distance(
    vertices: np.ndarray, n_samples: int = 200_000, seed: int = 2024
) -> float:
    """Mean boundary distance by rejection sampling in the bounding box."""
    rng = np.random.default_rng(seed)
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    total, count = 0.0, 0
    while count < n_samples:
        pts = rng.uniform(lo, hi, size=(n_samples, 2))
        pts = pts[_inside(pts, vertices)]
        if len(pts) == 0:
            continue
        take = pts[: n_samples - count]
        total += float(_edge_distances(take, vertices).sum())
        count += len(take)
    return total / count


def clipped_eroded_body(vertices: np.ndarray, t: float) -> np.ndarray:
    """Vertices of a counterclockwise convex polygon eroded by t.

    The inner parallel body is the polygon clipped, one edge at a time, by
    the half-plane on the inner side of that edge's line moved inward by t
    (Sutherland-Hodgman). Returns an empty array when nothing is left.
    """
    n = len(vertices)
    body = [tuple(v) for v in vertices]
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        length = math.hypot(b[0] - a[0], b[1] - a[1])

        def depth(q):
            # distance of q inside the edge line, minus t
            return ((b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])) / length - t

        out = []
        for j in range(len(body)):
            p, q = body[j], body[(j + 1) % len(body)]
            dp, dq = depth(p), depth(q)
            if dp >= 0.0:
                out.append(p)
            if (dp < 0.0 < dq) or (dq < 0.0 < dp):
                s = dp / (dp - dq)
                out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
        body = out
        if len(body) < 3:
            return np.empty((0, 2))
    return np.array(body)


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed area of a polygon, positive for counterclockwise vertices."""
    x, y = vertices[:, 0], vertices[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
