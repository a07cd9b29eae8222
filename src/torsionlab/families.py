"""Model families, pair comparisons, and empirical comparison constants.

Covers sweeps of closed-form families (rectangles, ellipses, triangles,
random hulls), the large-p limit trend, inradius-class pair comparisons
resolved through the corridor endpoints, and the sample-based estimate of
the ratio between the extreme values of Q_p over convex planar domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .closed_form import ellipse_rigidity_p2, family_gamma_bound, prefactor
from .errors import InvalidDomainError
from .functionals import (
    build_shape_report,
    normalized_rigidity,
    q_functional,
    report_csv_rows,
)
from .geometry import (
    ConvexPolygon,
    average_distance,
    make_ellipse_polygon,
    make_rectangle,
    make_regular_ngon,
    make_triangle,
    random_convex_polygon,
    scale,
)
from .ptorsion import P_MAX_SUPPORTED, RigidityEstimate, rigidity_with_refinement

FAMILIES = ("rectangles", "ellipses", "triangles", "random")
NORMALIZATIONS = ("none", "by_inradius", "by_avg_distance")

# allowance for polygonal approximation of curved family members
ELLIPSE_VERTICES = 128
DISK_VERTICES = 64

# the triangle family: equilateral, right isosceles and an obtuse one
TRIANGLES = (
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844386)),
    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
    ((0.0, 0.0), (2.0, 0.0), (0.5, 0.75)),
)


def make_equilateral(side: float = 1.0) -> ConvexPolygon:
    h = side * math.sqrt(3.0) / 2.0
    return make_triangle((0.0, 0.0), (side, 0.0), (side / 2.0, h))


def normalize_polygon(poly: ConvexPolygon, mode: str, target: float) -> ConvexPolygon:
    """Rescale so the inradius or the average boundary distance hits target."""
    if mode == "none":
        return poly
    if target <= 0.0:
        raise InvalidDomainError("normalization target must be positive")
    if mode == "by_inradius":
        return scale(poly, target / poly.inradius)
    if mode == "by_avg_distance":
        return scale(poly, target / average_distance(poly))
    raise ValueError(f"unknown normalization {mode!r}")


@dataclass(frozen=True)
class FamilySweepConfig:
    """One family sweep: members, exponent grid, resolution, normalization.

    The field names, in order, are the keys of the sweep manifest.
    """

    family: str
    p_grid: tuple = (2.0,)
    levels: int = 3
    seed: int = 0
    kappas: tuple = ()
    count: int = 0
    normalization: str = "none"
    target: float = 1.0
    h0: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
        if self.family == "rectangles":
            if not self.kappas or any(k < 2.0 for k in self.kappas):
                raise ValueError("rectangle sweeps need aspect ratios kappa >= 2")
        if self.family == "ellipses":
            if not self.kappas or any(k < 1.0 for k in self.kappas):
                raise ValueError("ellipse sweeps need aspect ratios kappa >= 1")
        if self.family == "random" and self.count <= 0:
            raise ValueError("random sweeps need a positive count")
        for p in self.p_grid:
            if not 1.0 < p <= P_MAX_SUPPORTED:
                raise ValueError(f"p_grid entries must lie in (1, {P_MAX_SUPPORTED:g}], got {p}")


def _family_members(config: FamilySweepConfig):
    """Yield (shape_id, kappa_or_None, polygon) for the configured family."""
    if config.family == "rectangles":
        for k in config.kappas:
            yield f"rectangle_kappa_{k:g}", float(k), make_rectangle(0.5 * k, 0.5)
    elif config.family == "ellipses":
        for k in config.kappas:
            yield (
                f"ellipse_kappa_{k:g}",
                float(k),
                make_ellipse_polygon(float(k), 1.0, ELLIPSE_VERTICES),
            )
    elif config.family == "triangles":
        for i, verts in enumerate(TRIANGLES):
            yield f"triangle_{i}", None, make_triangle(*verts)
    else:
        for i in range(config.count):
            yield f"random_{config.seed}_{i}", None, random_convex_polygon(
                [config.seed, i]
            )


def _reference_columns(config: FamilySweepConfig, kappa, poly: ConvexPolygon, p: float):
    """Closed-form reference values attached to each sweep row."""
    cols: dict = {"family": config.family, "kappa": kappa}
    if config.family == "rectangles" and kappa is not None:
        cols["ref_q_upper"] = 1.0 + 2.0 / kappa
        cols["ref_gamma_bound"] = family_gamma_bound("rectangle", kappa).value
    elif config.family == "ellipses" and kappa is not None:
        cols["ref_gamma_bound"] = family_gamma_bound("ellipse_p2", kappa).value
        if p == 2.0:
            t_ref, q_ref = ellipse_rigidity_p2(kappa, 1.0)
            cols["ref_T_p"] = t_ref
            cols["ref_Q_p"] = q_ref
    elif config.family == "triangles":
        cols["ref_gamma_bound"] = family_gamma_bound("triangle", None).value
        cols["ref_rp_over_area"] = poly.inradius * poly.perimeter / poly.area
    return cols


def sweep(config: FamilySweepConfig) -> list[dict]:
    """Run the family sweep; returns flat rows including reference columns.

    Solver failures are captured per row (status column) instead of
    aborting the sweep.
    """
    rows: list[dict] = []
    for shape_id, kappa, poly in _family_members(config):
        poly = normalize_polygon(poly, config.normalization, config.target)
        report = build_shape_report(
            poly,
            config.p_grid,
            levels=config.levels,
            h0=config.h0,
            shape_id=shape_id,
            capture_errors=True,
        )
        for entry, row in zip(report.rigidity, report_csv_rows(report)):
            row.update(_reference_columns(config, kappa, poly, entry.p))
            row["status"] = entry.status
            rows.append(row)
    return rows


# -- large-p limit trend ----------------------------------------------------


@dataclass
class LargePRow:
    p: float
    t_norm_root_times_delta: float
    deviation: float  # |t_norm_root_times_delta - 1|


@dataclass
class InfinityTrend:
    """T(p)^{1/p} * delta per p, with the distance-ratio functional.

    The field names, in order, are the keys of the JSON report.
    """

    rows: list  # of LargePRow
    q_inf: float  # inradius / avg boundary distance
    q_inf_window: tuple
    in_window: bool


def p_to_infinity_trend(
    poly: ConvexPolygon,
    p_list,
    levels: int = 3,
    h0: float | None = None,
) -> InfinityTrend:
    """Track T(p;Omega)^{1/p} * delta toward its limit value 1.

    Also reports the limit functional Q_inf = R/delta, which lies in
    [2, 3] for planar convex bodies (2 in the strip limit, 3 for
    triangles).
    """
    p_list = [float(p) for p in p_list]
    if any(b <= a for a, b in zip(p_list, p_list[1:])):
        raise ValueError("p_list must be strictly increasing")
    delta = average_distance(poly)
    area = poly.area
    rows = []
    est = None
    for p in p_list:
        est = rigidity_with_refinement(poly, p, levels=levels, h0=h0, previous=est)
        t_norm = normalized_rigidity(est.t_p, area, p)
        value = math.exp(math.log(t_norm) / p) * delta
        rows.append(LargePRow(p, value, abs(value - 1.0)))
    q_inf = poly.inradius / delta
    lo, hi = 2.0, 3.0
    return InfinityTrend(
        rows=rows,
        q_inf=q_inf,
        q_inf_window=(lo, hi),
        in_window=bool(lo - 1e-9 <= q_inf <= hi + 1e-9),
    )


# -- pair comparisons through the corridor ----------------------------------


@dataclass
class PairRow:
    index: int
    t_norm_a: float
    t_norm_b: float
    margin: float  # t_norm_a - t_norm_b, positive when the comparison holds
    slack: float
    status: str  # "holds" | "violated" | "unresolved by corridor"


@dataclass
class PairStudy:
    """Comparison of normalized rigidity across two inradius classes.

    Domains with inradius b are compared against domains with inradius a.
    When a <= b/D the corridor endpoints alone guarantee
    T(p; Omega_b) <= T(p; Omega_a); otherwise rows are reported without a
    verdict.

    The field names, in order, are the keys of the JSON report.
    """

    a: float
    b: float
    p: float
    dimension: int
    guaranteed: bool
    corridor_upper_b: float
    corridor_lower_a: float
    rows: list = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(r.status == "holds" for r in self.rows)


def compare_pairs(
    a: float,
    b: float,
    p: float,
    n_pairs: int = 10,
    seed: int = 0,
    levels: int = 3,
) -> PairStudy:
    """Sample polygon pairs rescaled to inradii a and b and compare their
    normalized rigidities."""
    if a <= 0.0 or b <= 0.0:
        raise InvalidDomainError("inradius targets must be positive")
    if a > b:
        raise InvalidDomainError(f"need a <= b, got a={a:g} > b={b:g}")
    if n_pairs <= 0:
        raise ValueError("n_pairs must be positive")
    D = 2
    guaranteed = a <= b / D + 1e-12 * b
    pref = prefactor(p)
    upper_b = pref * (D / b) ** p
    lower_a = pref / a**p
    study = PairStudy(
        a=a,
        b=b,
        p=p,
        dimension=D,
        guaranteed=guaranteed,
        corridor_upper_b=upper_b,
        corridor_lower_a=lower_a,
    )
    for k in range(n_pairs):
        poly_a = random_convex_polygon([seed, 2 * k])
        poly_b = random_convex_polygon([seed, 2 * k + 1])
        poly_a = scale(poly_a, a / poly_a.inradius)
        poly_b = scale(poly_b, b / poly_b.inradius)
        est_a = rigidity_with_refinement(poly_a, p, levels=levels)
        est_b = rigidity_with_refinement(poly_b, p, levels=levels)
        tn_a = normalized_rigidity(est_a.t_p, poly_a.area, p)
        tn_b = normalized_rigidity(est_b.t_p, poly_b.area, p)
        # relative solver slack transfers to T_norm with a factor (p-1)
        slack = (p - 1.0) * (est_a.slack + est_b.slack)
        margin = tn_a - tn_b
        if not guaranteed:
            status = "unresolved by corridor"
        elif margin >= -slack * max(tn_a, tn_b):
            status = "holds"
        else:
            status = "violated"
        study.rows.append(
            PairRow(
                index=k,
                t_norm_a=tn_a,
                t_norm_b=tn_b,
                margin=margin,
                slack=slack,
                status=status,
            )
        )
    return study


# -- empirical comparison constant ------------------------------------------


@dataclass
class FamilyCheck:
    """Measured extreme-value ratio of Q_p inside one model family versus
    the proven lower bound for that ratio."""

    family: str
    members: list
    measured_ratio: float
    bound: float
    bound_exact: bool
    tolerance: float
    passed: bool


@dataclass
class GammaEstimate:
    """Sample-based estimate of the ratio between the infimum and supremum
    of Q_p over convex planar domains.

    gamma_hat is an upper bound for the true ratio: the sample minimum
    overestimates the infimum and the sample maximum underestimates the
    supremum. The extremes are approached only through degenerating
    families, so no finite sample attains them.

    The field names, in order, are the keys of the JSON report.
    """

    p: float
    dimension: int
    alpha_hat: float
    beta_hat: float
    gamma_hat: float
    alpha_shape: str
    beta_shape: str
    n_samples: int
    is_upper_bound: bool
    label: str
    manifest: dict = field(default_factory=dict)
    family_checks: list = field(default_factory=list)
    samples: list = field(default_factory=list)


UPPER_BOUND_LABEL = (
    "gamma_hat is an empirical upper bound for the comparison constant: "
    "finite samples overestimate the infimum of Q_p and underestimate its "
    "supremum, whose extremes are approached only by degenerating families"
)

# discretization allowance for curved members represented as polygons
CURVED_MEMBER_TOL = 2e-3


def _q_sample(poly: ConvexPolygon, p, levels) -> tuple[float, RigidityEstimate]:
    est = rigidity_with_refinement(poly, p, levels=levels)
    t_norm = normalized_rigidity(est.t_p, poly.area, p)
    return q_functional(t_norm, poly.inradius, p), est


def estimate_gamma(
    p: float = 2.0,
    count: int = 50,
    seed: int = 0,
    levels: int = 3,
) -> GammaEstimate:
    """Estimate the extreme-value ratio of Q_p from random polygons plus
    injected family members that probe both ends of the window.

    Injected members: a thin rectangle (aspect 1000, near the infimum),
    the unit square, the equilateral triangle, and a 64-gon disk (near
    the planar supremum).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    injected = [
        ("rectangle_kappa_1000", make_rectangle(500.0, 0.5)),
        ("unit_square", make_rectangle(1.0, 0.5)),
        ("equilateral_triangle", make_equilateral()),
        ("disk_64gon", make_regular_ngon(DISK_VERTICES, 1.0)),
    ]
    shapes = list(injected) + [
        (f"random_{seed}_{k}", random_convex_polygon([seed, k])) for k in range(count)
    ]
    samples = []
    q_by_id = {}
    for shape_id, poly in shapes:
        q_p, est = _q_sample(poly, p, levels)
        q_by_id[shape_id] = (q_p, est)
        samples.append(
            {
                "shape_id": shape_id,
                "n_vertices": len(poly.vertices),
                "Q_p": q_p,
                "slack": est.slack,
                "nodes_finest": est.solution.mesh.n_nodes,
            }
        )
    alpha_id = min(q_by_id, key=lambda s: q_by_id[s][0])
    beta_id = max(q_by_id, key=lambda s: q_by_id[s][0])
    alpha_hat = q_by_id[alpha_id][0]
    beta_hat = q_by_id[beta_id][0]
    gamma_hat = alpha_hat / beta_hat

    return GammaEstimate(
        p=p,
        dimension=2,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        alpha_shape=alpha_id,
        beta_shape=beta_id,
        n_samples=len(shapes),
        is_upper_bound=True,
        label=UPPER_BOUND_LABEL,
        manifest={
            "seed": seed,
            "count": count,
            "levels": levels,
            "injected": [shape_id for shape_id, _ in injected],
        },
        family_checks=_family_checks(p, q_by_id, levels),
        samples=samples,
    )


def _family_checks(p, q_by_id, levels) -> list[FamilyCheck]:
    """Measured ratio of each family against its proven bound.

    A member is (label, m): m is the id of an injected sample in q_by_id or
    a polygon sampled here. The tolerance sums the members' slacks on Q_p
    in member order, plus the family's allowance for curved members.
    """
    table = [
        ("rectangles", family_gamma_bound("rectangle", 2.0), 0.0, [
            ("kappa=2", "unit_square"),
            ("kappa=10", make_rectangle(5.0, 0.5)),
            ("kappa=1000", "rectangle_kappa_1000"),
        ]),
        ("triangles", family_gamma_bound("triangle", None), 0.0, [
            ("equilateral", "equilateral_triangle"),
            ("right_isosceles", make_triangle(*TRIANGLES[1])),
        ]),
    ]
    if p == 2.0:
        table.append(("ellipses", family_gamma_bound("ellipse_p2", 2.0), CURVED_MEMBER_TOL, [
            ("kappa=1 (disk)", "disk_64gon"),
            ("kappa=2", make_ellipse_polygon(2.0, 1.0, ELLIPSE_VERTICES)),
        ]))
    checks = []
    for family, bound, extra_tol, members in table:
        sampled = [
            q_by_id[m] if isinstance(m, str) else _q_sample(m, p, levels)
            for _, m in members
        ]
        qs = [q for q, _ in sampled]
        measured = min(qs) / max(qs)
        tol = sum(est.slack / p for _, est in sampled) + extra_tol
        checks.append(
            FamilyCheck(
                family=family,
                members=[label for label, _ in members],
                measured_ratio=measured,
                bound=bound.value,
                bound_exact=bound.exact,
                tolerance=tol,
                passed=bool(measured >= bound.value - tol),
            )
        )
    return checks
