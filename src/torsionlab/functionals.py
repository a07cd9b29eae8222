"""Shape functionals assembled from geometry and solver outputs.

Turns a torsion integral into the normalized rigidity and the
scale-invariant Q functionals, evaluates every inequality corridor with a
signed margin, and packages everything into a serializable per-shape
report (JSON and flat CSV with 9-significant-digit floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import ball_torsion_integral, corridor_endpoints, prefactor
from .errors import ConvergenceError, InvalidDomainError
from .geometry import ConvexPolygon, average_distance
from .ptorsion import RigidityEstimate, rigidity_with_refinement

# Pure-geometry checks (no solver involved) pass/fail against this slack.
GEOMETRY_SLACK = 1e-9

SCHEMA_VERSION = "1"


def normalized_rigidity(t_p: float, area: float, p: float) -> float:
    """area^(p-1) * T_p^(1-p), the scale-homogeneous rigidity."""
    if t_p <= 0.0 or area <= 0.0:
        raise InvalidDomainError("normalized rigidity needs positive T_p and area")
    if not p > 1.0:
        raise InvalidDomainError("normalized rigidity needs p > 1")
    return math.exp((p - 1.0) * (math.log(area) - math.log(t_p)))


def lambda_p1(t_p: float, p: float) -> float:
    """The torsional eigenvalue surrogate T_p^(1-p)."""
    if t_p <= 0.0:
        raise InvalidDomainError("lambda needs positive T_p")
    return math.exp((1.0 - p) * math.log(t_p))


def q_functional(t_norm: float, length: float, p: float) -> float:
    """[T_norm * length^p / prefactor(p)]^(1/p).

    With the inradius as length this is Q_p, confined to [1, R P / area);
    with the average distance delta it is the variant Qbar_p.
    """
    if t_norm <= 0.0 or length <= 0.0:
        raise InvalidDomainError("q functional needs positive inputs")
    log_q = (math.log(t_norm) + p * math.log(length) - math.log(prefactor(p))) / p
    return math.exp(log_q)


@dataclass(frozen=True)
class Verdict:
    """One inequality check: value against lower/upper bounds.

    Margins are normalized by the bound; the verdict fails only when the
    worst margin is negative beyond the declared slack.
    """

    name: str
    value: float
    lower: float | None
    upper: float | None
    margin: float
    slack: float
    passed: bool


def _verdict(name, value, lower, upper, slack) -> Verdict:
    margins = []
    if lower is not None:
        scale = abs(lower) if lower != 0.0 else 1.0
        margins.append((value - lower) / scale)
    if upper is not None:
        scale = abs(upper) if upper != 0.0 else 1.0
        margins.append((upper - value) / scale)
    margin = min(margins)
    return Verdict(
        name=name,
        value=value,
        lower=lower,
        upper=upper,
        margin=margin,
        slack=slack,
        passed=bool(margin >= -slack),
    )


VERDICT_ORDER = (
    "rigidity_inradius_lower",
    "rigidity_perimeter_upper",
    "area_perimeter_window",
    "rigidity_inradius_upper",
    "q_window",
    "inradius_distance_window",
    "rigidity_distance_window",
    "qbar_window",
    "limit_ratio_window",
    "saint_venant",
)


def corridor_verdicts(
    p: float,
    area: float,
    perimeter: float,
    inradius: float,
    delta: float,
    t_norm: float,
    slack: float,
    sv_gap: float | None = None,
    sv_reference: float | None = None,
) -> list[Verdict]:
    """Evaluate every inequality corridor for one converged solve.

    `slack` is the relative solver slack (3 x refinement error / value);
    pure-geometry windows use the fixed GEOMETRY_SLACK instead.
    """
    bounds = corridor_endpoints(p, inradius, perimeter, area, delta)
    q_p = q_functional(t_norm, inradius, p)
    qbar_p = q_functional(t_norm, delta, p)
    out = [
        _verdict("rigidity_inradius_lower", t_norm, bounds.hp_lower, None, slack),
        _verdict("rigidity_perimeter_upper", t_norm, None, bounds.buser_upper, slack),
        _verdict(
            "area_perimeter_window",
            area / perimeter,
            inradius / 2.0,
            inradius,
            GEOMETRY_SLACK,
        ),
        _verdict(
            "rigidity_inradius_upper", t_norm, None, bounds.buser_inradius_upper, slack
        ),
        _verdict("q_window", q_p, 1.0, bounds.geo_upper, slack),
        _verdict(
            "inradius_distance_window",
            inradius,
            2.0 * delta,
            3.0 * delta,
            GEOMETRY_SLACK,
        ),
        _verdict(
            "rigidity_distance_window", t_norm, bounds.delta_lower, bounds.delta_upper, slack
        ),
        _verdict("qbar_window", qbar_p, 1.0 / 3.0, 1.0, slack),
        _verdict("limit_ratio_window", inradius / delta, 2.0, 3.0, GEOMETRY_SLACK),
    ]
    if sv_gap is not None and sv_reference:
        out.append(_verdict("saint_venant", sv_gap / abs(sv_reference), 0.0, None, slack))
    return out


def saint_venant_gap(area: float, p: float, t_p_value: float) -> float:
    """T_p(ball of the given area) - T_p; nonnegative up to solver slack."""
    if t_p_value <= 0.0:
        raise InvalidDomainError("saint_venant_gap needs a positive torsion integral")
    radius = math.sqrt(area / math.pi)
    return ball_torsion_integral(p, radius) - t_p_value


# -- per-shape report -------------------------------------------------------


@dataclass
class RigidityEntry:
    """Solver-derived quantities for one exponent p.

    The field names, in order, are the keys of a `rigidity` item in the
    JSON report.
    """

    p: float
    status: str = "ok"
    converged: bool = False
    T_p: float | None = None
    T_norm: float | None = None
    lambda_p1: float | None = None
    Q_p: float | None = None
    Qbar_p: float | None = None
    error_estimate: float | None = None
    observed_order: float | None = None
    slack: float | None = None
    iterations: int = 0
    saint_venant_gap: float | None = None
    verdicts: list = field(default_factory=list)


@dataclass
class Geometry:
    """Exact geometry of one polygon, the report's `geometry` block."""

    n_vertices: int
    area: float
    perimeter: float
    inradius: float
    incenter: tuple
    diameter: float
    avg_boundary_distance: float


@dataclass
class Limits:
    """The report's `limits` block; the Cheeger fields stay None unless
    requested."""

    q_inf: float  # inradius / delta, in [2, 3] for planar convex bodies
    cheeger_h: float | None = None
    cheeger_r_star: float | None = None
    cheeger_residual: float | None = None
    q1: float | None = None


@dataclass
class ShapeReport:
    """Geometry, rigidity and limit functionals for one convex polygon.

    The field names, in order, are the keys of the JSON report.
    """

    shape_id: str
    geometry: Geometry
    limits: Limits
    rigidity: list = field(default_factory=list)

    @property
    def entries(self) -> list:
        """The rigidity entries; perfbench counts failed verdicts through
        this name."""
        return self.rigidity


CSV_COLUMNS = [
    "shape_id",
    "p",
    "area",
    "perimeter",
    "inradius",
    "delta",
    "T_p",
    "T_norm",
    "lambda_p1",
    "Q_p",
    "Qbar_p",
    "h",
    "Q1",
    "Qinf",
] + [f"pass_{name}" for name in VERDICT_ORDER] + [f"margin_{name}" for name in VERDICT_ORDER]


def report_csv_rows(report: ShapeReport) -> list[dict]:
    """Flatten a report to one CSV row dict per exponent p."""
    g, lim = report.geometry, report.limits
    rows = []
    for e in report.rigidity:
        row = {
            "shape_id": report.shape_id,
            "p": e.p,
            "area": g.area,
            "perimeter": g.perimeter,
            "inradius": g.inradius,
            "delta": g.avg_boundary_distance,
            "T_p": e.T_p,
            "T_norm": e.T_norm,
            "lambda_p1": e.lambda_p1,
            "Q_p": e.Q_p,
            "Qbar_p": e.Qbar_p,
            "h": lim.cheeger_h,
            "Q1": lim.q1,
            "Qinf": lim.q_inf,
        }
        present = {v.name: v for v in e.verdicts}
        for name in VERDICT_ORDER:
            v = present.get(name)
            row[f"pass_{name}"] = None if v is None else v.passed
            row[f"margin_{name}"] = None if v is None else v.margin
        rows.append(row)
    return rows


def build_shape_report(
    poly: ConvexPolygon,
    p_values,
    levels: int = 3,
    h0: float | None = None,
    shape_id: str = "shape",
    with_cheeger: bool = False,
    capture_errors: bool = False,
) -> ShapeReport:
    """Solve the torsion problem for every requested p and assemble the
    full report with corridor verdicts.

    With capture_errors=True, solver failures are recorded in the entry
    status instead of raising (used by sweeps).
    """
    delta = average_distance(poly)
    r_in = poly.inradius
    geometry = Geometry(
        n_vertices=len(poly.vertices),
        area=poly.area,
        perimeter=poly.perimeter,
        inradius=r_in,
        incenter=tuple(float(c) for c in poly.incenter),
        diameter=poly.diameter,
        avg_boundary_distance=delta,
    )
    report = ShapeReport(shape_id, geometry, Limits(q_inf=r_in / delta))
    for p in p_values:
        p = float(p)
        try:
            est = rigidity_with_refinement(poly, p, levels=levels, h0=h0)
        except ConvergenceError as exc:
            if not capture_errors:
                raise
            report.rigidity.append(RigidityEntry(p=p, status=f"solver failure: {exc}"))
            continue
        report.rigidity.append(_entry_from_estimate(geometry, p, est))
    if with_cheeger:
        from .cheeger import cheeger_constant

        res = cheeger_constant(poly)
        report.limits = Limits(report.limits.q_inf, res.h, res.r_star, res.residual, r_in * res.h)
    return report


def _entry_from_estimate(g: Geometry, p: float, est: RigidityEstimate) -> RigidityEntry:
    t_norm = normalized_rigidity(est.t_p, g.area, p)
    sv = saint_venant_gap(g.area, p, est.t_p)
    sv_ref = ball_torsion_integral(p, math.sqrt(g.area / math.pi))
    verdicts = corridor_verdicts(
        p,
        g.area,
        g.perimeter,
        g.inradius,
        g.avg_boundary_distance,
        t_norm,
        slack=est.slack,
        sv_gap=sv,
        sv_reference=sv_ref,
    )
    return RigidityEntry(
        p=p,
        converged=est.solution.converged,
        T_p=est.t_p,
        T_norm=t_norm,
        lambda_p1=lambda_p1(est.t_p, p),
        Q_p=q_functional(t_norm, g.inradius, p),
        Qbar_p=q_functional(t_norm, g.avg_boundary_distance, p),
        error_estimate=est.error_estimate,
        observed_order=est.observed_order,
        slack=est.slack,
        iterations=est.iterations,
        saint_venant_gap=sv,
        verdicts=verdicts,
    )


# -- 9-significant-digit serialization --------------------------------------


def format_value(x) -> str:
    """Deterministic token for JSON/CSV cells; floats at 9 significant digits."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.9g}"
    return str(x)


def dumps_9g(obj, indent: int = 0) -> str:
    """JSON text with floats rendered at 9 significant digits.

    Uses insertion order for dict keys, so identical run configurations
    serialize byte-identically.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dumps_9g(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat and len(seq) <= 8:
            return "[" + ", ".join(dumps_9g(v) for v in seq) + "]"
        items = [f"{inner}{dumps_9g(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_value(obj)
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")

