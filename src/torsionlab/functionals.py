"""Shape functionals assembled from geometry and solver outputs.

Turns a torsion integral into the normalized rigidity and the
scale-invariant Q functionals, evaluates every inequality corridor with a
signed margin, and packages everything into a serializable per-shape
report (JSON and flat CSV with 9-significant-digit floats).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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
    """Solver-derived quantities for one exponent p."""

    p: float
    t_p: float | None = None
    t_norm: float | None = None
    lambda_p1: float | None = None
    q_p: float | None = None
    qbar_p: float | None = None
    error_estimate: float | None = None
    observed_order: float | None = None
    slack: float | None = None
    iterations: int = 0
    converged: bool = False
    sv_gap: float | None = None
    verdicts: list = field(default_factory=list)
    status: str = "ok"


@dataclass
class ShapeReport:
    """Geometry, rigidity and limit functionals for one convex polygon."""

    shape_id: str
    n_vertices: int
    area: float
    perimeter: float
    inradius: float
    incenter: tuple
    diameter: float
    delta: float
    q_inf: float  # inradius / delta, in [2, 3] for planar convex bodies
    entries: list = field(default_factory=list)
    h: float | None = None
    r_star: float | None = None
    cheeger_residual: float | None = None
    q1: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "shape_id": self.shape_id,
            "geometry": {
                "n_vertices": self.n_vertices,
                "area": self.area,
                "perimeter": self.perimeter,
                "inradius": self.inradius,
                "incenter": list(self.incenter),
                "diameter": self.diameter,
                "avg_boundary_distance": self.delta,
            },
            "limits": {
                "q_inf": self.q_inf,
                "cheeger_h": self.h,
                "cheeger_r_star": self.r_star,
                "cheeger_residual": self.cheeger_residual,
                "q1": self.q1,
            },
            "rigidity": [
                {
                    "p": e.p,
                    "status": e.status,
                    "converged": e.converged,
                    "T_p": e.t_p,
                    "T_norm": e.t_norm,
                    "lambda_p1": e.lambda_p1,
                    "Q_p": e.q_p,
                    "Qbar_p": e.qbar_p,
                    "error_estimate": e.error_estimate,
                    "observed_order": e.observed_order,
                    "slack": e.slack,
                    "iterations": e.iterations,
                    "saint_venant_gap": e.sv_gap,
                    "verdicts": [asdict(v) for v in e.verdicts],
                }
                for e in self.entries
            ],
        }

    def all_passed(self) -> bool:
        return all(v.passed for e in self.entries for v in e.verdicts)


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
    rows = []
    for e in report.entries:
        row = {
            "shape_id": report.shape_id,
            "p": e.p,
            "area": report.area,
            "perimeter": report.perimeter,
            "inradius": report.inradius,
            "delta": report.delta,
            "T_p": e.t_p,
            "T_norm": e.t_norm,
            "lambda_p1": e.lambda_p1,
            "Q_p": e.q_p,
            "Qbar_p": e.qbar_p,
            "h": report.h,
            "Q1": report.q1,
            "Qinf": report.q_inf,
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
    report = ShapeReport(
        shape_id=shape_id,
        n_vertices=len(poly.vertices),
        area=poly.area,
        perimeter=poly.perimeter,
        inradius=r_in,
        incenter=tuple(float(c) for c in poly.incenter),
        diameter=poly.diameter,
        delta=delta,
        q_inf=r_in / delta,
    )
    for p in p_values:
        p = float(p)
        try:
            est = rigidity_with_refinement(poly, p, levels=levels, h0=h0)
        except ConvergenceError as exc:
            if not capture_errors:
                raise
            report.entries.append(
                RigidityEntry(p=p, status=f"solver failure: {exc}", converged=False)
            )
            continue
        report.entries.append(_entry_from_estimate(report, p, est))
    if with_cheeger:
        from .cheeger import cheeger_constant

        res = cheeger_constant(poly)
        report.h = res.h
        report.r_star = res.r_star
        report.cheeger_residual = res.residual
        report.q1 = r_in * res.h
    return report


def _entry_from_estimate(report: ShapeReport, p: float, est: RigidityEstimate) -> RigidityEntry:
    t_norm = normalized_rigidity(est.t_p, report.area, p)
    sv = saint_venant_gap(report.area, p, est.t_p)
    sv_ref = ball_torsion_integral(p, math.sqrt(report.area / math.pi))
    verdicts = corridor_verdicts(
        p,
        report.area,
        report.perimeter,
        report.inradius,
        report.delta,
        t_norm,
        slack=est.slack,
        sv_gap=sv,
        sv_reference=sv_ref,
    )
    return RigidityEntry(
        p=p,
        t_p=est.t_p,
        t_norm=t_norm,
        lambda_p1=lambda_p1(est.t_p, p),
        q_p=q_functional(t_norm, report.inradius, p),
        qbar_p=q_functional(t_norm, report.delta, p),
        error_estimate=est.error_estimate,
        observed_order=est.observed_order,
        slack=est.slack,
        iterations=est.iterations,
        converged=est.solution.converged,
        sv_gap=sv,
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

