"""Timing and tracing wrapped around torsionlab's callables.

EstimateTimer is the untraced run's only instrumentation: one perf_counter
pair around each rigidity_with_refinement call, keeping the returned
estimate for the correctness gate and the fingerprint.

Tracer wraps the public callables of every layer under the name where the
caller looks them up (functionals.average_distance, ptorsion.spsolve,
Mesh.stiffness, ...). Each call becomes a span; a span's self time is its
duration minus the time its child spans cover. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

# Modules that look up rigidity_with_refinement under their own name.
RIGIDITY_SITES = ("functionals", "families", "cheeger")


@dataclass
class EstimateRecord:
    """One rigidity_with_refinement call: its inputs, time and outcome.

    Only scalars are kept: holding the estimate would keep its finest mesh
    alive and inflate the run's peak memory."""

    command: int  # round index of the command that made the call
    p: float
    n_vertices: int
    seconds: float
    error: str | None = None  # exception class name if the call raised
    t_p: float | None = None
    error_estimate: float | None = None
    slack: float | None = None
    iterations: int | None = None
    converged: bool = False


class EstimateTimer:
    def __init__(self):
        self.records: list[EstimateRecord] = []
        self.command = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(poly, p, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                est = fn(poly, p, *args, **kwargs)
            except Exception as exc:
                dt = time.perf_counter() - t0
                self.records.append(
                    EstimateRecord(self.command, float(p), len(poly.vertices), dt, type(exc).__name__)
                )
                raise
            dt = time.perf_counter() - t0
            self.records.append(
                EstimateRecord(
                    self.command,
                    float(p),
                    len(poly.vertices),
                    dt,
                    t_p=est.t_p,
                    error_estimate=est.error_estimate,
                    slack=est.slack,
                    iterations=est.iterations,
                    converged=bool(est.solution.converged),
                )
            )
            return est

        return timed

    def for_command(self, command: int) -> list[EstimateRecord]:
        return [r for r in self.records if r.command == command]


@contextmanager
def patched(replacements):
    """Bind owner.attr to a replacement for each (owner, attr, replacement)
    while the block runs; the originals are restored on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def _modules():
    from torsionlab import cheeger, cli, families, functionals, geometry, ptorsion

    return {
        "cheeger": cheeger,
        "cli": cli,
        "families": families,
        "functionals": functionals,
        "geometry": geometry,
        "ptorsion": ptorsion,
    }


def _present(owner, attr) -> bool:
    # a name a later version no longer has is skipped, and its layer reads 0
    return attr in vars(owner)


def timer_replacements(timer: EstimateTimer) -> list:
    mods = _modules()
    return [
        (mods[m], "rigidity_with_refinement", timer.wrap(vars(mods[m])["rigidity_with_refinement"]))
        for m in RIGIDITY_SITES
        if _present(mods[m], "rigidity_with_refinement")
    ]


# -- tracing ----------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request: str  # the command that caused it: "probe" or the round index
    name: str
    start: float
    end: float
    self_s: float
    info: dict | None  # counts read from the call's arguments or result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = "probe"
        self._stack: list[list] = []  # open spans: [span_id, child_seconds, info]
        self._next_id = 0

    def wrap(self, name: str, fn, describe=None):
        """Span around fn; describe(result) returns counts for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0, None]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                self.spans.append(
                    Span(
                        span_id,
                        parent[0] if parent else None,
                        self.request,
                        name,
                        t0,
                        t1,
                        (t1 - t0) - frame[1],
                        frame[2],
                    )
                )
            if describe is not None:
                self.spans[-1].info = {**(frame[2] or {}), **describe(result)}
            return result

        return traced

    def note(self, **counts) -> None:
        """Attach counts to the innermost open span."""
        frame = self._stack[-1]
        frame[2] = {**(frame[2] or {}), **counts}


def _solve_counters(tracer: Tracer, fn):
    """solve_p_torsion with its RuntimeWarnings counted and the returned
    solution's counters noted on its span."""

    @functools.wraps(fn)
    def solve(mesh, p, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                sol = fn(mesh, p, *args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "solution", None)
                tracer.note(
                    failures=1,
                    iterations=partial.iterations if partial is not None else 0,
                    accepted_steps=len(partial.energy_trace) if partial is not None else 0,
                    runtime_warnings=_count_runtime(caught),
                )
                raise
        tracer.note(
            iterations=sol.iterations,
            accepted_steps=len(sol.energy_trace),
            zero_step_converged=int(sol.converged and p != 2.0 and not sol.energy_trace),
            runtime_warnings=_count_runtime(caught),
        )
        return sol

    return solve


def _count_runtime(caught) -> int:
    n = 0
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            n += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return n


def _verdicts_failed(report) -> dict:
    return {"verdicts_failed": sum(not v.passed for e in report.entries for v in e.verdicts)}


def _estimate_counts(est) -> dict:
    return {
        "finest_nodes": est.solution.mesh.n_nodes,
        "zero_error_estimates": int(est.slack < 1e-12),
    }


def tracer_replacements(tracer: Tracer, timer: EstimateTimer) -> list:
    """Every layer's callables, wrapped where they are looked up. The
    rigidity sites also go through the estimate timer, so traced rounds
    yield the same records as untraced ones."""
    mods = _modules()
    mods["Mesh"] = mods["ptorsion"].Mesh
    nodes = lambda mesh: {"nodes": mesh.n_nodes}  # noqa: E731
    table = [
        ("cli", "main", "cli.main", None),
        ("functionals", "average_distance", "geometry.average_distance", None),
        ("families", "average_distance", "geometry.average_distance", None),
        ("geometry", "linprog", "geometry.inradius", None),
        ("cheeger", "cheeger_constant", "cheeger.cheeger_constant", None),
        ("cli", "cheeger_constant", "cheeger.cheeger_constant", None),
        ("ptorsion", "triangulate", "ptorsion.triangulate", nodes),
        ("cli", "triangulate", "ptorsion.triangulate", nodes),
        ("ptorsion", "refine", "ptorsion.refine", nodes),
        ("Mesh", "stiffness", "ptorsion.stiffness", lambda a: {"nnz": a.nnz}),
        ("Mesh", "energy_hessian", "ptorsion.energy_hessian", None),
        ("ptorsion", "spsolve", "ptorsion.spsolve", lambda x: {"unknowns": x.shape[0]}),
        ("Mesh", "gradient_squares", "ptorsion.gradient_squares", None),
        ("ptorsion", "_energy", "ptorsion.energy", None),
        ("functionals", "build_shape_report", "functionals.build_shape_report", _verdicts_failed),
        ("families", "build_shape_report", "functionals.build_shape_report", _verdicts_failed),
        ("cli", "build_shape_report", "functionals.build_shape_report", _verdicts_failed),
        ("cli", "dumps_9g", "functionals.dumps_9g", None),
    ]
    out = []
    for module, attr, name, describe in table:
        owner = mods[module]
        if _present(owner, attr):
            out.append((owner, attr, tracer.wrap(name, vars(owner)[attr], describe)))
    ptorsion = mods["ptorsion"]
    if _present(ptorsion, "solve_p_torsion"):
        solve = _solve_counters(tracer, vars(ptorsion)["solve_p_torsion"])
        out.append((ptorsion, "solve_p_torsion", tracer.wrap("ptorsion.solve_p_torsion", solve)))
    for m in RIGIDITY_SITES:
        owner = mods[m]
        if _present(owner, "rigidity_with_refinement"):
            timed = timer.wrap(vars(owner)["rigidity_with_refinement"])
            out.append(
                (
                    owner,
                    "rigidity_with_refinement",
                    tracer.wrap("ptorsion.rigidity_with_refinement", timed, _estimate_counts),
                )
            )
    return out


# -- per-layer metrics ------------------------------------------------------

# unit and direction of each per-layer field
FIELD_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "nodes": ("count", "lower"),
    "nnz": ("count", "lower"),
    "unknowns": ("count", "lower"),
    "max_unknowns": ("count", "lower"),
    "iterations": ("count", "lower"),
    "accepted_steps": ("count", "lower"),
    "accept_ratio": ("ratio", "higher"),
    "energy_evals_per_iteration": ("ratio", "lower"),
    "zero_step_converged": ("count", "lower"),
    "failures": ("count", "lower"),
    "runtime_warnings": ("count", "lower"),
    "finest_nodes": ("count", "lower"),
    "zero_error_estimates": ("count", "lower"),
    "verdicts_failed": ("count", "lower"),
}

LAYER_FIELDS = (
    ("geometry.average_distance", ("calls", "self_s")),
    ("geometry.inradius", ("calls", "self_s")),
    ("cheeger.cheeger_constant", ("calls", "self_s")),
    ("ptorsion.triangulate", ("calls", "self_s", "nodes")),
    ("ptorsion.refine", ("calls", "self_s", "nodes")),
    ("ptorsion.stiffness", ("calls", "self_s", "nnz")),
    ("ptorsion.energy_hessian", ("calls", "self_s")),
    ("ptorsion.spsolve", ("calls", "self_s", "unknowns", "max_unknowns")),
    ("ptorsion.gradient_squares", ("calls", "self_s")),
    ("ptorsion.energy", ("calls", "self_s")),
    (
        "ptorsion.solve_p_torsion",
        (
            "calls",
            "self_s",
            "iterations",
            "accepted_steps",
            "accept_ratio",
            "energy_evals_per_iteration",
            "zero_step_converged",
            "failures",
            "runtime_warnings",
        ),
    ),
    ("ptorsion.rigidity_with_refinement", ("calls", "self_s", "finest_nodes", "zero_error_estimates")),
    ("functionals.build_shape_report", ("calls", "self_s")),
    ("functionals", ("verdicts_failed",)),
    ("functionals.dumps_9g", ("self_s",)),
    ("cli.main", ("self_s",)),
)

# metric name -> (unit, better); the traced run reports these and the
# trace overhead.
LAYER_METRICS = {
    f"{layer}.{f}": FIELD_UNITS[f] for layer, fields in LAYER_FIELDS for f in fields
}


def layer_metrics(spans) -> dict:
    """Totals per layer over all spans."""
    totals: dict = {}
    max_unknowns = 0
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += s.self_s
        for k, v in (s.info or {}).items():
            t[k] = t.get(k, 0) + v
        if s.name == "ptorsion.spsolve":
            max_unknowns = max(max_unknowns, (s.info or {}).get("unknowns", 0))
    values = {}
    for name in LAYER_METRICS:
        layer, _, field_name = name.rpartition(".")
        values[name] = totals.get(layer, {}).get(field_name, 0)
    solve = totals.get("ptorsion.solve_p_torsion", {})
    iterations = solve.get("iterations", 0)
    values["ptorsion.solve_p_torsion.accept_ratio"] = (
        solve.get("accepted_steps", 0) / iterations if iterations else 0.0
    )
    values["ptorsion.solve_p_torsion.energy_evals_per_iteration"] = (
        totals.get("ptorsion.energy", {}).get("calls", 0) / iterations if iterations else 0.0
    )
    values["ptorsion.spsolve.max_unknowns"] = max_unknowns
    values["functionals.verdicts_failed"] = totals.get("functionals.build_shape_report", {}).get(
        "verdicts_failed", 0
    )
    return values


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("span_id,parent_id,request,name,start_s,end_s,self_s\n")
        for s in spans:
            parent = "" if s.parent_id is None else s.parent_id
            fh.write(
                f"{s.span_id},{parent},{s.request},{s.name},{s.start:.9f},{s.end:.9f},{s.self_s:.9f}\n"
            )
