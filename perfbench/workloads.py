"""The benchmark workloads and the correctness gate on their outputs.

Each workload is a stream of CLI commands, one per round, built from the
run seed. A round's estimates (one per rigidity_with_refinement call) are
gated against the checks they take part in; the gate reads the command's
output file and the estimates the harness recorded while it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

# Criterion-5 exponents and the eight corridor inequalities it checks.
CORRIDOR_P = "1.5,2,3,5,10"
CORRIDOR_CHECKS = (
    "rigidity_inradius_lower",
    "rigidity_perimeter_upper",
    "area_perimeter_window",
    "rigidity_inradius_upper",
    "q_window",
    "inradius_distance_window",
    "rigidity_distance_window",
    "qbar_window",
)
# Criterion 11 checks the Saint-Venant gap at these exponents only.
SAINT_VENANT_MAX_P = 3.0

# The limits command's default exponents, in output order.
LIMITS_SMALL_P = (1.2, 1.1, 1.05)
LIMITS_LARGE_P = (8.0, 16.0, 32.0)

# Checks the program is known to fail on some inputs. Warm-started solves
# at p = 16 and 32 can accept no step yet report convergence, which breaks
# the large-p ordering on a share of random polygons. These failures count
# against the estimates but do not mark the run's output incorrect.
KNOWN_DEFECTS = frozenset({"large_p_order"})


@dataclass
class Gate:
    """Per-estimate check outcomes for one command, plus output problems."""

    flags: list = field(default_factory=list)  # per estimate: {check: passed}
    problems: list = field(default_factory=list)


def _same_9g(text_value, x: float) -> bool:
    return text_value is not None and float(text_value) == float(f"{x:.9g}")


# -- corridor ---------------------------------------------------------------


def corridor_argv(seed: int, round_index: int, out: str) -> list:
    return [
        "sweep", "--family", "random", "--p", CORRIDOR_P, "--levels", "2",
        "--seed", str(round_seed(seed, round_index)), "--format", "json", "--out", out,
    ]


def corridor_gate(doc: dict, records: list) -> Gate:
    gate = Gate()
    rows = doc["rows"]
    if len(rows) != len(records) or doc["manifest"]["rows"] != len(rows):
        gate.problems.append(f"{len(rows)} rows for {len(records)} estimates")
        return gate
    for row, rec in zip(rows, records):
        flags = {}
        if row["p"] != rec.p:
            gate.problems.append(f"row p={row['p']} does not match estimate p={rec.p}")
        if rec.error is None:
            if row["status"] != "ok" or not _same_9g(row["T_p"], rec.t_p):
                gate.problems.append(f"{row['shape_id']} p={rec.p}: row disagrees with its estimate")
            for name in CORRIDOR_CHECKS:
                flags[name] = row[f"pass_{name}"] is True
            if rec.p <= SAINT_VENANT_MAX_P:
                flags["saint_venant"] = row["pass_saint_venant"] is True
        gate.flags.append(flags)
    return gate


# -- limits -----------------------------------------------------------------


def limits_argv(seed: int, round_index: int, out: str) -> list:
    spec = f'{{"kind":"random","seed":[{seed},{round_index}]}}'
    return ["limits", "--direction", "both", "--spec", spec, "--out", out]


def _strictly_decreasing(values: list) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def limits_gate(doc: dict, records: list) -> Gate:
    gate = Gate()
    small = doc["small_p"]["rows"]
    large = doc["large_p"]["rows"]
    expected_p = LIMITS_SMALL_P + LIMITS_LARGE_P
    if len(records) != len(expected_p) or tuple(r.p for r in records) != expected_p:
        gate.problems.append(f"estimates at p={[r.p for r in records]}, expected {list(expected_p)}")
        return gate
    if [r["p"] for r in small] != list(LIMITS_SMALL_P) or [r["p"] for r in large] != list(LIMITS_LARGE_P):
        gate.problems.append("limits rows do not match the default exponents")
        return gate
    small_ok = _strictly_decreasing([r["deviation_from_h"] for r in small])
    large_ok = _strictly_decreasing([r["deviation"] for r in large])
    q_inf = doc["large_p"]["q_inf"]
    q_ok = 2.0 <= q_inf <= 3.0
    if doc["large_p"]["in_window"] is not q_ok:
        gate.problems.append(f"in_window flag disagrees with q_inf={q_inf}")
    gate.flags = [{"small_p_order": small_ok} for _ in LIMITS_SMALL_P] + [
        {"large_p_order": large_ok, "q_inf_window": q_ok} for _ in LIMITS_LARGE_P
    ]
    return gate


# -- registry ---------------------------------------------------------------


def round_seed(seed: int, round_index: int) -> int:
    """Integer seed for one round's command, distinct for every (seed, round)
    while round_index < 1000, so no round repeats another's inputs."""
    if round_index >= 1000:
        raise ValueError("a run is limited to 1000 rounds")
    return seed * 1000 + round_index


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable  # (seed, round_index, out_path) -> CLI argv
    gate: Callable  # (output document, estimate records) -> Gate
    # Seconds of one untraced round on a 2-vCPU x86-64 VM in its slower
    # spells. It sizes the run's fixed set of rounds, so the estimates a run
    # attempts and fails depend only on the seed and --seconds.
    round_s: float
    # No run has fewer rounds, so the solve-time p90 rests on >= 100 estimates.
    min_rounds: int
    # The set is sized for this many passes in --seconds. More passes give
    # each estimate more timings to take the median of, so a brief stall of
    # the machine moves it less; fewer passes give more distinct inputs.
    passes: int

    def rounds(self, seconds: float, trace: int) -> int:
        """Distinct rounds in one run. A traced run makes one pass and times
        every round twice, so it has half the rounds one pass would take."""
        if trace:
            return max(1, round(seconds / (2 * self.round_s)))
        return max(self.min_rounds, round(seconds / (self.passes * self.round_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corridor", corridor_argv, corridor_gate, round_s=2.4, min_rounds=2, passes=1),
        Workload("limits", limits_argv, limits_gate, round_s=1.4, min_rounds=17, passes=2),
    )
}


def probe_argv(seed: int, out: str) -> list:
    """One small command that reaches every layer: meshing, linear and
    nonlinear solves, the average distance, the Cheeger constant, the shape
    report and its serializer. Used as warm-up and as the traced probe."""
    spec = f'{{"kind":"random","seed":[{seed},1000000]}}'
    return ["shape", "--spec", spec, "--p", "1.5,2", "--levels", "2", "--cheeger", "--out", out]
