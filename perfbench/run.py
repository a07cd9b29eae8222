"""torsionlab benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 56 --trace 0

One client runs the workload's CLI commands through torsionlab.cli.main,
each starting when the previous one has finished. A run has a fixed set of
rounds, sized from --seconds with the workload's nominal round time, so the
estimates it attempts depend only on --seed and --seconds. It runs them
all once, then again in passes until --seconds are up. Every estimate is
gated for correctness (workloads.py). Metrics are printed by
name with their units; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, with no instrumentation besides
one perf_counter pair per estimate. --trace 1 makes one pass, running each
round twice, once untraced and once with spans around each layer
(instrument.py), and reports per-layer self times and counts plus the
tracing overhead.

Files written under perfbench/results/: <workload>-seed<N>-trace<T>.fingerprint
(one line per estimate, for diffing two commits) and,
when traced, <workload>-seed<N>.spans.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import harness
import instrument
import workloads

HERE = Path(__file__).resolve().parent

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "goodput_per_s": ("1/s", "higher"),
    "solve_s_p50": ("s", "lower"),
    "solve_s_p90": ("s", "lower"),
    "pass_share": ("share", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}

# Fresh-process set-ups per untraced run besides the run's own.
SETUP_PROBES = 2


@dataclass
class Round:
    """One command of the workload and the gate on its estimates."""

    index: int
    wall: float
    records: list
    passed: list = field(default_factory=list)
    lines: list = field(default_factory=list)  # fingerprint lines
    problems: list = field(default_factory=list)


def run_round(cli, workload, seed: int, index: int, out_dir: Path, timer) -> Round:
    out = out_dir / f"round-{index}.json"
    argv = workload.argv(seed, index, str(out))
    timer.command = index
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        wall = time.perf_counter() - t0
        traceback.print_exc()
        return _judge(Round(index, wall, timer.for_command(index)), None, "command raised")
    wall = time.perf_counter() - t0
    rnd = Round(index, wall, timer.for_command(index))
    if code != 0:
        return _judge(rnd, None, f"exit code {code}")
    try:
        with open(out) as fh:
            gate = workload.gate(json.load(fh), rnd.records)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _judge(rnd, None, f"unreadable output: {exc!r}")
    finally:
        out.unlink(missing_ok=True)
    return _judge(rnd, gate, None)


def _judge(rnd: Round, gate, failure) -> Round:
    """Pass or fail each estimate; note what makes the output incorrect."""
    if failure is not None:
        rnd.problems.append(f"round {rnd.index}: {failure}")
    if gate is not None:
        rnd.problems += [f"round {rnd.index}: {p}" for p in gate.problems]
    # a gate without problems holds one flag dict per estimate
    usable = gate is not None and not gate.problems
    for i, rec in enumerate(rnd.records):
        flags = gate.flags[i] if usable else {}
        ok = usable and rec.converged and all(flags.values())
        rnd.passed.append(ok)
        if usable and not rec.converged:
            rnd.problems.append(f"round {rnd.index} estimate {i}: {rec.error or 'unconverged'}")
        for name, check_ok in flags.items():
            if not check_ok and name not in workloads.KNOWN_DEFECTS:
                rnd.problems.append(f"round {rnd.index} estimate {i} p={rec.p:g}: {name} failed")
        rnd.lines.append(_fingerprint_line(rnd.index, i, rec, flags))
    return rnd


def _fingerprint_line(command: int, i: int, rec, flags: dict) -> str:
    head = f"{command}.{i} p={rec.p:.9g}"
    if rec.error is not None:
        body = f"raised={rec.error}"
    else:
        body = (
            f"T_p={rec.t_p:.9g} err={rec.error_estimate:.9g} slack={rec.slack:.9g} "
            f"iters={rec.iterations} converged={int(rec.converged)}"
        )
    checks = " ".join(f"{k}={int(v)}" for k, v in sorted(flags.items()))
    return f"{head} {body} {checks}".rstrip()


def _setup_samples(seed: int, probes: int) -> list:
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(seed)],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(cli, workload, seed, n_rounds, seconds, out_dir, trace):
    """Run rounds 0 .. n_rounds-1 once, then again in passes while --seconds
    last; a round that would overrun them is not started again. Every later
    run of a round must reproduce its first results. Returns the runs of
    each round. A traced run makes one pass and repeats each round under the
    tracer right after its untraced run."""
    tracer = traced_timer = None
    if trace:
        # the probe command reaches every layer, so each layer's spans are
        # never empty; its estimates are not gated
        tracer = instrument.Tracer()
        probe_timer = instrument.EstimateTimer()
        with instrument.patched(instrument.tracer_replacements(tracer, probe_timer)):
            if cli.main(workloads.probe_argv(seed, str(out_dir / "probe.json"))) != 0:
                raise RuntimeError("traced probe command failed")
        traced_timer = instrument.EstimateTimer()
    samples, traced = [[] for _ in range(n_rounds)], []
    t_start = time.perf_counter()
    for k in itertools.count():
        timer = instrument.EstimateTimer()
        for index, runs in enumerate(samples):
            if k and time.perf_counter() - t_start + runs[0].wall > seconds:
                return samples, traced, tracer
            with instrument.patched(instrument.timer_replacements(timer)):
                rnd = run_round(cli, workload, seed, index, out_dir, timer)
            if k and rnd.lines != runs[0].lines:
                rnd.problems.append(f"round {index}: pass {k} results differ")
            runs.append(rnd)
            if trace:
                tracer.request = str(index)
                with instrument.patched(instrument.tracer_replacements(tracer, traced_timer)):
                    traced.append(run_round(cli, workload, seed, index, out_dir, traced_timer))
                if traced[-1].lines != rnd.lines:
                    rnd.problems.append(f"round {index}: traced results differ")
        if trace:
            return samples, traced, tracer


def main(argv=None, n_rounds=None, setup_probes=SETUP_PROBES) -> int:
    ap = argparse.ArgumentParser(description="torsionlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    harness.prepare()
    workload = workloads.WORKLOADS[args.workload]
    if n_rounds is None:
        n_rounds = workload.rounds(args.seconds, args.trace)

    with harness.scratch_dir() as tmp:
        out_dir = Path(tmp)
        first_setup, cli = harness.set_up(args.seed, out_dir)
        # half the fresh-process set-ups run before the measured commands
        # and half after, so that set-up time samples the whole run
        probes = 0 if args.trace else setup_probes
        setups = [first_setup, *_setup_samples(args.seed, probes // 2)]
        samples, traced, tracer = measure(
            cli, workload, args.seed, n_rounds, args.seconds, out_dir, args.trace
        )
        setups += _setup_samples(args.seed, probes - probes // 2)

    # attempted, failed and the fingerprint count each estimate once; its
    # time and its round's wall time are medians over the round's runs
    rounds = [runs[0] for runs in samples]
    records = [r for rnd in rounds for r in rnd.records]
    passed = sum(ok for rnd in rounds for ok in rnd.passed)
    walls = [statistics.median(rnd.wall for rnd in runs) for runs in samples]
    problems = [p for runs in samples for rnd in runs for p in rnd.problems]
    lines = [line for rnd in rounds for line in rnd.lines]
    stem = f"{args.workload}-seed{args.seed}"
    fingerprint_path = harness.RESULTS / f"{stem}-trace{args.trace}.fingerprint"
    fingerprint_path.write_text("\n".join(lines) + "\n")

    if args.trace:
        values = instrument.layer_metrics(tracer.spans)
        untraced_s = sum(walls)
        overhead = sum(rnd.wall for rnd in traced) - untraced_s
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / untraced_s
        table = {**instrument.LAYER_METRICS, **TRACE_METRICS}
        spans_path = harness.RESULTS / f"{stem}.spans.csv"
        instrument.write_spans(spans_path, tracer.spans)
    else:
        times = [
            statistics.median(r.seconds for r in recs)
            for runs in samples
            for recs in zip(*(rnd.records for rnd in runs))
        ]
        values = {
            "wall_s": statistics.median(walls),
            "goodput_per_s": passed / sum(walls),
            "solve_s_p50": statistics.median(times),
            "solve_s_p90": _p90(times),
            "pass_share": passed / len(records),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = END_TO_END
        spans_path = None

    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "rounds": len(rounds),
        "commands": sum(len(runs) for runs in samples),
        "estimates": len(records),
        "passed": passed,
        "fingerprint_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "fingerprint_file": str(fingerprint_path.relative_to(harness.ROOT)),
        "spans_file": str(spans_path.relative_to(harness.ROOT)) if spans_path else None,
        "setup_samples_s": setups,
        "problems": problems[:20],
        "environment": harness.environment(args.seed),
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(records),
                "failed": len(records) - passed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
