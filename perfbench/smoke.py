"""Tiny-size run of the harness: one round of every workload, untraced and
traced, checking that each metric BENCHMARK.json names is emitted with its
unit and a finite value, and that the last line has the contract's keys.

    python3 perfbench/smoke.py

Takes about 20 seconds; exits non-zero on the first mismatch.
"""

import contextlib
import io
import json
import math
import sys

import harness
import run
import workloads


def check(workload: str, trace: int, declared: dict) -> None:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, n_rounds=1, setup_probes=1)
    assert code == 0, f"{workload} trace={trace}: exit code {code}"
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, f"{workload} trace={trace}: output judged incorrect"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{workload} trace={trace}: missing {sorted(set(declared) - set(metrics))}, "
        f"undeclared {sorted(set(metrics) - set(declared))}"
    )
    for name, m in metrics.items():
        assert m["unit"] == declared[name], f"{name}: unit {m['unit']!r}, declared {declared[name]!r}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    print(f"ok {workload} trace={trace}: {len(metrics)} metrics, {result['attempted']} estimates")


def main() -> int:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == set(workloads.WORKLOADS), names
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in names:
        check(workload, 0, end_to_end)
        check(workload, 1, per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
