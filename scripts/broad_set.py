"""Cold-start and continuation robustness of the p-torsion solver over a
broad set of shapes.

Runs a standalone three-level refinement study of T_p for each of 52 convex
polygons at 12 exponents p from 1.01 to 32, and prints per p the solves,
iterations, lagged steps, backtracks, failures and time. The shapes are 40
random polygons (random_convex_polygon([1000 + s, i]), s < 4, i < 10), the
1 x 1, 5 x 1 and 500 x 1 rectangles, the regular 64-gon, the ellipse
128-gons of aspect ratio 2, 4, 10, 100 and 1000, and the three triangles of
the triangle family. Every base level starts from cold_start, so the set
checks that no cold solve needs more than the solver's one regularization.
A second table, with the same columns, continues each shape's p = 1.2
study to p = 1.1, then 1.05, then 1.01, each level of each study starting
from the previous p's solution and flux on its mesh, as the limits trend
toward p = 1 does; a shape whose study failed is not continued past it.
A study that raises ConvergenceError, standalone or continued, is listed,
and the script then exits with status 1. Run it from the repository root,
with NaN and overflow warnings made errors:

    PYTHONPATH=src python -W error::RuntimeWarning scripts/broad_set.py
"""

import sys
import time

from torsionlab import (
    ConvergenceError,
    make_ellipse_polygon,
    make_rectangle,
    make_regular_ngon,
    make_triangle,
    random_convex_polygon,
)
from torsionlab.families import TRIANGLES
from torsionlab.ptorsion import rigidity_with_refinement

P_VALUES = (1.01, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 16.0, 32.0)
# the continued trend: from each shape's standalone study at the first p
CONTINUED_P = (1.2, 1.1, 1.05, 1.01)
LEVELS = 3
# per p: solves, iterations, lagged steps, backtracks, failed studies (and seconds)
COLUMNS = (("solves", 7), ("iterations", 11), ("lagged", 7), ("backtracks", 11), ("failed", 7))


def shapes() -> list:
    out = [
        (f"random_{1000 + s}_{i}", random_convex_polygon([1000 + s, i]))
        for s in range(4)
        for i in range(10)
    ]
    out += [(f"rectangle_{w}x1", make_rectangle(float(w), 0.5)) for w in (1, 5, 500)]
    out.append(("regular_64gon", make_regular_ngon(64, 1.0)))
    out += [
        (f"ellipse_{k}", make_ellipse_polygon(float(k), 1.0, 128)) for k in (2, 4, 10, 100, 1000)
    ]
    out += [(f"triangle_{i}", make_triangle(*t)) for i, t in enumerate(TRIANGLES)]
    return out


def _line(label: str, counts: list, seconds: float) -> str:
    cells = " ".join(f"{n:>{width}d}" for n, (_, width) in zip(counts, COLUMNS))
    return f"{label:>6} {cells} {seconds:>8.2f}"


def _table(polygons: list, p_values, failures: list, previous=None, keep_p=None) -> dict:
    """Print one row per p of the studies of every shape, and their total;
    return the shapes' estimates at keep_p, by name. Standalone studies if
    previous is None; otherwise each shape's study continues from its
    estimate in previous, and then from its own at the row before."""
    names = " ".join(f"{name:>{width}}" for name, width in COLUMNS)
    print(f"{'p':>6} {names} {'time_s':>8}")
    kept, totals, total_s = {}, [0] * len(COLUMNS), 0.0
    for p in p_values:
        counts, seconds, row = [0] * len(COLUMNS), 0.0, {}
        for name, poly in polygons:
            if previous is not None and name not in previous:
                continue  # its study at the previous p failed
            t0 = time.perf_counter()
            try:
                est = rigidity_with_refinement(
                    poly, p, levels=LEVELS, previous=None if previous is None else previous[name]
                )
            except ConvergenceError as exc:
                counts[4] += 1
                failures.append(f"{name} p={p}{'' if previous is None else ' continued'}: {exc}")
            else:
                row[name] = est
                counts[0] += len(est.solutions)
                counts[1] += est.iterations
                counts[2] += sum(s.lagged_steps for s in est.solutions)
                counts[3] += sum(s.backtracks for s in est.solutions)
            seconds += time.perf_counter() - t0
        if previous is not None:
            previous = row
        if p == keep_p:
            kept = row
        totals = [a + b for a, b in zip(totals, counts)]
        total_s += seconds
        print(_line(f"{p:g}", counts, seconds))
    print(_line("all", totals, total_s))
    return kept


def main() -> int:
    polygons = shapes()
    failures = []
    print(f"{len(polygons)} shapes, levels {LEVELS}")
    first = _table(polygons, P_VALUES, failures, keep_p=CONTINUED_P[0])
    print(f"continued from p = {CONTINUED_P[0]:g} toward p = 1")
    _table(polygons, CONTINUED_P[1:], failures, previous=first)
    for line in failures:
        print(f"failed: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
