"""Cold-start robustness of the p-torsion solver over a broad set of shapes.

Runs a standalone three-level refinement study of T_p for each of 52 convex
polygons at 12 exponents p from 1.01 to 32, and prints per p the solves,
iterations, lagged steps, backtracks, failures and time. The shapes are 40
random polygons (random_convex_polygon([1000 + s, i]), s < 4, i < 10), the
1 x 1, 5 x 1 and 500 x 1 rectangles, the regular 64-gon, the ellipse
128-gons of aspect ratio 2, 4, 10, 100 and 1000, and the three triangles of
the triangle family. Every base level starts from cold_start, so the set
checks that no cold solve needs more than the solver's one regularization.
A study that raises ConvergenceError is listed, and the script then exits
with status 1. Run it from the repository root, with NaN and overflow
warnings made errors:

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


def main() -> int:
    polygons = shapes()
    failures = []
    print(f"{len(polygons)} shapes, levels {LEVELS}")
    names = " ".join(f"{name:>{width}}" for name, width in COLUMNS)
    print(f"{'p':>6} {names} {'time_s':>8}")
    totals, total_s = [0] * len(COLUMNS), 0.0
    for p in P_VALUES:
        counts, seconds = [0] * len(COLUMNS), 0.0
        for name, poly in polygons:
            t0 = time.perf_counter()
            try:
                est = rigidity_with_refinement(poly, p, levels=LEVELS)
            except ConvergenceError as exc:
                counts[4] += 1
                failures.append(f"{name} p={p}: {exc}")
            else:
                counts[0] += len(est.solutions)
                counts[1] += est.iterations
                counts[2] += sum(s.lagged_steps for s in est.solutions)
                counts[3] += sum(s.backtracks for s in est.solutions)
            seconds += time.perf_counter() - t0
        totals = [a + b for a, b in zip(totals, counts)]
        total_s += seconds
        print(_line(f"{p:g}", counts, seconds))
    print(_line("all", totals, total_s))
    for line in failures:
        print(f"failed: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
