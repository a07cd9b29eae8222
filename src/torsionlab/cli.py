"""Command-line front end.

Subcommands: shape, sweep, verify, pairs, cheeger, limits, estimate-gamma.
Exit codes: 0 success, 1 input error, 2 solver or resource failure,
3 verdict failure. All floating output uses 9 significant digits and is
byte-identical for identical arguments.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, fields

from .cheeger import cheeger_constant, p_to_one_trend
from .errors import (
    ConvergenceError,
    InvalidDomainError,
    MeshResourceError,
    SamplingError,
)
from .families import (
    FAMILIES,
    NORMALIZATIONS,
    FamilySweepConfig,
    PairRow,
    compare_pairs,
    estimate_gamma,
    make_equilateral,
    p_to_infinity_trend,
    sweep,
)
from .functionals import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    build_shape_report,
    dumps_9g,
    format_value,
    report_csv_rows,
)
from .geometry import SHAPE_KINDS, make_rectangle, make_regular_ngon, shape_from_json
from .ptorsion import triangulate, default_h0

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERDICT = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the input-error exit code."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number list {text!r}: expected comma-separated numbers"
        )
    if not values:
        raise argparse.ArgumentTypeError(
            f"invalid number list {text!r}: expected at least one number"
        )
    return values


def _load_spec(text: str):
    """Inline JSON (leading brace) or a path to a JSON file."""
    text = text.strip()
    if text.startswith("{"):
        return shape_from_json(text)
    try:
        with open(text) as fh:
            return shape_from_json(fh.read())
    except OSError as exc:
        raise InvalidDomainError(f"cannot read shape spec file {text!r}: {exc}")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------


def cmd_shape(args) -> int:
    poly = _load_spec(args.spec)
    report = build_shape_report(
        poly,
        args.p,
        levels=args.levels,
        h0=args.h0,
        shape_id=args.shape_id,
        with_cheeger=args.cheeger,
    )
    if args.format == "csv":
        _emit(_csv_text(report_csv_rows(report), CSV_COLUMNS), args.out)
        return EXIT_OK
    doc = {"schema_version": SCHEMA_VERSION, **asdict(report)}
    if args.dump_mesh:
        mesh = triangulate(poly, args.h0 if args.h0 else default_h0(poly))
        doc["mesh"] = mesh.to_json_dict()
    _emit(dumps_9g(doc) + "\n", args.out)
    return EXIT_OK


SWEEP_COLUMNS = CSV_COLUMNS + [
    "family",
    "kappa",
    "ref_q_upper",
    "ref_gamma_bound",
    "ref_T_p",
    "ref_Q_p",
    "ref_rp_over_area",
    "status",
]


def cmd_sweep(args) -> int:
    kwargs = dict(
        family=args.family,
        p_grid=tuple(args.p),
        levels=args.levels,
        h0=args.h0,
        seed=args.seed,
        normalization=args.normalization,
        target=args.target,
    )
    if args.family in ("rectangles", "ellipses"):
        if not args.kappa:
            raise InvalidDomainError(f"--kappa is required for family {args.family}")
        kwargs["kappas"] = tuple(args.kappa)
    elif args.family == "random":
        kwargs["count"] = args.count
    config = FamilySweepConfig(**kwargs)
    rows = sweep(config)
    failed = [r for r in rows if r["status"] != "ok"]
    if failed:
        every = len(failed) == len(rows)
        count = "every row" if every else f"{len(failed)} of {len(rows)} rows"
        sys.stderr.write(f"sweep: {count} failed\n")
        for r in failed:
            sys.stderr.write(f"  {r['shape_id']} p={r['p']}: {r['status']}\n")
        if every:
            return EXIT_SOLVER
    manifest = {
        "schema_version": SCHEMA_VERSION,
        **asdict(config),
        "rows": len(rows),
        "failed_rows": len(failed),
    }
    if args.format == "json":
        doc = {"manifest": manifest, "rows": rows}
        _emit(dumps_9g(doc) + "\n", args.out)
    else:
        _emit(_csv_text(rows, SWEEP_COLUMNS), args.out)
        if args.out:
            with open(args.out + ".manifest.json", "w") as fh:
                fh.write(dumps_9g(manifest) + "\n")
    return EXIT_OK


def _bundled_shapes():
    return [
        ("unit_square", make_rectangle(1.0, 0.5)),
        ("equilateral_triangle", make_equilateral()),
        ("disk_64gon", make_regular_ngon(64, 1.0)),
        ("rectangle_kappa_10", make_rectangle(5.0, 0.5)),
    ]


def cmd_verify(args) -> int:
    if args.spec:
        shapes = [(args.shape_id, _load_spec(args.spec))]
    else:
        shapes = _bundled_shapes()
    lines = []
    failing = []
    for shape_id, poly in shapes:
        report = build_shape_report(
            poly, args.p, levels=args.levels, h0=args.h0, shape_id=shape_id
        )
        for entry in report.rigidity:
            for v in entry.verdicts:
                if not v.passed:
                    failing.append(f"{shape_id} p={format_value(entry.p)} {v.name}")
                lines.append(
                    f"{shape_id:24s} p={format_value(entry.p):>4s} "
                    f"{v.name:28s} value={format_value(v.value):>12s} "
                    f"margin={format_value(v.margin):>12s} "
                    f"{'pass' if v.passed else 'FAIL'}"
                )
    text = "\n".join(lines) + "\n"
    summary = "all corridor checks passed\n"
    if failing:
        summary = "FAILED checks:\n" + "".join(f"  {f}\n" for f in failing)
    _emit(text + summary, args.out)
    return EXIT_VERDICT if failing else EXIT_OK


PAIR_COLUMNS = [f.name for f in fields(PairRow)]


def cmd_pairs(args) -> int:
    study = compare_pairs(
        args.a, args.b, args.p, n_pairs=args.count, seed=args.seed, levels=args.levels
    )
    if args.format == "json":
        _emit(dumps_9g(asdict(study)) + "\n", args.out)
    else:
        _emit(_csv_text([asdict(r) for r in study.rows], PAIR_COLUMNS), args.out)
    if study.guaranteed and not study.all_hold:
        return EXIT_VERDICT
    return EXIT_OK


def cmd_cheeger(args) -> int:
    poly = _load_spec(args.spec)
    res = cheeger_constant(poly)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "h": res.h,
        "r_star": res.r_star,
        "residual": res.residual,
        "q1": poly.inradius * res.h,
        "perimeter_over_area": poly.perimeter / poly.area,
    }
    _emit(dumps_9g(doc) + "\n", args.out)
    return EXIT_OK


def cmd_limits(args) -> int:
    poly = _load_spec(args.spec)
    doc: dict = {"schema_version": SCHEMA_VERSION}
    rows_csv: list[dict] = []
    if args.direction in ("small-p", "both"):
        small = p_to_one_trend(poly, args.p_small, levels=args.levels, h0=args.h0)
        doc["small_p"] = asdict(small)
        rows_csv += [
            dict(direction="small-p", p=r.p, value=r.T_norm, deviation=r.deviation_from_h)
            for r in small.rows
        ]
    if args.direction in ("large-p", "both"):
        large = p_to_infinity_trend(poly, args.p_large, levels=args.levels, h0=args.h0)
        doc["large_p"] = asdict(large)
        rows_csv += [
            dict(direction="large-p", p=r.p, value=r.t_norm_root_times_delta, deviation=r.deviation)
            for r in large.rows
        ]
    if args.format == "csv":
        _emit(_csv_text(rows_csv, ["direction", "p", "value", "deviation"]), args.out)
    else:
        _emit(dumps_9g(doc) + "\n", args.out)
    return EXIT_OK


def cmd_estimate_gamma(args) -> int:
    est = estimate_gamma(p=args.p, count=args.count, seed=args.seed, levels=args.levels)
    _emit(dumps_9g(asdict(est)) + "\n", args.out)
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="torsionlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = "kinds: " + ", ".join(SHAPE_KINDS)
    options = {
        "--spec": dict(required=True, help=f"inline JSON or path to a JSON shape spec; {kinds}"),
        "--levels": dict(type=int, default=3, help="refinement levels"),
        "--h0": dict(type=float, default=None, help="coarse mesh target edge length"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--out": dict(default=None, help="output path (default stdout)"),
        "--shape-id": dict(default="shape"),
    }

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **options[flag])

    ps = sub.add_parser("shape", help="full report for one shape")
    add(ps, *options)
    ps.add_argument("--p", type=_parse_floats, default=(2.0,), help="comma-separated exponents")
    ps.add_argument("--cheeger", action="store_true", help="include the small-p limit constant")
    ps.add_argument("--dump-mesh", action="store_true", help="embed the coarse mesh in JSON output")
    ps.set_defaults(func=cmd_shape)

    pw = sub.add_parser("sweep", help="family sweep with reference columns")
    add(pw, "--levels", "--h0", "--format", "--out")
    pw.add_argument("--family", required=True, choices=FAMILIES)
    pw.add_argument("--kappa", type=_parse_floats, default=None, help="aspect ratios")
    pw.add_argument("--count", type=int, default=10)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--p", type=_parse_floats, default=(2.0,))
    pw.add_argument("--normalization", choices=NORMALIZATIONS, default="none")
    pw.add_argument("--target", type=float, default=1.0)
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="corridor checks with margins")
    add(pv, "--levels", "--h0", "--out", "--shape-id")
    pv.add_argument("--spec", help=f"shape to verify (default: bundled shapes); {kinds}")
    pv.add_argument("--p", type=_parse_floats, default=(1.5, 2.0, 5.0))
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("pairs", help="pairwise rigidity comparison across two inradius classes")
    add(pp, "--levels", "--format", "--out")
    pp.add_argument("--a", type=float, default=0.4, help="inradius of the first class")
    pp.add_argument("--b", type=float, default=1.0, help="inradius of the second class")
    pp.add_argument("--p", type=float, default=2.0)
    pp.add_argument("--count", type=int, default=10, help="number of pairs")
    pp.add_argument("--seed", type=int, default=0)
    pp.set_defaults(func=cmd_pairs)

    pc = sub.add_parser("cheeger", help="small-p limit constant from the exact erosion schedule")
    add(pc, "--spec", "--out")
    pc.set_defaults(func=cmd_cheeger)

    pl = sub.add_parser("limits", help="small-p and large-p trend studies")
    add(pl, "--spec", "--levels", "--h0", "--format", "--out")
    pl.add_argument("--direction", choices=("small-p", "large-p", "both"), default="both")
    pl.add_argument("--p-small", type=_parse_floats, default=(1.2, 1.1, 1.05))
    pl.add_argument("--p-large", type=_parse_floats, default=(8.0, 16.0, 32.0))
    pl.set_defaults(func=cmd_limits)

    pg = sub.add_parser("estimate-gamma", help="empirical comparison-constant estimate")
    add(pg, "--levels", "--out")
    pg.add_argument("--p", type=float, default=2.0)
    pg.add_argument("--count", type=int, default=50)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=cmd_estimate_gamma)

    return parser


@functools.cache
def _parser() -> _Parser:
    """main's one parser, as building one takes 0.6 ms; its list defaults are
    tuples, so that no command can change them for the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidDomainError, SamplingError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (ConvergenceError, MeshResourceError, MemoryError) as exc:
        sys.stderr.write(f"solver error: {str(exc) or 'out of memory'}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
