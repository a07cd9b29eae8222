import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import oracles
import torsionlab
from torsionlab import geometry, ptorsion
from torsionlab.cli import build_parser, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shape_rectangle_example(capsys):
    code, out, _ = run_cli(
        capsys, "shape", "--spec", '{"kind":"rectangle","L":10,"R":0.5}', "--p", "2", "--levels", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert np.isclose(report["geometry"]["inradius"], 0.5, rtol=1e-9)
    # R * P / area = 0.5 * 22 / 10
    geo = report["geometry"]["inradius"] * report["geometry"]["perimeter"] / report["geometry"]["area"]
    assert np.isclose(geo, 1.1, rtol=1e-9)


def test_shape_cheeger_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "shape",
        "--spec",
        '{"kind":"rectangle","L":1,"R":0.5}',
        "--p",
        "2",
        "--levels",
        "2",
        "--cheeger",
    )
    assert code == 0
    report = json.loads(out)
    assert np.isclose(report["limits"]["cheeger_h"], oracles.SQUARE_H, rtol=1e-7)


def test_shape_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "shape",
        "--spec",
        '{"kind":"rectangle","L":1,"R":0.5}',
        "--p",
        "1.5,2",
        "--levels",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:4] == ["shape_id", "p", "area", "perimeter"]
    # all floats printed with at most 9 significant digits
    t_p_col = header.index("T_p")
    for line in lines[1:]:
        digits = line.split(",")[t_p_col].replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 9


def test_shape_nonconvex_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "shape",
        "--spec",
        '{"kind":"polygon","vertices":[[0,0],[2,0],[1,0.2],[0,2]]}',
        "--p",
        "2",
    )
    assert code == 1
    assert "input error" in err


def test_shape_budget_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "shape", "--spec", '{"kind":"rectangle","L":1,"R":0.5}', "--p", "2", "--h0", "5e-4"
    )
    assert code == 2
    assert "solver error" in err


def test_shape_iteration_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(ptorsion, "MAX_ITERS", 1)
    code, _, err = run_cli(
        capsys, "shape", "--spec", '{"kind":"rectangle","L":1,"R":0.5}', "--p", "5", "--levels", "2"
    )
    assert code == 2
    assert "solver error" in err
    assert "did not converge within 1 iterations" in err


def test_shape_deterministic_bytes(capsys):
    argv = ["shape", "--spec", '{"kind":"random","seed":9,"n":10}', "--p", "2", "--levels", "2"]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_shape_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "shape",
        "--spec",
        '{"kind":"rectangle","L":1,"R":0.5}',
        "--p",
        "2",
        "--levels",
        "2",
        "--out",
        str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["schema_version"] == "1"


def test_shape_spec_from_a_file(tmp_path, capsys):
    # --spec without a leading brace is a path to a JSON file
    spec = '{"kind":"random","seed":9,"n":10}'
    path = tmp_path / "spec.json"
    path.write_text(spec)
    argv = ["--p", "2", "--levels", "2"]
    code_file, out_file, _ = run_cli(capsys, "shape", "--spec", str(path), *argv)
    code_inline, out_inline, _ = run_cli(capsys, "shape", "--spec", spec, *argv)
    assert code_file == code_inline == 0
    assert out_file == out_inline
    code, out, err = run_cli(capsys, "shape", "--spec", str(tmp_path / "missing.json"), *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("input error") and "cannot read shape spec file" in err


def test_shape_dump_mesh(capsys):
    spec = '{"kind":"random","seed":9,"n":10}'
    argv = ["shape", "--spec", spec, "--p", "2", "--levels", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "mesh" not in json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--dump-mesh")
    assert code == 0
    block = json.loads(out)["mesh"]
    poly = torsionlab.shape_from_json(spec)
    mesh = ptorsion.triangulate(poly, ptorsion.default_h0(poly))
    assert list(block) == ["nodes", "triangles", "boundary_mask"]
    assert len(block["nodes"]) == len(block["boundary_mask"]) == mesh.n_nodes
    assert len(block["triangles"]) == mesh.n_triangles
    assert sum(block["boundary_mask"]) == int(mesh.boundary_mask.sum())


def test_sweep_cell_count(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--family",
        "rectangles",
        "--kappa",
        "2,10",
        "--p",
        "1.5,2",
        "--levels",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("shape_id,")
    assert "family" in lines[0] and "status" in lines[0]


def test_sweep_manifest_sidecar(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--family",
        "random",
        "--count",
        "2",
        "--seed",
        "7",
        "--p",
        "2",
        "--levels",
        "2",
        "--format",
        "csv",
        "--out",
        str(target),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["count"] == 2
    assert target.read_text().startswith("shape_id,")


def test_sweep_byte_identical(capsys):
    argv = [
        "sweep", "--family", "random", "--count", "2", "--seed", "7",
        "--p", "2", "--levels", "2", "--format", "csv",
    ]
    _, out_a, _ = run_cli(capsys, *argv)
    _, out_b, _ = run_cli(capsys, *argv)
    assert out_a == out_b


def test_sweep_every_row_failed_exit_2(capsys, monkeypatch):
    # a budget no p = 5 solve meets fails every row, which is a solver failure
    monkeypatch.setattr(ptorsion, "MAX_ITERS", 1)
    code, out, err = run_cli(
        capsys, "sweep", "--family", "random", "--count", "2", "--p", "5", "--levels", "2"
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "sweep: every row failed"
    assert len(lines) == 3
    for line, shape_id in zip(lines[1:], ("random_0_0", "random_0_1")):
        assert line.startswith(f"  {shape_id} p=5.0: solver failure:")


def test_verify_default_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--levels", "2")
    assert code == 0
    assert "all corridor checks passed" in out


def test_verify_corrupted_slack_exit_3(capsys, monkeypatch):
    # a negative slack fails every solver-based check, however large its margin
    monkeypatch.setattr(ptorsion.RigidityEstimate, "slack", property(lambda self: -1e9))
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--levels", "2")
    assert code == 3
    assert "FAILED checks" in out
    # the summary names the failing inequality
    assert any(name in out for name in ("rigidity", "window", "saint_venant"))


def test_verify_pairs_table(capsys):
    argv = ["pairs", "--a", "0.4", "--b", "1", "--p", "2", "--levels", "2", "--count", "2"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,t_norm_a,t_norm_b,margin,slack,status"
    assert len(lines) == 1 + 2
    # the JSON report is written from the PairStudy/PairRow fields: pin the keys
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "a", "b", "p", "dimension", "guaranteed", "corridor_upper_b", "corridor_lower_a", "rows",
    ]
    assert data["dimension"] == 2
    assert len(data["rows"]) == 2
    for row in data["rows"]:
        assert list(row) == ["index", "t_norm_a", "t_norm_b", "margin", "slack", "status"]


def test_pairs_violated_exit_3(capsys, monkeypatch):
    # a <= b / 2 guarantees the pair; a negative slack turns its row violated
    monkeypatch.setattr(ptorsion.RigidityEstimate, "slack", property(lambda self: -1e9))
    argv = ["pairs", "--a", "0.4", "--b", "1", "--p", "2", "--levels", "2", "--count", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    data = json.loads(out)
    assert data["guaranteed"] is True
    assert [row["status"] for row in data["rows"]] == ["violated"]


def test_cheeger_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cheeger", "--spec", '{"kind":"rectangle","L":1,"R":0.5}')
    assert code == 0
    data = json.loads(out)
    assert np.isclose(data["h"], oracles.SQUARE_H, rtol=1e-9)
    assert np.isclose(data["q1"], 0.5 * oracles.SQUARE_H, rtol=1e-9)
    assert data["h"] <= data["perimeter_over_area"] + 1e-12


SQUARE_SPEC = '{"kind":"rectangle","L":1,"R":0.5}'

UNREAD_FLAGS = [
    # cheeger solves nothing, so it takes no refinement flags
    (["cheeger", "--spec", SQUARE_SPEC], ["--levels", "3"]),
    # the iteration budget is the constant ptorsion.MAX_ITERS
    (["shape", "--spec", SQUARE_SPEC], ["--max-iters", "5"]),
    (["limits", "--spec", SQUARE_SPEC], ["--max-iters", "5"]),
    # verify prints each verdict's own pass flag, as text
    (["verify"], ["--slack-factor", "2"]),
    (["verify"], ["--format", "csv"]),
    # the pair comparison is its own subcommand, at the default mesh size
    (["verify"], ["--pairs"]),
    (["pairs"], ["--h0", "0.1"]),
]


@pytest.mark.parametrize(
    "argv, unread", UNREAD_FLAGS, ids=[f"{argv[0]} {unread[0]}" for argv, unread in UNREAD_FLAGS]
)
def test_unread_flags_rejected(capsys, argv, unread):
    code, _, err = run_cli(capsys, *argv, *unread)
    assert code == 1
    assert f"unrecognized arguments: {' '.join(unread)}" in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind":"triangle","points":[[0,0]]}',
        '{"kind":"triangle","points":5}',
        '{"kind":"random","seed":1.5}',
        '{"kind":"random","seed":"x"}',
        '{"kind":"rectangle","L":null,"R":1}',
        '{"kind":"regular_ngon","n":[3]}',
        '{"kind":"regular_ngon","n":6.9}',
        '{"kind":"ellipse_polygon","a":2,"b":1,"n":64.5}',
        '{"kind":"random","seed":1,"n":10.5}',
        '{"kind":"rectangle","L":true,"R":1}',
        '{"kind":"regular_ngon","n":"6"}',
        '{"kind":"rectangle","L":"2","R":1}',
        '{"kind":"regular_ngon","n":NaN}',
        '{"kind":"ellipse_polygon","a":2,"b":1,"n":NaN}',
        '{"kind":"random","seed":1,"n":NaN}',
    ],
    ids=["triangle-one-point", "triangle-points-int", "random-seed-float", "random-seed-str",
         "rectangle-L-null", "ngon-n-list", "ngon-n-float", "ellipse-n-float",
         "random-n-float", "rectangle-L-bool", "ngon-n-str", "rectangle-L-str",
         "ngon-n-nan", "ellipse-n-nan", "random-n-nan"],
)
def test_malformed_spec_input_error(capsys, spec):
    # a count must be an integer and a length a number: n = 6.9 is not read
    # as 6, nor true as 1.0, nor a string as the number it spells; JSON NaN
    # is no count either
    code, _, err = run_cli(capsys, "cheeger", "--spec", spec)
    assert code == 1
    assert err.startswith("input error")
    assert json.loads(spec)["kind"] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ['["rectangle"]', "{}"])
def test_non_string_kind_input_error(capsys, kind):
    spec = f'{{"kind":{kind}}}'
    code, _, err = run_cli(capsys, "cheeger", "--spec", spec)
    assert code == 1
    assert err.startswith("input error: unknown shape kind")
    assert "Traceback" not in err


_ANGLES = np.linspace(0.0, 2.0 * np.pi, 2049, endpoint=False)
POLYGON_2049 = json.dumps(
    {"kind": "polygon", "vertices": np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], 1).tolist()}
)


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"kind":"regular_ngon","n":1e400}', "cannot convert float infinity"),
        ('{"kind":"ellipse_polygon","a":2,"b":1,"n":1e400}', "cannot convert float infinity"),
        ('{"kind":"random","seed":1,"n":1e400}', "cannot convert float infinity"),
        ('{"kind":"regular_ngon","n":1000000}', "needs n <= MAX_VERTICES = 2048"),
        ('{"kind":"ellipse_polygon","a":2,"b":1,"n":1000000}', "needs n <= MAX_VERTICES = 2048"),
        (POLYGON_2049, "at most MAX_VERTICES = 2048 vertices"),
    ],
    ids=["ngon-n-inf", "ellipse-n-inf", "random-n-inf", "ngon-n-1e6", "ellipse-n-1e6",
         "polygon-2049"],
)
def test_oversized_spec_input_error(capsys, spec, message):
    # JSON 1e400 is inf; a vertex count over MAX_VERTICES is refused before
    # the diameter's pdist holds its n (n - 1) / 2 distances (4 TB at n = 1e6)
    code, _, err = run_cli(capsys, "cheeger", "--spec", spec)
    assert code == 1
    assert err.startswith("input error") and message in err
    assert "Traceback" not in err


def test_overflowing_spec_input_error(capsys):
    # the squared distances of these vertices overflow, so the diameter is inf
    spec = '{"kind":"polygon","vertices":[[0,0],[1e160,0],[0,1e160]]}'
    code, _, err = run_cli(capsys, "cheeger", "--spec", spec)
    assert code == 1
    assert err == "input error: the vertex coordinates are too large: the diameter overflows\n"


_STAR_ANGLES = 2.0 * np.pi * np.array([0, 2, 4, 1, 3]) / 5
PENTAGRAM_SPEC = json.dumps(
    {"kind": "polygon", "vertices": np.stack([np.cos(_STAR_ANGLES), np.sin(_STAR_ANGLES)], 1).tolist()}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["shape", "--p", "2", "--levels", "2"],
        ["verify", "--p", "2", "--levels", "2"],
        ["cheeger"],
        ["limits", "--levels", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_winding_spec_input_error(capsys, argv):
    # the pentagram's five left turns wind twice; it is no convex polygon
    code, _, err = run_cli(capsys, *argv, "--spec", PENTAGRAM_SPEC)
    assert code == 1
    assert err == "input error: the vertices wind 2 times, not once\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 14.9 GiB"), "Unable to allocate 14.9 GiB"),
        (MemoryError(), "out of memory"),
    ],
)
def test_out_of_memory_exit_2(capsys, monkeypatch, exc, message):
    # a random spec's point count is not capped, since the hull of many
    # points has few vertices; one too large to allocate is a resource failure
    def allocate(*args):
        raise exc

    monkeypatch.setattr(geometry, "random_convex_polygon", allocate)
    code, _, err = run_cli(capsys, "cheeger", "--spec", '{"kind":"random","seed":1,"n":2e9}')
    assert code == 2
    assert err == f"solver error: {message}\n"


EMPTY_LISTS = [
    ["verify", "--p", ","],
    ["sweep", "--family", "random", "--count", "1", "--p", ","],
    ["limits", "--spec", SQUARE_SPEC, "--p-small", ","],
    ["sweep", "--family", "rectangles", "--kappa", ","],
]


@pytest.mark.parametrize("argv", EMPTY_LISTS, ids=[" ".join(a[-2:]) for a in EMPTY_LISTS])
def test_empty_number_list_input_error(capsys, argv):
    # an empty list would check nothing and report success
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"{argv[-2]}: invalid" in err
    assert "_parse_floats" not in err
    assert "expected at least one number" in err


def test_malformed_number_list_input_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "1,x")
    assert code == 1
    assert out == ""
    assert "--p: invalid number list '1,x': expected comma-separated numbers" in err
    assert "_parse_floats" not in err


def test_estimate_gamma_takes_one_p(capsys):
    code, _, err = run_cli(capsys, "estimate-gamma", "--p", "2,7", "--count", "1", "--levels", "2")
    assert code == 1
    assert "invalid float value: '2,7'" in err


def test_readme_commands_parse():
    # every torsionlab line of the README's CLI block parses; nothing is solved
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("torsionlab ")]
    assert len({shlex.split(c)[1] for c in commands}) == 7
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        assert args.func.__name__ == "cmd_" + args.command.replace("-", "_")


def test_limits_large_p(capsys):
    code, out, _ = run_cli(
        capsys,
        "limits",
        "--spec",
        '{"kind":"rectangle","L":1,"R":0.5}',
        "--direction",
        "large-p",
        "--p-large",
        "4,8",
        "--levels",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["direction", "p", "value"]
    assert len(lines) == 3


def test_estimate_gamma_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "estimate-gamma", "--count", "2", "--seed", "1", "--levels", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert 0.0 < data["gamma_hat"] <= 1.0
    assert data["is_upper_bound"] is True
    assert "label" in data
    # the JSON report is written from the GammaEstimate/FamilyCheck fields: pin the keys
    assert list(data) == [
        "p", "dimension", "alpha_hat", "beta_hat", "gamma_hat", "alpha_shape", "beta_shape",
        "n_samples", "is_upper_bound", "label", "manifest", "family_checks", "samples",
    ]
    assert data["dimension"] == 2
    checks = data["family_checks"]
    assert [c["family"] for c in checks] == ["rectangles", "triangles", "ellipses"]
    assert [c["members"] for c in checks] == [
        ["kappa=2", "kappa=10", "kappa=1000"],
        ["equilateral", "right_isosceles"],
        ["kappa=1 (disk)", "kappa=2"],
    ]
    for c in checks:
        assert list(c) == [
            "family", "members", "measured_ratio", "bound", "bound_exact", "tolerance", "passed",
        ]


def test_cli_import_leaves_out_scipy_optimize():
    # the inradius comes from the erosion schedule, so no optimizer loads
    src = str(pathlib.Path(torsionlab.__file__).parents[1])
    code = "import sys, torsionlab.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_unknown_flag_exit_1(capsys):
    code, _, err = run_cli(capsys, "shape", "--no-such-flag")
    assert code == 1


def test_p_out_of_range_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "shape", "--spec", '{"kind":"rectangle","L":1,"R":0.5}', "--p", "1.0"
    )
    assert code == 1
    assert "input error" in err


def test_sweep_partly_failed_rows_on_stderr(capsys, monkeypatch):
    # T_p that does not change from level 0 to level 1 has no error
    # estimate; the refinement study raises, and the sweep's p = 3 row fails
    # while the p = 2 row does not. Stdout and the exit code are those of a
    # sweep without failures; stderr names the failed row.
    solve = ptorsion.solve_p_torsion

    def stalled(mesh, p, start, **kw):
        sol = solve(mesh, p, start=start, **kw)
        if p == 3.0:
            sol.t_p = 1.0
        return sol

    monkeypatch.setattr(ptorsion, "solve_p_torsion", stalled)
    code, out, err = run_cli(
        capsys, "sweep", "--family", "random", "--count", "1", "--p", "2,3", "--levels", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2 and rows[0].endswith(",ok")
    assert "did not change from level 0 to level 1" in rows[1]
    lines = err.splitlines()
    assert lines[0] == "sweep: 1 of 2 rows failed"
    assert len(lines) == 2
    assert lines[1].startswith("  random_0_0 p=3.0: solver failure: refinement study (p=3.0)")
