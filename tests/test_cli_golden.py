"""Byte-identity of CLI stdout against committed golden files.

Each command runs in process and its stdout must equal `golden/<name>.txt`
byte for byte. A change that moves CLI bytes must regenerate the affected
files and name the change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from torsionlab.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "verify_p2": ["verify", "--p", "2", "--levels", "2"],
    "shape_64gon": [
        "shape", "--spec", '{"kind":"regular_ngon","n":64}',
        "--p", "1.5,2,32", "--levels", "2", "--cheeger",
    ],
    "limits_large_p": [
        "limits", "--spec", '{"kind":"random","seed":[1,0]}',
        "--direction", "large-p", "--p-large", "10,32", "--levels", "2",
    ],
    "limits_small_p": [
        "limits", "--spec", '{"kind":"random","seed":[1,0]}',
        "--direction", "small-p", "--levels", "2",
    ],
    "sweep_random": [
        "sweep", "--family", "random", "--count", "2", "--p", "2,10",
        "--levels", "2", "--format", "json",
    ],
    "sweep_triangles": [
        "sweep", "--family", "triangles", "--p", "2", "--levels", "2", "--format", "json",
    ],
    "sweep_ellipses_csv": [
        "sweep", "--family", "ellipses", "--kappa", "1,2", "--p", "2", "--levels", "2",
        "--format", "csv",
    ],
    "sweep_rectangles_csv": [
        "sweep", "--family", "rectangles", "--kappa", "2,10", "--p", "2,5", "--levels", "2",
        "--format", "csv",
    ],
    "verify_pairs": [
        "pairs", "--count", "2", "--p", "3", "--levels", "2", "--format", "json",
    ],
    "estimate_gamma": ["estimate-gamma", "--count", "2", "--levels", "2"],
    "cheeger_random": ["cheeger", "--spec", '{"kind":"random","seed":[3,4]}'],
}


def run_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert run_stdout(COMMANDS[name]) == expected, (
        f"stdout of {' '.join(COMMANDS[name])} differs from golden/{name}.txt"
    )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(COMMANDS):
        (GOLDEN_DIR / f"{name}.txt").write_text(run_stdout(COMMANDS[name]))
        print(f"wrote golden/{name}.txt")
