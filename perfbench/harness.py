"""Process settings, set-up and the environment block, shared by run.py
and setup_probe.py."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

# One BLAS thread: the box has two cores shared with other work, and the
# sparse LU the program spends its time in gains nothing from more.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin the BLAS thread count and put the checkout's sources first on
    sys.path. Runs before numpy is imported; exits if there is no program."""
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no torsionlab sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Temporary directory for command outputs, inside the checkout."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=RESULTS)


def set_up(seed: int, out_dir: Path):
    """Import the program and run the warm-up command, which reaches every
    layer once. Returns the seconds this took and the cli module."""
    t0 = time.perf_counter()
    from torsionlab import cli

    code = cli.main(workloads.probe_argv(seed, str(Path(out_dir) / "warmup.json")))
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"warm-up command exited with {code}")
    return seconds, cli


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _git_commit():
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Identifies the measured code where the checkout has no git history."""
    h = hashlib.sha256()
    for path in sorted((SRC / "torsionlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None
