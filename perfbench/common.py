"""Helpers shared by the benchmark's scripts: locating the package source,
scratch space inside the checkout, child processes, the CSV format and the
environment block."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
RESULTS = BENCH_DIR / "results"

CHILD_TIMEOUT_S = 120.0

# CLI CSV columns; wall_ms is a measured duration and never compared.
RESULT_COLUMNS = ("example", "p", "N", "M", "q", "seed", "sample_mode",
                  "Y0", "Z0", "U0", "exactY0", "exactZ0", "exactU0",
                  "errY", "errZ", "errU")


class BenchError(RuntimeError):
    """The benchmark itself cannot run or measure (not a program failure)."""


def require_source() -> None:
    if not (SRC / "chaosbsde" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")


def work_dir() -> tempfile.TemporaryDirectory:
    """Scratch directory inside the checkout, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_ROOT)


def child_env() -> dict[str, str]:
    """Inherited environment (BLAS thread settings untouched) with the
    checkout's source first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], what: str) -> subprocess.CompletedProcess:
    """Run a Python child to completion (killed on timeout) and return it."""
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    return proc


def last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def read_csv(path: str) -> list[dict[str, str]]:
    """Rows of a CLI results CSV, keyed by its header (no quoting in this
    format)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def result_columns(row: dict[str, str]) -> str:
    return ",".join(row[c] for c in RESULT_COLUMNS)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_s() -> float | None:
    """Seconds of CPU stolen from this machine by its host since boot, over
    all CPUs (``/proc/stat``); a rise during a run marks it as noisy."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    """Environment block recorded with every result; the caller adds
    ``loadavg_after`` and ``steal_s_during`` when the run ends."""
    import numpy as np
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_before": list(os.getloadavg()),
        "steal_s_before": steal_s(),
    }
