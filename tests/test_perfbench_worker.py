"""The benchmark's call surface: ``perfbench/worker.py`` set-up and traced
runs on a tiny example1 config, at p = 2 (the pair kernels) and p = 3 (the
prefix kernels). An API change that breaks the benchmark, or a kernel
rewrite that changes what the worker wraps, then fails here, not only in a
benchmark run."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SPANS = {"chaos_core.estimate", "chaos_eval.evaluate_grid",
         "stochastic_grid.sample_paths", "picard_solver.terminal_samples",
         "picard_solver.driver", "benchmarks.exact_grid", "benchmarks.error_norm"}


def run_worker(mode, cfg):
    proc = subprocess.run([sys.executable, str(WORKER), mode, str(cfg), "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("p, J", [(2, 27), (3, 83)])
def test_setup_and_trace_modes(tmp_path, p, J):
    q = 1
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"example = example1\nN = 3\np = {p}\nq = {q}\nM = 300\n"
                   f"out = {tmp_path / 'out.csv'}\n", encoding="utf-8")
    setup = run_worker("setup", cfg)
    assert setup["setup"]["J"] == J
    traced = run_worker("trace", cfg)
    assert traced["rc"] == 0
    assert traced["setup"]["J"] == J
    calls = traced["calls"]
    assert SPANS <= {call["name"] for call in calls}
    # One estimate and one evaluation per Picard iteration of each solve.
    solves = [call["run"] for call in calls if call["name"] == "picard_solver.solve"]
    assert solves
    for name in ("chaos_core.estimate", "chaos_eval.evaluate_grid"):
        per_solve = Counter(call["run"] for call in calls if call["name"] == name)
        assert [per_solve[run] for run in solves] == [q] * len(solves), name
