"""The benchmark's call surface: ``perfbench/worker.py`` set-up and traced
runs on a tiny example1 config. An API change that breaks the benchmark
then fails here, not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SPANS = {"chaos_core.estimate", "chaos_eval.evaluate_grid",
         "stochastic_grid.sample_paths", "picard_solver.terminal_samples",
         "picard_solver.driver", "benchmarks.exact_grid", "benchmarks.error_norm"}


def run_worker(mode, cfg):
    proc = subprocess.run([sys.executable, str(WORKER), mode, str(cfg), "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_setup_and_trace_modes(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"example = example1\nN = 3\np = 2\nq = 1\nM = 300\n"
                   f"out = {tmp_path / 'out.csv'}\n", encoding="utf-8")
    setup = run_worker("setup", cfg)
    assert setup["setup"]["J"] == 27
    traced = run_worker("trace", cfg)
    assert traced["rc"] == 0
    assert traced["setup"]["J"] == 27
    assert SPANS <= {call["name"] for call in traced["calls"]}
