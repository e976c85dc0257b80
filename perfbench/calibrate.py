"""Evidence for the workloads' Y0 tolerances.

Runs the unmodified CLI once per workload as a seed sweep over solver seeds
1..12 at the workload's own size, and prints the relative error of Y0
against the closed form: per seed, its mean and sample standard deviation,
and the tolerance rule's value |mean| + 6 sd rounded up to two significant
digits. Copy the result into README.md and ``workloads.py`` by hand.

    python3 perfbench/calibrate.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

from common import BenchError, read_csv, require_source, run_child, work_dir
from workloads import WORKLOADS

SEEDS = list(range(1, 13))


def _round_up(x: float, digits: int = 2) -> float:
    scale = 10 ** (digits - 1 - math.floor(math.log10(x)))
    return math.ceil(x * scale) / scale


def calibrate(name: str) -> dict:
    w = WORKLOADS[name]
    with work_dir() as tmp:
        out = f"{tmp}/cal.csv"
        cfg = f"{tmp}/cal.cfg"
        text = w.sweep_text(SEEDS, out)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        # threads=1: thread counts never change values, and one thread is
        # fastest for a sequential sweep.
        proc = run_child(["-m", "chaosbsde.cli", "--config", cfg, "--threads", "1"],
                         f"calibration CLI for {name}")
        if proc.returncode != 0:
            raise BenchError(f"calibration CLI for {name} failed:\n{proc.stderr}")
        rows = read_csv(out)
    exact = w.exact_y0()
    rel = {int(r["seed"]): (float(r["Y0"]) - exact) / exact for r in rows}
    errs = list(rel.values())
    mean = statistics.fmean(errs)
    sd = statistics.stdev(errs)
    return {"workload": name, "exact_y0": exact, "seeds": SEEDS,
            "rel_err": rel, "mean": mean, "sd": sd,
            "max_abs": max(abs(e) for e in errs),
            "tolerance_rule": _round_up(abs(mean) + 6 * sd),
            "tolerance_used": w.y0_rel_tol}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    try:
        require_source()
        for name in [args.workload] if args.workload else list(WORKLOADS):
            print(json.dumps(calibrate(name)), flush=True)
    except BenchError as exc:
        print(f"calibrate: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
