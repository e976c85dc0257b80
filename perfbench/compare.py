"""Compare two benchmark result records, or two directories of them.

    python3 perfbench/compare.py BEFORE AFTER

Each argument is a record written by ``run.py`` (``perfbench/results/*.json``)
or a directory of records. Records are grouped by (workload, trace) and each
metric's values, one per record, are summarised on each side by their median
and interquartile range as a share of the median. The last column is the
after/before ratio of the medians: above 1 is slower (or larger) after.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    groups: dict = defaultdict(lambda: defaultdict(list))
    for f in files:
        rec = json.loads(f.read_text())
        if "metrics" not in rec:
            continue  # check-mode output
        for name, m in rec["metrics"].items():
            groups[(rec["workload"], rec["trace"])][name].append(m["value"])
    return groups


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return f"{med:12.6g}         "
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:12.6g} ±{(q3 - q1) / abs(med):6.1%}"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): {len(next(iter(before[key].values())))} "
              f"vs {len(next(iter(after[key].values())))} records")
        print(f"{'metric':48s} {'before (IQR)':>21s} {'after (IQR)':>21s}  after/before")
        for name in before[key]:
            if name not in after[key]:
                continue
            a, b = before[key][name], after[key][name]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:8.3f}" if ma else "     n/a"
            print(f"{name:48s} {summary(a)} {summary(b)}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
