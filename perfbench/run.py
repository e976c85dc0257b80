"""Benchmark of the chaosbsde solver: end-to-end metrics of CLI runs, and a
traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check [--workload NAME] [--seed N]

``--trace 0`` times set-up in fresh processes, then runs the workload's CLI
config in fresh child processes, one after another, until S seconds have
passed (at least three), and reports medians. ``--trace 1`` runs one plain,
one span-traced and one tracemalloc child and reports per-layer metrics.
Every run checks the CLI's results (finite, Y0 within the workload's
tolerance of the closed form, identical across the run's children).

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the full record, with the
environment block and every sample, goes to ``perfbench/results/``. Exit
status: 0 correct, 1 a correctness check failed, 2 the benchmark could not
run (nothing printed).

``--check`` runs, outside any timing, for each workload: the unmodified
``python -m chaosbsde.cli`` against the benchmark's wrapped CLI (result
columns byte for byte), and threads 1 against 2 (SHA-256 of Y/Z/U, which
must match and is recorded next to the inherited BLAS thread setting).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

from common import (
    RESULTS, ROOT, BenchError, environment, last_json_line, read_csv,
    require_source, result_columns, run_child, steal_s, work_dir,
)
from workloads import WORKLOADS

MIN_CHILDREN = 3     # full CLI runs per untraced run, whatever --seconds says
SETUP_REPEATS = 5    # set-up-only children, after one discarded warm-up
EXACT_REL_TOL = 1e-12
FLOAT_COLUMNS = ("Y0", "Z0", "U0", "exactY0", "exactZ0", "exactU0",
                 "errY", "errZ", "errU")
LAYERS = ("stochastic_grid.sample_paths", "picard_solver.terminal_samples",
          "picard_solver.driver", "chaos_core.estimate", "chaos_eval.evaluate_grid")


def _worker(mode: str, cfg: str, threads: int) -> tuple[dict, float]:
    """Run one worker child; returns its result and its spawn-to-exit time."""
    t0 = time.perf_counter()
    proc = run_child([str(Path(__file__).with_name("worker.py")), mode, cfg,
                      str(threads)], f"{mode} worker")
    wall = time.perf_counter() - t0
    return last_json_line(proc, f"{mode} worker"), wall


def _median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("no samples")
    return statistics.median(values)


def check_children(w, seed: int, children: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over the children's sweep points,
    plus every problem found. A point fails on a missing row, a non-finite
    output, a wrong closed form or Y0 outside the workload's tolerance."""
    seeds = w.point_seeds(seed)
    exact = w.exact_y0()
    attempted = failed = 0
    problems: list[str] = []
    for c, child in enumerate(children):
        rows, points = child["rows"], child["points"]
        if child["rc"] != 0:
            problems.append(f"child {c}: CLI exited {child['rc']}")
        for i, s in enumerate(seeds):
            attempted += 1
            if i >= len(rows) or i >= len(points):
                failed += 1
                problems.append(f"child {c} point {i}: no result")
                continue
            row = rows[i]
            values = {k: float(row[k]) for k in FLOAT_COLUMNS}
            rel = abs(values["Y0"] - exact) / exact
            bad = []
            if int(row["seed"]) != s:
                bad.append(f"seed {row['seed']} != {s}")
            if not points[i].get("finite") or not all(map(math.isfinite, values.values())):
                bad.append("non-finite output")
            if abs(values["exactY0"] - exact) > EXACT_REL_TOL * exact:
                bad.append(f"exactY0 {values['exactY0']!r} != closed form {exact!r}")
            if not rel <= w.y0_rel_tol:
                bad.append(f"|Y0 - exact|/exact = {rel:.4g} > {w.y0_rel_tol}")
            if bad:
                failed += 1
                problems.append(f"child {c} point {i}: " + "; ".join(bad))
    texts = {"\n".join(map(result_columns, ch["rows"])) for ch in children}
    if len(texts) > 1:
        problems.append("result columns differ between identical CLI runs")
    return attempted, failed, problems


def _solve_samples(children: list[dict]) -> tuple[list[float], list[float]]:
    pts = [p for ch in children for p in ch["points"] if "solve_s" in p]
    return ([p["draw_s"] + p["solve_s"] for p in pts],
            [p["draw_cpu_s"] + p["solve_cpu_s"] for p in pts])


def untraced(w, cfg: str, seconds: float) -> tuple[dict, list[dict], dict]:
    setups = [_worker("setup", cfg, w.threads)[0] for _ in range(1 + SETUP_REPEATS)][1:]
    children, walls = [], []
    start = time.perf_counter()
    while len(children) < MIN_CHILDREN or time.perf_counter() - start < seconds:
        child, wall = _worker("plain", cfg, w.threads)
        children.append(child)
        walls.append(wall)
    solve, cpu = _solve_samples(children)
    samples = {"setup_s": [s["setup"]["total_s"] for s in setups + children],
               "solve_s": solve, "solve_cpu_s": cpu, "run_s": walls,
               "peak_rss_mb": [ch["maxrss_mb"] for ch in children]}
    metrics = {name: _median(vals) for name, vals in samples.items()}
    return metrics, children, samples


def _layer_calls(w, trace: dict, memory: dict) -> dict[tuple[str, str], list[list[dict]]]:
    """Calls of each layer grouped per solve, checked against the expected
    per-solve counts; a missing layer or a wrong count is an error."""
    n_points = len(trace["points"])
    expected = w.expected_calls()
    grouped: dict[tuple[str, str], list[list[dict]]] = {}
    for label, child, names in (("traced", trace, LAYERS),
                                ("memory", memory, ("stochastic_grid.sample_paths",
                                                    "chaos_core.estimate",
                                                    "chaos_eval.evaluate_grid"))):
        if len(child["points"]) != len(w.point_seeds(0)):
            raise BenchError(f"{label} run solved {len(child['points'])} points")
        for name in names:
            per_run = [[r for r in child["calls"] if r["name"] == name and r["run"] == k]
                       for k in range(n_points)]
            counts = [len(calls) for calls in per_run]
            if any(n != expected[name] for n in counts):
                raise BenchError(
                    f"{label} run: layer {name} recorded {counts} calls per solve, "
                    f"expected {expected[name]}; was it renamed, inlined or "
                    f"bypassed?")
            grouped[(label, name)] = per_run
    return grouped


def traced(w, cfg: str) -> tuple[dict, list[dict], dict]:
    plain, _ = _worker("plain", cfg, w.threads)
    trace, _ = _worker("trace", cfg, w.threads)
    memory, _ = _worker("memory", cfg, w.threads)
    calls = _layer_calls(w, trace, memory)
    spans = trace["calls"]
    n = len(trace["points"])

    def dur(r):
        return r["end"] - r["start"]

    def per_solve(name, key=dur):
        return sum(key(r) for run in calls[("traced", name)] for r in run) / n

    def peak(name):
        return max(r["peak_mb"] for run in calls[("memory", name)] for r in run)

    def rate(name):
        return (sum(r["work"]["coef_samples"] for run in calls[("traced", name)] for r in run)
                / (per_solve(name) * n))

    def total(name):
        return sum(dur(r) for r in spans if r["name"] == name)

    solve_spans = [r for r in spans if r["name"] == "picard_solver.solve"]
    child_time = {}
    for r in spans:
        if r["parent"] is not None:
            child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + dur(r)
    self_s = sum(dur(r) - child_time.get(r["id"], 0.0) for r in solve_spans) / n
    first = trace["rows"][0]
    setup = trace["setup"]
    est_calls = calls[("traced", "chaos_core.estimate")][0]
    ev_calls = calls[("traced", "chaos_eval.evaluate_grid")][0]
    samp = calls[("traced", "stochastic_grid.sample_paths")][0][0]
    metrics = {
        "stochastic_grid.sample_paths.s": per_solve("stochastic_grid.sample_paths"),
        "stochastic_grid.sample_paths.mb_computed": samp["work"]["bytes"] / 1e6,
        "stochastic_grid.sample_paths.peak_mb": peak("stochastic_grid.sample_paths"),
        "picard_solver.terminal_samples.s": per_solve("picard_solver.terminal_samples"),
        "picard_solver.driver.s": per_solve("picard_solver.driver"),
        "picard_solver.driver.calls": per_solve("picard_solver.driver", lambda r: 1),
        "picard_solver.solve.self_s": self_s,
        "chaos_core.estimate.s": per_solve("chaos_core.estimate"),
        "chaos_core.estimate.calls": len(est_calls),
        "chaos_core.estimate.coef_samples_per_s": rate("chaos_core.estimate"),
        "chaos_core.estimate.peak_mb": peak("chaos_core.estimate"),
        "chaos_eval.evaluate_grid.s": per_solve("chaos_eval.evaluate_grid"),
        "chaos_eval.evaluate_grid.calls": len(ev_calls),
        "chaos_eval.evaluate_grid.coef_samples_per_s": rate("chaos_eval.evaluate_grid"),
        "chaos_eval.evaluate_grid.out_mb_computed": ev_calls[0]["work"]["out_bytes"] / 1e6,
        "chaos_eval.evaluate_grid.peak_mb": peak("chaos_eval.evaluate_grid"),
        **trace["threads_s"],
        "chaos_core.basis.s": setup["basis_s"],
        "chaos_core.basis.J": setup["J"],
        "cli.parse_config.s": setup["parse_config_s"],
        "setup.import_s": setup["import_s"],
        "benchmarks.report.s": (total("benchmarks.exact_grid")
                                + total("benchmarks.error_norm")) / n,
        "trace.overhead_s": (_median(_solve_samples([trace])[0])
                             - _median(_solve_samples([plain])[0])),
        "err_y0": abs(float(first["Y0"]) - w.exact_y0()),
        "err_grid": float(first["errY"]) + float(first["errZ"]) + float(first["errU"]),
    }
    samples = {"spans": spans, "memory_calls": memory["calls"],
               "solve_s": {"plain": _solve_samples([plain])[0],
                           "traced": _solve_samples([trace])[0]}}
    return metrics, [plain, trace, memory], samples


def _finish(env: dict) -> None:
    env["loadavg_after"] = list(os.getloadavg())
    before, after = env.pop("steal_s_before"), steal_s()
    env["steal_s_during"] = None if before is None or after is None else after - before


def _declared_metrics(trace: int) -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _write_config(w, seed: int, tmp: str) -> str:
    cfg = os.path.join(tmp, "workload.cfg")
    Path(cfg).write_text(w.config_text(seed, os.path.join(tmp, "out.csv")),
                         encoding="utf-8")
    return cfg


def bench(args) -> int:
    w = WORKLOADS[args.workload]
    declared = _declared_metrics(args.trace)
    env = environment()
    with work_dir() as tmp:
        cfg = _write_config(w, args.seed, tmp)
        if args.trace:
            values, children, samples = traced(w, cfg)
        else:
            values, children, samples = untraced(w, cfg, args.seconds)
    _finish(env)
    if set(values) != set(declared):
        raise BenchError(f"measured metrics {sorted(set(values) ^ set(declared))} "
                         f"do not match BENCHMARK.json")
    attempted, failed, problems = check_children(w, args.seed, children)
    correct = failed == 0 and not problems
    metrics = {k: {"value": float(values[k]), "unit": declared[k]} for k in declared}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": w.config_text(args.seed, "out.csv"),
              "environment": env, "metrics": metrics, "samples": samples,
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for p in problems:
        print(f"run: {p}", file=sys.stderr)
    print(f"run: full record in {out}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def check(args) -> int:
    """Reproduction and thread-determinism checks (not timed)."""
    env = environment()
    ok = True
    records = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        w = WORKLOADS[name]
        with work_dir() as tmp:
            cfg = _write_config(w, args.seed, tmp)
            ref = os.path.join(tmp, "cli.csv")
            proc = run_child(["-m", "chaosbsde.cli", "--config", cfg, "--out", ref,
                              "--threads", str(w.threads)], "unmodified CLI")
            if proc.returncode != 0:
                raise BenchError(f"unmodified CLI exited {proc.returncode}:\n{proc.stderr}")
            ref_rows = read_csv(ref)
            hashed, _ = _worker("hash", cfg, w.threads)
        same_csv = ([result_columns(r) for r in ref_rows]
                    == [result_columns(r) for r in hashed["rows"]])
        hashes = hashed["hashes"]
        same_threads = hashes["threads1"] == hashes["threads2"]
        _, _, problems = check_children(w, args.seed, [hashed])
        passed = same_csv and same_threads and not problems
        ok &= passed
        records.append({"workload": name, "seed": args.seed, "passed": passed,
                        "cli_reproduces_result_columns": same_csv,
                        "threads_1_2_identical": same_threads,
                        "sha256_YZU": hashes["threads1"],
                        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
                        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
                        "problems": problems})
        print(json.dumps(records[-1]), flush=True)
    _finish(env)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"check_seed{args.seed}.json").write_text(
        json.dumps({"environment": env, "checks": records}, indent=1))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="chaosbsde benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        require_source()
        if args.check:
            return check(args)
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
