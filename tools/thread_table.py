"""Threads 1 against threads 2, per kernel call and (N, p).

Prints the table that ``chaos_core._ONE_WORKER_TO`` is derived from: for
each kernel call and (N, p), the median wall and CPU seconds of alternating
threads-1 and threads-2 runs in this one process, their ratio, and whether
threads 2 won by the margin the rule asks for: a median wall time speedup
of 1.10 or more. Where a point was run in several series, the rule reads
the median of the series' ratios (the mean of two).

``estimate`` and ``evaluate_grid`` are timed where the rule serves them,
inside Picard solves (example1, reuse mode, 3 iterations, paths drawn once
per point): each run is one solve, and its figure the summed time of that
call's 3 invocations. Between them the solve streams its (N+1) x M grids,
so an isolated call on warm caches can read differently (at N = 50, p = 2,
the pair sums read 1.16x there and no gain in a solve).
``variance_diagnostic``, which no solve runs, is timed in isolated calls,
and so are all three calls at p = 0, which the solver refuses.
While it measures, only the calls under test may run a second worker (the
rule's table is swapped), so the threads-2 column shows what a second worker
would do, not what the rule allows.

A point is ``group:N:p``, where the group names the calls it times:

* ``pair_sums``: ``estimate`` at p = 2 (the pair sums kernel);
* ``pair_eval``: ``evaluate_grid`` at p = 2 (the pair evaluation kernel);
* ``prefix``: ``estimate`` and ``evaluate_grid`` at every other p, in the
  same solves, and ``variance_diagnostic`` at every p.

Run from the repository root, with nothing else busy on the machine:

    PYTHONPATH=src python tools/thread_table.py                  # default points
    PYTHONPATH=src python tools/thread_table.py --runs 9 pair_eval:25:2 prefix:10:3

M is 1e5 at p <= 2, 2e4 at p = 3 and 1e4 above, cut at large N to bound
memory (:func:`default_m`), and ``--M`` overrides it. The BLAS thread count
is left as inherited: every kernel product is small enough that BLAS runs
it on the calling thread. CPU time is the process's, so it counts the
second worker too.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from chaosbsde import (Driver, Example1Params, SolverConfig, TerminalFunctional,
                       draw_paths, estimate, evaluate_grid, sample_paths, solve,
                       variance_diagnostic)
from chaosbsde import chaos_core, picard_solver

# The points the shipped rule was derived from.
DEFAULT_POINTS = (
    [("pair_sums", N, 2) for N in (20, 50, 62, 70, 80, 100, 120)]
    + [("pair_eval", N, 2) for N in (20, 25, 30, 35, 40, 50)]
    + [("prefix", N, 0) for N in (10, 50, 100, 200, 400)]
    + [("prefix", N, 1) for N in (10, 20, 30, 40, 50, 100)]
    + [("prefix", N, 2) for N in (10, 20, 30, 40, 50)]
    + [("prefix", N, 3) for N in (5, 10, 15, 20, 30)]
    + [("prefix", N, 4) for N in (4, 6, 7, 8, 10)]
    + [("prefix", N, 5) for N in (5, 6, 8)]
    + [("prefix", N, 6) for N in (2, 3, 4, 5)]
    + [("prefix", N, 7) for N in (2, 3, 4)]
)

# The calls of the rule's table, and the calls each group times.
CALLS = ("estimate", "evaluate_grid", "variance_diagnostic")
GROUPS = {"pair_sums": ("estimate",), "pair_eval": ("evaluate_grid",),
          "prefix": CALLS}

# The margin a second worker must win by, and the fewest alternating runs.
MARGIN = 0.10
MIN_RUNS = 7
K_IT = 3


def default_m(N: int, p: int) -> int:
    """1e5 samples at p <= 2, 2e4 at p = 3 and 1e4 above, and no more than
    (N + 1) * M = 5.1e6 grid entries, N = 50 at M = 1e5, to bound memory."""
    return min(100_000 if p <= 2 else 20_000 if p == 3 else 10_000,
               5_100_000 // (N + 1))


def grant_only(calls: tuple[str, ...], p: int) -> None:
    """Let ``calls`` run a second worker at every N at p, and no other call."""
    chaos_core._ONE_WORKER_TO = {call: {} if call in calls else {p: float("inf")}
                                 for call in CALLS}


def medians(samples: dict[int, list[tuple[float, float]]]):
    return {k: (statistics.median(w for w, _ in v), statistics.median(c for _, c in v))
            for k, v in samples.items()}


def in_solves(N: int, p: int, M: int, runs: int):
    """Median (wall, cpu) per solve of its ``estimate`` and its
    ``evaluate_grid`` calls, by name and thread count, over ``runs``
    alternating solves at threads 1 and 2 after one warm-up solve of each."""
    params = Example1Params(c=0.5, T=1.0)
    config = SolverConfig(spec=params.grid(N), p=p, K_it=K_IT, M=M, seed=N + 100 * p)
    paths = draw_paths(config)
    driver, xi = Driver.linear_jump(params.c), TerminalFunctional.poisson_count()
    spent: dict[str, list[float]] = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                got = spent[name]
                got[0] += time.perf_counter() - w0
                got[1] += time.process_time() - c0
        return call

    names = ("estimate", "evaluate_grid")
    samples = {name: {1: [], 2: []} for name in names}
    originals = {name: getattr(picard_solver, name) for name in names}
    for name, fn in originals.items():
        setattr(picard_solver, name, timed(name, fn))
    try:
        for run in range(runs + 1):
            for threads in (1, 2):
                spent.update({name: [0.0, 0.0] for name in names})
                solve(config, driver, xi, paths=paths, threads=threads)
                if run:
                    for name in names:
                        samples[name][threads].append(tuple(spent[name]))
    finally:
        for name, fn in originals.items():
            setattr(picard_solver, name, fn)
    return {name: medians(got) for name, got in samples.items()}


def isolated(names: tuple[str, ...], N: int, p: int, M: int, runs: int):
    """Median (wall, cpu) of each call in ``names``, by thread count, over
    ``runs`` alternating calls after one warm-up call of each."""
    paths = sample_paths(Example1Params(c=0.5, T=1.0).grid(N), M, seed=N + 100 * p)
    F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
    coeffs = estimate(F, paths, p)
    calls = {"estimate": lambda threads: estimate(F, paths, p, threads=threads),
             "evaluate_grid": lambda threads: evaluate_grid(coeffs, paths, threads=threads),
             "variance_diagnostic":
                 lambda threads: variance_diagnostic(F, paths, p, threads=threads)}
    got = {}
    for name in names:
        samples: dict[int, list[tuple[float, float]]] = {1: [], 2: []}
        for run in range(runs + 1):
            for threads in (1, 2):
                w0, c0 = time.perf_counter(), time.process_time()
                calls[name](threads)
                if run:
                    samples[threads].append((time.perf_counter() - w0,
                                             time.process_time() - c0))
        got[name] = medians(samples)
    return got


def point_rows(group: str, N: int, p: int, M: int, runs: int):
    """(call, {threads: (wall, cpu)}) of one point."""
    names = GROUPS[group]
    grant_only(names, p)
    if p == 0:
        got = isolated(names, N, p, M, runs)
    else:
        got = in_solves(N, p, M, runs) if group != "prefix" or p != 2 else {}
        if group == "prefix":
            got.update(isolated(("variance_diagnostic",), N, p, M, runs))
    # At p = 2 the prefix group's estimate and evaluate_grid run the pair
    # kernels, which the other two groups time.
    return [(name, got[name]) for name in names
            if name in got and (group != "prefix" or p != 2 or name == "variance_diagnostic")]


def parse_point(text: str) -> tuple[str, int, int]:
    group, N, p = text.split(":")
    if group not in GROUPS:
        raise argparse.ArgumentTypeError(f"unknown group {group!r}")
    if group != "prefix" and int(p) != 2:
        raise argparse.ArgumentTypeError(f"{group} runs at p = 2 only")
    return group, int(N), int(p)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("points", nargs="*", type=parse_point, metavar="group:N:p")
    ap.add_argument("--runs", type=int, default=MIN_RUNS,
                    help=f"alternating runs per thread count (>= {MIN_RUNS})")
    ap.add_argument("--M", type=int, default=None, help="samples per call")
    args = ap.parse_args(argv)
    if args.runs < MIN_RUNS:
        ap.error(f"--runs must be >= {MIN_RUNS}")
    print("| group | call | N | p | M | wall t1 / t2 (s) | t1/t2 | "
          "cpu t1 / t2 (s) | threads pay |")
    print("|---|---|---|---|---|---|---|---|---|")
    for group, N, p in args.points or DEFAULT_POINTS:
        M = args.M or default_m(N, p)
        for name, got in point_rows(group, N, p, M, args.runs):
            (w1, c1), (w2, c2) = got[1], got[2]
            pays = "yes" if w1 >= (1 + MARGIN) * w2 else "no"
            print(f"| {group} | {name} | {N} | {p} | {M:.0e} | {w1:.4f} / {w2:.4f} | "
                  f"{w1 / w2:.2f} | {c1:.4f} / {c2:.4f} | {pays} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
