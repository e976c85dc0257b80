"""Threads 1 against threads 2, per kernel call and (N, p).

Checks the worker rule of ``chaos_core._workers``: for each kernel call and
(N, p), the median wall and CPU seconds of alternating threads-1 and
threads-2 runs in this one process, their ratio, whether threads 2 won by
the margin the rule asks for (a median wall time speedup of 1.10 or more),
the worker count the shipped rule grants at threads 2, and whether that
grant disagrees with the verdict just measured. Each side's CPU/wall
ratio is shown too, and a row where either is below :data:`FULL_CORE` is
marked: that process did not hold a full core while it was timed, so the
row says nothing about a second worker. :data:`MEASURED` holds the
median ratios the rule was fitted to; where a point was run in several
series, its ratio is the median of the series' ratios (the mean of two).

``estimate`` and ``evaluate_grid`` are timed where the rule serves them,
inside Picard solves (example1, reuse mode, 3 iterations, paths drawn once
per point): each run is one solve, and its figure the summed time of that
call's 3 invocations. Between them the solve streams its (N+1) x M grids,
so an isolated call on warm caches can read differently (at N = 50, p = 2,
the pair sums read 1.16x there and no gain in a solve).
While it measures, only the kernels under test may run a second worker (the
rule's constants, ``chaos_core._WORKER_RULE``, are swapped), so the
threads-2 column shows what a second worker would do, not what the rule
allows.

A point is ``group:N:p``, where the group is a chunk kernel as
``chaos_core._kernel`` names them (``pair_sums``, ``pair_eval`` or
``prefix``), and the point times each call of :data:`CALLS` that runs that
kernel at p.

Before the table, one host line gives the throughput of two processes
running a fixed elementwise loop at once, relative to one (:func:`host_ratio`).
It is about 2 on two free cores. A table taken where it reads much lower (two
vCPUs that act like SMT siblings, or a busy host) cannot tell a second
worker's gain or loss from the host's.

Run from the repository root, with nothing else busy on the machine:

    PYTHONPATH=src python tools/thread_table.py                  # measured points
    PYTHONPATH=src python tools/thread_table.py --runs 9 pair_eval:25:2 prefix:10:3

M is 1e5 at p <= 2, 2e4 at p = 3 and 1e4 above, cut at large N to bound
memory (:func:`default_m`), and ``--M`` overrides it. The BLAS thread count
is left as inherited: every kernel product is small enough that BLAS runs
it on the calling thread. CPU time is the process's, so it counts the
second worker too. M and N must be at least 1, and p at least 0, and a
point the byte budget refuses is named before the table starts.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import statistics
import subprocess
import sys
import time

from chaosbsde import (Driver, Example1Params, SolverConfig, TerminalFunctional,
                       draw_paths, solve)
from chaosbsde import chaos_core, picard_solver

# The calls the tool times; conditional_at always runs one worker.
CALLS = ("estimate", "evaluate_grid")

# (call, N, p, median t1/t2 wall time) of every measured point, at threads 2
# on 2 vCPUs under KVM (numpy 2.4.6, OpenBLAS 0.3.31). p <= 7 are the points
# of the earlier per-(call, p) table; p >= 8 are medians of two or three
# series of 9 runs. The p = 0 ratios were timed in isolated calls, before
# the solver admitted p = 0; every other point inside solves.
MEASURED = (
    [("estimate", N, 2, r) for N, r in ((20, .86), (50, 1.03), (62, 1.02), (70, 1.03),
                                        (80, 1.095), (100, 1.33), (120, 1.18))]
    + [("evaluate_grid", N, 2, r) for N, r in ((20, 1.085), (25, 1.10), (30, 1.21),
                                               (35, 1.31), (40, 1.465), (50, 1.45))]
    + [(call, N, p, r) for (N, p), ratios in {
        (10, 0): (.64, .83), (20, 0): (.46, .96), (30, 0): (.57, 1.13),
        (40, 0): (.61, 1.20), (50, 0): (.73, 1.28), (100, 0): (1.07, 1.40),
        (200, 0): (1.26, 1.39), (400, 0): (1.06, 1.45),
        (10, 1): (.66, .70), (20, 1): (1.05, 1.08), (30, 1): (1.12, 1.11),
        (40, 1): (1.19, 1.39), (50, 1): (1.47, 1.48), (100, 1): (1.70, 1.61),
        (5, 3): (.72, .60), (10, 3): (.97, .96), (15, 3): (1.01, 1.04),
        (20, 3): (1.53, 1.56), (30, 3): (1.64, 1.74),
        (4, 4): (.59, .56), (6, 4): (.75, .72), (7, 4): (.91, .80),
        (8, 4): (1.29, 1.30), (10, 4): (1.62, 1.62),
        (5, 5): (1.10, 1.03), (6, 5): (1.39, 1.34), (8, 5): (1.58, 1.51),
        (2, 6): (.63, .46), (3, 6): (.82, .64), (4, 6): (.97, .90),
        (5, 6): (1.51, 1.44),
        (2, 7): (.68, .49), (3, 7): (.82, .69), (4, 7): (1.25, 1.14),
        (2, 8): (.805, .565), (3, 8): (.99, .83),
        (3, 9): (1.03, .99),
        (3, 10): (1.19, 1.08), (2, 10): (.79, .555),
    }.items() for call, r in zip(CALLS, ratios)]
)

# The measured points, as the groups that time them.
DEFAULT_POINTS = list(dict.fromkeys((chaos_core._kernel(call, p), N, p)
                                    for call, N, p, _ in MEASURED))

# The margin a second worker must win by, the least CPU/wall ratio of a
# side that held a full core, and the fewest alternating runs.
MARGIN = 0.10
FULL_CORE = 0.97
MIN_RUNS = 7
K_IT = 3


def default_m(N: int, p: int) -> int:
    """1e5 samples at p <= 2, 2e4 at p = 3 and 1e4 above, and no more than
    (N + 1) * M = 5.1e6 grid entries, N = 50 at M = 1e5, to bound memory."""
    return min(100_000 if p <= 2 else 20_000 if p == 3 else 10_000,
               5_100_000 // (N + 1))


# The host probe's child: after one line "ready", it runs the loop once per
# line of stdin, as many times as the line says, and prints its seconds.
_HOST_LOOP = """
import sys, time
import numpy as np
a = np.ones(1 << 16)
print("ready", flush=True)
for line in sys.stdin:
    t0 = time.perf_counter()
    for _ in range(int(line)):
        np.multiply(a, 1.0, out=a)
    print(time.perf_counter() - t0, flush=True)
"""
HOST_LOOPS = 5000
HOST_RUNS = 4


def host_ratio() -> float:
    """Throughput of two processes running :data:`HOST_LOOPS` passes of a
    fixed elementwise loop at once, relative to one running it alone:
    2 * t_one / t_two on the medians of :data:`HOST_RUNS` runs, t_two the
    slower process. Every other run swaps which is timed first, one alone
    or both, and which process runs alone, so drift over the probe falls on
    both sides. Two processes are started, and no more."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-c", _HOST_LOOP]
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    with subprocess.Popen(argv, **pipes) as a, subprocess.Popen(argv, **pipes) as b:
        for proc in (a, b):
            if proc.stdout.readline() != "ready\n":
                raise RuntimeError("the host probe did not start")

        def seconds(*procs) -> float:
            for proc in procs:
                proc.stdin.write(f"{HOST_LOOPS}\n")
                proc.stdin.flush()
            return max(float(proc.stdout.readline()) for proc in procs)

        one, two = [], []
        for run in range(HOST_RUNS):
            if run % 2:
                two.append(seconds(a, b))
                one.append(seconds(b))
            else:
                one.append(seconds(a))
                two.append(seconds(a, b))
    return 2 * statistics.median(one) / statistics.median(two)


@contextlib.contextmanager
def grant_only(group: str):
    """Within the block, let the kernels ``group`` times run a second worker
    at every (N, p), and no other kernel; the shipped constants of
    ``chaos_core._WORKER_RULE`` come back after it."""
    rule = chaos_core._WORKER_RULE
    shipped = dict(rule)
    rule.update({kernel: 0 if kernel == group else math.inf for kernel in rule})
    try:
        yield
    finally:
        rule.update(shipped)


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

    samples = {name: {1: [], 2: []} for name in CALLS}
    originals = {name: getattr(picard_solver, name) for name in CALLS}
    for name, fn in originals.items():
        setattr(picard_solver, name, timed(name, fn))
    try:
        for run in range(runs + 1):
            for threads in (1, 2):
                spent.update({name: [0.0, 0.0] for name in CALLS})
                solve(config, driver, xi, paths=paths, threads=threads)
                if run:
                    for name in CALLS:
                        samples[name][threads].append(tuple(spent[name]))
    finally:
        for name, fn in originals.items():
            setattr(picard_solver, name, fn)
    return {name: {k: (statistics.median(w for w, _ in v),
                       statistics.median(c for _, c in v)) for k, v in got.items()}
            for name, got in samples.items()}


def point_calls(group: str, p: int) -> list[str]:
    """The calls of :data:`CALLS` that run the kernel ``group`` at p."""
    return [call for call in CALLS if group == chaos_core._kernel(call, p)]


def admit(group: str, N: int, p: int, M: int) -> None:
    """SizingError unless the byte budget admits each call of the point at
    the workers the tool runs on M samples, two where there are two chunks:
    the chunk driver's charge, its working sets and held sums."""
    k = min(2, -(-M // chaos_core._CHUNK))
    for call in point_calls(group, p):
        chaos_core._check_bytes(N, p, k, chaos_core._held_bytes(N, p, call, M, k))


def point_rows(group: str, N: int, p: int, M: int, runs: int):
    """(call, {threads: (wall, cpu)}) of each call that runs the kernel
    ``group`` at p."""
    with grant_only(group):
        got = in_solves(N, p, M, runs)
    return [(name, got[name]) for name in point_calls(group, p)]


def rule_grant(call: str, N: int, p: int, M: int = 100_000) -> int:
    """Workers the shipped rule grants ``call`` at threads 2 on M samples."""
    return chaos_core._workers(2, M, chaos_core._build_index_set(N, p), call)


def parse_point(text: str) -> tuple[str, int, int]:
    group, N, p = text.split(":")
    N, p = int(N), int(p)
    if N < 1 or p < 0:
        raise argparse.ArgumentTypeError(f"N must be >= 1 and p >= 0, got {text!r}")
    if not point_calls(group, p):
        raise argparse.ArgumentTypeError(f"no call runs the kernel {group!r} at p = {p}")
    return group, N, p


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("points", nargs="*", type=parse_point, metavar="group:N:p")
    ap.add_argument("--runs", type=int, default=MIN_RUNS,
                    help=f"alternating runs per thread count (>= {MIN_RUNS})")
    ap.add_argument("--M", type=int, default=None, help="samples per call")
    args = ap.parse_args(argv)
    if args.runs < MIN_RUNS:
        ap.error(f"--runs must be >= {MIN_RUNS}")
    if args.M is not None and args.M < 1:
        ap.error("--M must be >= 1")
    points = args.points or DEFAULT_POINTS
    for group, N, p in points:
        try:
            admit(group, N, p, args.M or default_m(N, p))
        except chaos_core.SizingError as exc:
            ap.error(str(exc))
    print(f"host: two processes of a fixed elementwise loop run {host_ratio():.2f}x "
          f"the throughput of one (about 2 on two free cores)")
    print("| group | call | N | p | M | wall t1 / t2 (s) | t1/t2 | "
          "cpu t1 / t2 (s) | cpu/wall t1 / t2 | full core | threads pay | "
          "rule grants | rule disagrees |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for group, N, p in points:
        M = args.M or default_m(N, p)
        for name, got in point_rows(group, N, p, M, args.runs):
            (w1, c1), (w2, c2) = got[1], got[2]
            pays = w1 >= (1 + MARGIN) * w2
            full = min(c1 / w1, c2 / w2) >= FULL_CORE
            grant = rule_grant(name, N, p, M)
            print(f"| {group} | {name} | {N} | {p} | {M:.0e} | {w1:.4f} / {w2:.4f} | "
                  f"{w1 / w2:.2f} | {c1:.4f} / {c2:.4f} | {c1 / w1:.3f} / {c2 / w2:.3f} | "
                  f"{'yes' if full else '**no**'} | {'yes' if pays else 'no'} | "
                  f"{grant} | {'**yes**' if (grant > 1) != pays else 'no'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
