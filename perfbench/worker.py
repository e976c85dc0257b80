"""One benchmark child process: set-up, then one unmodified CLI run whose
calls into the package's layers are wrapped from outside.

    python3 perfbench/worker.py MODE CONFIG THREADS

Set-up is timed first: ``import chaosbsde``, ``parse_config`` and building
the basis with ``coefficients_from_entries``. Then, except in ``setup``
mode, ``chaosbsde.cli.main`` runs the config. MODE selects the wrapping:

    setup   set-up only;
    plain   wall and CPU time of ``draw_paths`` + ``solve`` per sweep point;
    trace   plain, plus a span around every call into each layer, and the
            last estimate/evaluate call repeated at threads 1 and 2;
    memory  plain, plus the tracemalloc peak of each sampling, estimate and
            evaluate call (kept apart from ``trace`` so that allocation
            tracking stays out of the span times);
    hash    plain, plus the first sweep point solved again at threads 1
            and 2, with the SHA-256 of each Y/Z/U.

The package is only wrapped, never modified: each wrapper replaces a name in
the namespace the caller looks it up in and calls the original. Prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from common import SRC, read_csv

MODES = ("setup", "plain", "trace", "memory", "hash")


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Spans:
    """Spans kept in memory: name, start, end, parent span and run id (the
    sweep point), plus the work a call did where it is known."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.run = -1

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.records), "name": name, "run": self.run,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "work": {}}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["work"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class Peaks:
    """tracemalloc peak of each call above the level traced at its entry."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.run = -1
        tracemalloc.start()

    @contextmanager
    def span(self, name: str):
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        work: dict = {}
        try:
            yield work
        finally:
            _, peak = tracemalloc.get_traced_memory()
            self.records.append({"name": name, "run": self.run,
                                 "peak_mb": (peak - base) / 1e6, "work": work})


def _instrument(fn, name: str, probe, on_result=None, keep_last=None):
    """``fn`` called inside a span of ``probe``; ``on_result`` records the
    call's work, ``keep_last`` keeps its arguments for a later re-run."""

    def wrapped(*args, **kwargs):
        with probe.span(name) as work:
            out = fn(*args, **kwargs)
        if on_result is not None:
            on_result(work, args, out)
        if keep_last is not None:
            keep_last[name] = (fn, args, kwargs)
        return out

    return wrapped


def _sampled_bytes(work, args, batch) -> None:
    work["bytes"] = batch.G.nbytes + batch.Q.nbytes


def _estimated(work, args, coeffs) -> None:
    work["coef_samples"] = coeffs.values.size * args[1].M


def _evaluated(work, args, out) -> None:
    coeffs, paths = args[0], args[1]
    work["coef_samples"] = coeffs.values.size * paths.M
    work["out_bytes"] = sum(a.nbytes for a in out)


def _rerun_at_threads(last: dict) -> dict:
    """Repeat the last estimate and evaluate call at threads 1 and 2."""
    import numpy as np

    timings = {}
    for name in ("chaos_core.estimate", "chaos_eval.evaluate_grid"):
        if name not in last:
            continue  # never called: the parent's call-count check reports it
        original, args, kwargs = last[name]
        for threads in (1, 2):
            kw = dict(kwargs, threads=threads)
            if "out" in kw:
                # Fresh, already-touched buffers, as in the solver's later
                # iterations.
                kw["out"] = tuple(np.zeros_like(a) for a in kw["out"])
            t0 = time.perf_counter()
            original(*args, **kw)
            timings[f"{name}.t{threads}_s"] = time.perf_counter() - t0
    return timings


def _grid_sha256(grid) -> str:
    h = hashlib.sha256()
    for arr in (grid.Y, grid.Z, grid.U):
        h.update(arr.tobytes())
    return h.hexdigest()


def main() -> int:
    mode, config_path, threads = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode not in MODES:
        raise SystemExit(f"worker: mode must be one of {MODES}, got {mode!r}")
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import chaosbsde
    t1 = time.perf_counter()
    from chaosbsde import cli
    config = cli.parse_config(config_path)
    t2 = time.perf_counter()
    basis = chaosbsde.coefficients_from_entries(config.solver.spec, config.solver.p)
    t3 = time.perf_counter()
    if Path(chaosbsde.__file__).resolve().parent != SRC / "chaosbsde":
        raise SystemExit(f"worker: imported chaosbsde from {chaosbsde.__file__}")
    result: dict = {"setup": {"import_s": t1 - t0, "parse_config_s": t2 - t1,
                              "basis_s": t3 - t2, "J": int(basis.values.size),
                              "total_s": t3 - t0}}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy as np
    from chaosbsde import picard_solver

    probe = Spans() if mode == "trace" else Peaks() if mode == "memory" else None
    points: list[dict] = []
    last: dict = {}
    hashes: dict = {}

    def timed_draw(original):
        def draw(point):
            points.append({"seed": point.seed})
            if probe is not None:
                probe.run = len(points) - 1
            w0, c0 = time.perf_counter(), _cpu()
            batch = original(point)
            points[-1]["draw_s"] = time.perf_counter() - w0
            points[-1]["draw_cpu_s"] = _cpu() - c0
            return batch
        return draw

    def timed_solve(original):
        def solve(point, driver, xi, **kwargs):
            if mode == "trace":
                driver = dataclasses.replace(driver, eval=_instrument(
                    driver.eval, "picard_solver.driver", probe))
            w0, c0 = time.perf_counter(), _cpu()
            grid = original(point, driver, xi, **kwargs)
            points[-1]["solve_s"] = time.perf_counter() - w0
            points[-1]["solve_cpu_s"] = _cpu() - c0
            points[-1]["finite"] = bool(all(np.isfinite(a).all()
                                            for a in (grid.Y, grid.Z, grid.U)))
            if mode == "hash" and not hashes:
                for th in (1, 2):
                    again = original(point, driver, xi, **dict(kwargs, threads=th))
                    hashes[f"threads{th}"] = _grid_sha256(again)
            return grid
        return solve

    def wrap(module, attr, name, on_result=None, keep_last=None):
        setattr(module, attr, _instrument(getattr(module, attr), name, probe,
                                          on_result, keep_last))

    draw, solve = timed_draw(cli.draw_paths), timed_solve(cli.solve)
    if mode == "trace":
        draw = timed_draw(_instrument(cli.draw_paths, "picard_solver.draw_paths", probe))
        solve = timed_solve(_instrument(cli.solve, "picard_solver.solve", probe))
        wrap(picard_solver, "terminal_samples", "picard_solver.terminal_samples")
        for attr in ("example1_grid", "example2_grid"):
            wrap(cli, attr, "benchmarks.exact_grid")
        wrap(cli, "error_norm", "benchmarks.error_norm")
    if probe is not None:
        wrap(picard_solver, "sample_paths", "stochastic_grid.sample_paths",
             _sampled_bytes)
        keep = last if mode == "trace" else None
        wrap(picard_solver, "estimate", "chaos_core.estimate", _estimated, keep)
        wrap(picard_solver, "evaluate_grid", "chaos_eval.evaluate_grid",
             _evaluated, keep)
    cli.draw_paths, cli.solve = draw, solve

    rc = cli.main(["--config", config_path, "--threads", str(threads)])
    rows = read_csv(config.output_path)
    result.update(rc=rc, points=points, rows=rows)
    if probe is not None:
        result["calls"] = probe.records
    if mode == "trace":
        result["threads_s"] = _rerun_at_threads(last)
    if mode == "hash":
        result["hashes"] = hashes
    # ru_maxrss is in KiB on Linux.
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
