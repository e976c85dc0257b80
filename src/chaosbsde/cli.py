"""Experiment command line: configured solves, sweeps, CSV results.

Usage::

    chaosbsde --config experiment.cfg [--out results.csv] [--seed 7]
              [--threads 4] [--dump-coeffs]

The config file is flat ``key = value`` text: one pair per line, ``#``
starts a comment, blank lines are ignored, lists are comma-separated.

Common keys (defaults in parentheses, per example):

    example       example1 | example2            required
    T             horizon, > 0                   (1.0 / 2.0)
    N             grid intervals                 (20 / 50)
    kappa         jump intensity, > 0            (1.0, pinned / 3.0)
    p             chaos truncation order, 0..60  (2)
    q             Picard iteration count         (5 / 10)
    M             Monte Carlo sample count       (10000)
    seed          base seed, >= 0                (0)
    sample_mode   reuse | independent            (reuse)
    out           results CSV path               (results.csv)
    sweep_axis    M | N | p | q | seed           optional
    sweep_values  ints in the swept key's bounds required with sweep_axis

Problem parameters: ``c`` for example1 (drift coefficient, default 0.5);
``alpha, beta, gamma, a, b, c`` for example2 (defaults 0.3, 0.3, 0.2,
-0.1, 0.1, 0.2).

The results CSV has one row per sweep point with the fixed header

    example,p,N,M,q,seed,sample_mode,Y0,Z0,U0,exactY0,exactZ0,exactU0,
    errY,errZ,errU,wall_ms

where the exact columns come from the benchmark closed form at time 0, the
err columns from the discretized error norm against the exact grid on the
same paths, and wall_ms times the solve alone (path generation excluded).
Floats are written with 17 significant digits and a ``.`` decimal separator,
so output is byte-stable for a fixed config; neither ``--threads`` nor the
BLAS thread count changes values, only wall_ms. ``--threads`` is a cap: each
kernel call runs that many worker threads at most, and one where a second
cannot overlap it (see README.md, Threads).

``--dump-coeffs`` additionally writes the final chaos coefficients of each
sweep point as CSV columns (rank, nB, nP, d_value, weight): rank 0 is the
constant coefficient with all-zero degree vectors, rank k >= 1 the k-th
enumerated index; degree vectors are space-separated dense integers.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .benchmarks import (
    ExactGrid,
    Example1Params,
    Example2Params,
    error_norm,
    example1_grid,
    example2_grid,
)
from .chaos_core import ChaosCoefficients
from .orthopoly import MAX_DEGREE
from .picard_solver import (
    _SAMPLE_MODES,
    Driver,
    SolverConfig,
    TerminalFunctional,
    draw_paths,
    solve,
)
from .stochastic_grid import _check_jump_mean

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "run",
    "write_coefficients",
    "main",
]

CSV_HEADER = ("example,p,N,M,q,seed,sample_mode,Y0,Z0,U0,"
              "exactY0,exactZ0,exactU0,errY,errZ,errU,wall_ms")

# The integer keys, which are also the sweep axes: bounds (minimum, maximum
# or None), which a key and every value of a sweep along it must keep, and
# the SolverConfig field the key sets. N is the one key that is not a field
# of its own: its value rebuilds the grid spec.
_INT_KEYS = {"M": (1, None, "M"), "N": (1, None, "spec"), "p": (0, MAX_DEGREE, "p"),
             "q": (1, None, "K_it"), "seed": (0, None, "seed")}

# The defaults every example shares; its row in _EXAMPLES sets the others.
_DEFAULTS = dict(p=2, M=10_000, seed=0)


@dataclass(frozen=True)
class _Example:
    """One of the paper's examples: its parameters class, the defaults of T,
    N, kappa, q and of the class's own fields, its (driver, terminal
    functional) and its exact grid along a batch."""

    params: type
    defaults: dict
    problem: Callable[..., tuple[Driver, TerminalFunctional]]
    exact_grid: Callable[..., ExactGrid]


# The exact grids are looked up in this module when they run, so that a
# replaced cli.example1_grid or cli.example2_grid is the one called.
_EXAMPLES = {
    "example1": _Example(
        Example1Params, dict(T=1.0, N=20, kappa=1.0, q=5, c=0.5),
        lambda pr: (Driver.linear_jump(pr.c), TerminalFunctional.poisson_count()),
        lambda pr, paths: example1_grid(pr, paths)),
    "example2": _Example(
        Example2Params, dict(T=2.0, N=50, kappa=3.0, q=10, alpha=0.3, beta=0.3,
                             gamma=0.2, a=-0.1, b=0.1, c=0.2),
        lambda pr: (Driver.linear(pr.alpha, pr.beta, pr.gamma),
                    TerminalFunctional.exp_levy(pr.a, pr.b, pr.c)),
        lambda pr, paths: example2_grid(pr, paths)),
}


class ConfigError(ValueError):
    """Config file problem, with file and line in the message."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a benchmark problem, solver settings, optional sweep."""

    example: str
    params: Union[Example1Params, Example2Params]
    solver: SolverConfig
    sweep: Optional[tuple[str, tuple[int, ...]]]
    output_path: str


class _RawConfig:
    """Tokenized key=value file with line numbers for diagnostics."""

    def __init__(self, path: str):
        self.path = path
        self.pairs: dict[str, tuple[str, int]] = {}
        self.known: list[str] = []  # the keys asked for, in order
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {body!r}")
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in self.pairs:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key '{key}' "
                    f"(first set on line {self.pairs[key][1]})")
            self.pairs[key] = (value, lineno)

    def take(self, key: str) -> Optional[tuple[str, int]]:
        self.known.append(key)
        return self.pairs.get(key)

    def error(self, key: str, lineno: int, message: str) -> ConfigError:
        return ConfigError(f"{self.path}:{lineno}: field '{key}': {message}")


def _int_value(text: str) -> Optional[int]:
    """An integer written as such or as an integral float (``2e4``); None
    for anything else, including inf and nan."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return None
    return int(value) if value.is_integer() else None


def _bounded_int(raw: _RawConfig, key: str, lineno: int, text: str, axis: str,
                 label: str = "") -> int:
    """``text`` of field ``key`` as an integer within the bounds of ``axis``
    in _INT_KEYS; ``label`` starts the message of a value out of them."""
    value = _int_value(text)
    if value is None:
        raise raw.error(key, lineno, f"expected an integer, got {text!r}")
    minimum, maximum, _ = _INT_KEYS[axis]
    if value < minimum:
        below = "positive" if minimum == 1 else f">= {minimum}"
        raise raw.error(key, lineno, f"{label}must be {below}, got {value}")
    if maximum is not None and value > maximum:
        raise raw.error(key, lineno, f"{label}must be <= {maximum}, got {value}")
    return value


def _parse_int(raw: _RawConfig, key: str, default: int) -> int:
    got = raw.take(key)
    return default if got is None else _bounded_int(raw, key, got[1], got[0], key)


def _parse_float(raw: _RawConfig, key: str, default: float,
                 positive: bool = False) -> float:
    got = raw.take(key)
    if got is None:
        return default
    text, lineno = got
    try:
        value = float(text)
    except ValueError:
        raise raw.error(key, lineno, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise raw.error(key, lineno, f"expected a finite number, got {text!r}")
    if positive and value <= 0:
        raise raw.error(key, lineno, f"must be > 0, got {text!r}")
    return value


def _parse_choice(raw: _RawConfig, key: str, default: Optional[str],
                  choices: tuple[str, ...]) -> str:
    got = raw.take(key)
    if got is None:
        if default is None:
            raise ConfigError(f"{raw.path}: missing required key '{key}'")
        return default
    text, lineno = got
    if text not in choices:
        raise raw.error(key, lineno, f"must be one of {', '.join(choices)}; got {text!r}")
    return text


def parse_config(path: str) -> ExperimentConfig:
    """Parse an experiment config file.

    Raises ConfigError with file:line diagnostics on malformed input,
    unknown keys, or invalid values.
    """
    raw = _RawConfig(path)
    example = _parse_choice(raw, "example", None, tuple(_EXAMPLES))
    row = _EXAMPLES[example]
    defaults = {**_DEFAULTS, **row.defaults}

    T = _parse_float(raw, "T", defaults["T"], positive=True)
    kappa = _parse_float(raw, "kappa", defaults["kappa"], positive=True)
    ints = {key: _parse_int(raw, key, defaults[key]) for key in _INT_KEYS}
    sample_mode = _parse_choice(raw, "sample_mode", "reuse", _SAMPLE_MODES)
    out_got = raw.take("out")
    output_path = out_got[0] if out_got else "results.csv"
    if not output_path:
        raise raw.error("out", out_got[1], "must be a nonempty path")

    pvals = {f.name: _parse_float(raw, f.name, defaults[f.name])
             for f in dataclasses.fields(row.params) if f.name not in ("T", "kappa")}

    axis = _parse_choice(raw, "sweep_axis", "", tuple(_INT_KEYS))
    sweep_values_got = raw.take("sweep_values")
    sweep: Optional[tuple[str, tuple[int, ...]]] = None
    if not axis and sweep_values_got is not None:
        raise raw.error("sweep_values", sweep_values_got[1],
                        "sweep_values given without sweep_axis")
    if axis:
        if sweep_values_got is None:
            raise raw.error("sweep_axis", raw.pairs["sweep_axis"][1],
                            "sweep_axis given without sweep_values")
        text, lineno = sweep_values_got
        values = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise raw.error("sweep_values", lineno, "empty list element")
            values.append(_bounded_int(raw, "sweep_values", lineno, part, axis,
                                       f"{axis} values "))
        if any(b <= a for a, b in zip(values, values[1:])):
            raise raw.error("sweep_values", lineno,
                            "values must be strictly increasing")
        sweep = (axis, tuple(values))

    for key, (_, lineno) in raw.pairs.items():
        if key not in raw.known:
            raise raw.error(key, lineno, f"unknown key for {example}; "
                                         f"valid keys: {', '.join(raw.known)}")

    try:
        params = row.params(T=T, kappa=kappa, **pvals)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    # Every grid the run will sample must pass sample_paths' jump-mean cap.
    key = "sweep_values" if sweep is not None and sweep[0] == "N" else "N"
    lineno = raw.pairs.get(key, (None, None))[1]
    for n in sweep[1] if key == "sweep_values" else (ints["N"],):
        try:
            _check_jump_mean(params.grid(n))
        except ValueError as exc:
            if lineno is None:
                raise ConfigError(f"{path}: {exc}") from None
            raise raw.error(key, lineno, str(exc)) from None

    solver = SolverConfig(spec=params.grid(ints.pop("N")), sample_mode=sample_mode,
                          **{_INT_KEYS[k][2]: v for k, v in ints.items()})
    return ExperimentConfig(example=example, params=params, solver=solver,
                            sweep=sweep, output_path=output_path)


def _sweep_points(config: ExperimentConfig) -> list[tuple[Optional[int], SolverConfig]]:
    """(swept value, solver config) of each point; the value of a single
    run is None."""
    base = config.solver
    if config.sweep is None:
        return [(None, base)]
    axis, values = config.sweep
    points = []
    for v in values:
        setting = dataclasses.replace(base.spec, N=v) if axis == "N" else v
        points.append((v, dataclasses.replace(base, **{_INT_KEYS[axis][2]: setting})))
    return points


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_coefficients(coeffs: ChaosCoefficients, path: str) -> None:
    """Serialize a coefficient vector as CSV (rank, nB, nP, d_value, weight)."""
    zeros = " ".join(["0"] * coeffs.spec.N)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rank,nB,nP,d_value,weight\n")
        fh.write(f"0,{zeros},{zeros},{_fmt(coeffs.d0)},{_fmt(1.0)}\n")
        rows = zip(coeffs.degB.tolist(), coeffs.degP.tolist(),
                   coeffs.values.tolist(), coeffs.weights().tolist())
        for j, (nB, nP, d, w) in enumerate(rows, start=1):
            fh.write(f"{j},{' '.join(map(str, nB))},{' '.join(map(str, nP))},"
                     f"{_fmt(d)},{_fmt(w)}\n")


def _dump_path(out: str, axis: Optional[str], value: Optional[int]) -> str:
    stem, ext = os.path.splitext(out)
    if not ext:
        ext = ".csv"
    if axis is None:
        return f"{stem}_coeffs{ext}"
    return f"{stem}_coeffs_{axis}{value}{ext}"


def run(config: ExperimentConfig, *, threads: int = 1,
        dump_coeffs: bool = False) -> int:
    """Execute all sweep points and write the results CSV.

    Returns 0 iff every point completed, coefficient dumps included; on failure
    keeps the rows written so far, reports the error on stderr and returns 1.
    """
    driver, xi = _EXAMPLES[config.example].problem(config.params)
    axis = config.sweep[0] if config.sweep else None
    try:
        fh = open(config.output_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"chaosbsde: cannot open output {config.output_path!r}: {exc}",
              file=sys.stderr)
        return 1
    with fh:
        fh.write(CSV_HEADER + "\n")
        for value, point in _sweep_points(config):
            try:
                row, coeffs = _run_point(config, point, driver, xi, threads)
                fh.write(row + "\n")
                fh.flush()
                if dump_coeffs:
                    write_coefficients(coeffs, _dump_path(config.output_path, axis, value))
            except Exception as exc:  # noqa: BLE001 - boundary reporting
                label = "single run" if axis is None else f"{axis}={value}"
                print(f"chaosbsde: sweep point failed ({label}): {exc}", file=sys.stderr)
                return 1
    return 0


def _run_point(config: ExperimentConfig, point: SolverConfig, driver: Driver,
               xi: TerminalFunctional, threads: int,
               ) -> tuple[str, ChaosCoefficients]:
    paths = draw_paths(point)  # outside the timer: wall_ms measures the solve
    t0 = time.perf_counter()
    grid = solve(point, driver, xi, paths=paths, threads=threads)
    wall_ms = (time.perf_counter() - t0) * 1e3
    exact = _EXAMPLES[config.example].exact_grid(config.params, grid.paths)
    y0, z0, u0 = (float(v[0]) for v in next(exact.rows()))
    errY, errZ, errU = error_norm(grid, exact, point.spec)
    fields = [
        config.example,
        str(point.p), str(point.spec.N), str(point.M), str(point.K_it),
        str(point.seed), point.sample_mode,
        _fmt(float(grid.Y[0, 0])), _fmt(float(grid.Z[0, 0])),
        _fmt(float(grid.U[0, 0])),
        _fmt(y0), _fmt(z0), _fmt(u0),
        _fmt(errY), _fmt(errZ), _fmt(errU),
        _fmt(wall_ms),
    ]
    return ",".join(fields), grid.coeffs_final


def _resolve_threads(requested: int) -> int:
    """``--threads``; 0 means the CPUs this process may run on (its
    affinity mask where the platform has one), at most 8."""
    if requested < 0:
        raise ValueError(f"--threads must be >= 0, got {requested}")
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):
            return min(8, len(os.sched_getaffinity(0)))
        return min(8, os.cpu_count() or 1)
    return requested


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaosbsde",
        description="Run chaos-expansion BSDE experiments from a config file.")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="experiment config file (key = value lines)")
    parser.add_argument("--out", metavar="PATH",
                        help="results CSV path (overrides config)")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="base seed (overrides config)")
    parser.add_argument("--threads", type=int, default=1, metavar="INT",
                        help="most worker threads per kernel call (one where "
                             "a second does not pay); 0 = auto; values "
                             "are identical for every count and every BLAS thread "
                             "count")
    parser.add_argument("--dump-coeffs", action="store_true",
                        help="also write final chaos coefficients per sweep point")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.out is not None:
            config = dataclasses.replace(config, output_path=args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            if config.sweep is not None and config.sweep[0] == "seed":
                raise ConfigError(
                    f"{args.config}: --seed {args.seed} conflicts with "
                    f"sweep_axis = seed, whose sweep_values set every seed")
            config = dataclasses.replace(
                config, solver=dataclasses.replace(config.solver, seed=args.seed))
        threads = _resolve_threads(args.threads)
    except (ConfigError, ValueError) as exc:
        print(f"chaosbsde: {exc}", file=sys.stderr)
        return 2
    return run(config, threads=threads, dump_coeffs=args.dump_coeffs)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
