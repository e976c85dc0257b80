"""Experiment command line: configured solves, sweeps, CSV results.

Usage::

    chaosbsde --config experiment.cfg [--out results.csv] [--seed 7]
              [--threads 4] [--dump-coeffs]

The config file is flat ``key = value`` text: one pair per line, ``#``
starts a comment, blank lines are ignored, lists are comma-separated.

Common keys (defaults in parentheses, per example):

    example       example1 | example2            required
    T             horizon                        (1.0 / 2.0)
    N             grid intervals                 (20 / 50)
    kappa         jump intensity                 (1.0, pinned / 3.0)
    p             chaos truncation order         (2)
    q             Picard iteration count         (5 / 10)
    M             Monte Carlo sample count       (10000)
    seed          base seed                      (0)
    sample_mode   reuse | independent            (reuse)
    out           results CSV path               (results.csv)
    sweep_axis    M | N | p | q | seed           optional
    sweep_values  comma-separated positive ints  required with sweep_axis

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
BLAS thread count changes values, only wall_ms.

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
from typing import Optional, Union

from .benchmarks import (
    Example1Params,
    Example2Params,
    error_norm,
    example1_exact,
    example1_grid,
    example2_exact,
    example2_grid,
)
from .chaos_core import ChaosCoefficients
from .picard_solver import (
    Driver,
    SolverConfig,
    TerminalFunctional,
    draw_paths,
    solve,
)
from .stochastic_grid import GridSpec

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

# Sweep axis -> the SolverConfig field it sets. N is the one axis that is
# not a field of its own: its value rebuilds the grid spec.
_SWEEP_FIELDS = {"M": "M", "N": "spec", "p": "p", "q": "K_it", "seed": "seed"}

_EXAMPLE_DEFAULTS = {
    "example1": dict(T=1.0, N=20, kappa=1.0, q=5),
    "example2": dict(T=2.0, N=50, kappa=3.0, q=10),
}

_PARAM_DEFAULTS = {
    "example1": dict(c=0.5),
    "example2": dict(alpha=0.3, beta=0.3, gamma=0.2, a=-0.1, b=0.1, c=0.2),
}

_COMMON_KEYS = ("example", "T", "N", "kappa", "p", "q", "M", "seed",
                "sample_mode", "out", "sweep_axis", "sweep_values")


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
        return self.pairs.pop(key, None)

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


def _parse_int(raw: _RawConfig, key: str, default: Optional[int],
               minimum: int = 1) -> int:
    got = raw.take(key)
    if got is None:
        if default is None:
            raise ConfigError(f"{raw.path}: missing required key '{key}'")
        return default
    text, lineno = got
    value = _int_value(text)
    if value is None:
        raise raw.error(key, lineno, f"expected an integer, got {text!r}")
    if value < minimum:
        raise raw.error(key, lineno, f"must be >= {minimum}, got {value}")
    return value


def _parse_float(raw: _RawConfig, key: str, default: float) -> float:
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
    example = _parse_choice(raw, "example", None, ("example1", "example2"))
    defaults = _EXAMPLE_DEFAULTS[example]

    T = _parse_float(raw, "T", defaults["T"])
    N = _parse_int(raw, "N", defaults["N"])
    kappa = _parse_float(raw, "kappa", defaults["kappa"])
    p = _parse_int(raw, "p", 2)
    q = _parse_int(raw, "q", defaults["q"])
    M = _parse_int(raw, "M", 10_000)
    seed = _parse_int(raw, "seed", 0, minimum=0)
    sample_mode = _parse_choice(raw, "sample_mode", "reuse", ("reuse", "independent"))
    out_got = raw.take("out")
    output_path = out_got[0] if out_got else "results.csv"
    if not output_path:
        raise raw.error("out", out_got[1], "must be a nonempty path")

    pvals = {}
    for key, default in _PARAM_DEFAULTS[example].items():
        pvals[key] = _parse_float(raw, key, default)

    sweep_axis_got = raw.take("sweep_axis")
    sweep_values_got = raw.take("sweep_values")
    sweep: Optional[tuple[str, tuple[int, ...]]] = None
    if sweep_axis_got is None and sweep_values_got is not None:
        raise raw.error("sweep_values", sweep_values_got[1],
                        "sweep_values given without sweep_axis")
    if sweep_axis_got is not None:
        axis, axis_line = sweep_axis_got
        if axis not in _SWEEP_FIELDS:
            raise raw.error("sweep_axis", axis_line,
                            f"must be one of {', '.join(_SWEEP_FIELDS)}; got {axis!r}")
        if sweep_values_got is None:
            raise raw.error("sweep_axis", axis_line,
                            "sweep_axis given without sweep_values")
        text, lineno = sweep_values_got
        values = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise raw.error("sweep_values", lineno, "empty list element")
            v = _int_value(part)
            if v is None:
                raise raw.error("sweep_values", lineno,
                                f"expected an integer, got {part!r}")
            if v < 1:
                raise raw.error("sweep_values", lineno,
                                f"values must be positive, got {v}")
            values.append(v)
        if not values:
            raise raw.error("sweep_values", lineno, "empty sweep")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise raw.error("sweep_values", lineno,
                            "values must be strictly increasing")
        sweep = (axis, tuple(values))

    if raw.pairs:
        key, (_, lineno) = next(iter(raw.pairs.items()))
        valid = _COMMON_KEYS + tuple(_PARAM_DEFAULTS[example])
        raise raw.error(key, lineno,
                        f"unknown key for {example}; valid keys: {', '.join(valid)}")

    if example == "example1":
        if kappa != 1.0:
            raise ConfigError(
                f"{path}: example1's closed-form benchmark pins kappa = 1, got {kappa}")
        params: Union[Example1Params, Example2Params] = Example1Params(
            c=pvals["c"], T=T, kappa=kappa)
    else:
        params = Example2Params(alpha=pvals["alpha"], beta=pvals["beta"],
                                gamma=pvals["gamma"], a=pvals["a"], b=pvals["b"],
                                c=pvals["c"], kappa=kappa, T=T)

    solver = SolverConfig(spec=GridSpec(T=T, N=N, kappa=kappa), p=p, K_it=q,
                          M=M, seed=seed, sample_mode=sample_mode)
    return ExperimentConfig(example=example, params=params, solver=solver,
                            sweep=sweep, output_path=output_path)


def _sweep_points(config: ExperimentConfig) -> list[SolverConfig]:
    base = config.solver
    if config.sweep is None:
        return [base]
    axis, values = config.sweep
    points = []
    for v in values:
        if axis == "N":
            v = dataclasses.replace(base.spec, N=v)
        points.append(dataclasses.replace(base, **{_SWEEP_FIELDS[axis]: v}))
    return points


def _problem(config: ExperimentConfig) -> tuple[Driver, TerminalFunctional]:
    if config.example == "example1":
        assert isinstance(config.params, Example1Params)
        return Driver.linear_jump(config.params.c), TerminalFunctional.poisson_count()
    assert isinstance(config.params, Example2Params)
    pr = config.params
    return (Driver.linear(pr.alpha, pr.beta, pr.gamma),
            TerminalFunctional.exp_levy(pr.a, pr.b, pr.c))


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_coefficients(coeffs: ChaosCoefficients, path: str) -> None:
    """Serialize a coefficient vector as CSV (rank, nB, nP, d_value, weight)."""
    iset = coeffs.iset
    N = iset.N
    zeros = " ".join(["0"] * N)
    weights = coeffs.weights()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rank,nB,nP,d_value,weight\n")
        fh.write(f"0,{zeros},{zeros},{_fmt(coeffs.d0)},{_fmt(1.0)}\n")
        for j in range(iset.J):
            nb = " ".join(str(int(v)) for v in iset.degB[j])
            np_ = " ".join(str(int(v)) for v in iset.degP[j])
            fh.write(f"{j + 1},{nb},{np_},{_fmt(float(coeffs.values[j]))},"
                     f"{_fmt(float(weights[j]))}\n")


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

    Returns 0 iff every point completed; on failure writes the rows finished
    so far, reports the error on stderr and returns 1.
    """
    points = _sweep_points(config)
    driver, xi = _problem(config)
    axis = config.sweep[0] if config.sweep else None
    try:
        fh = open(config.output_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"chaosbsde: cannot open output {config.output_path!r}: {exc}",
              file=sys.stderr)
        return 1
    with fh:
        fh.write(CSV_HEADER + "\n")
        for point in points:
            try:
                row, coeffs = _run_point(config, point, driver, xi, threads)
            except Exception as exc:  # noqa: BLE001 - boundary reporting
                print(f"chaosbsde: sweep point failed ({_point_label(axis, point)}): "
                      f"{exc}", file=sys.stderr)
                return 1
            fh.write(row + "\n")
            fh.flush()
            if dump_coeffs:
                value = _axis_value(axis, point)
                write_coefficients(coeffs, _dump_path(config.output_path, axis, value))
    return 0


def _axis_value(axis: Optional[str], point: SolverConfig) -> Optional[int]:
    if axis is None:
        return None
    return point.spec.N if axis == "N" else getattr(point, _SWEEP_FIELDS[axis])


def _point_label(axis: Optional[str], point: SolverConfig) -> str:
    if axis is None:
        return "single run"
    return f"{axis}={_axis_value(axis, point)}"


def _run_point(config: ExperimentConfig, point: SolverConfig, driver: Driver,
               xi: TerminalFunctional, threads: int,
               ) -> tuple[str, ChaosCoefficients]:
    paths = draw_paths(point)  # outside the timer: wall_ms measures the solve
    t0 = time.perf_counter()
    grid = solve(point, driver, xi, paths=paths, threads=threads)
    wall_ms = (time.perf_counter() - t0) * 1e3
    if config.example == "example1":
        exact = example1_grid(config.params, grid.paths)
        y0, z0, u0 = example1_exact(config.params, 0.0, 0)
    else:
        exact = example2_grid(config.params, grid.paths)
        y0, z0, u0 = example2_exact(config.params, 0.0, 0.0, 0)
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
    if requested < 0:
        raise ValueError(f"--threads must be >= 0, got {requested}")
    if requested == 0:  # auto
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
                        help="worker threads; 0 = auto; values are identical for "
                             "every count and every BLAS thread count")
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
            config = dataclasses.replace(
                config, solver=dataclasses.replace(config.solver, seed=args.seed))
        threads = _resolve_threads(args.threads)
    except (ConfigError, ValueError) as exc:
        print(f"chaosbsde: {exc}", file=sys.stderr)
        return 2
    return run(config, threads=threads, dump_coeffs=args.dump_coeffs)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
