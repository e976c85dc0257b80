"""Forward Picard scheme for backward SDEs with jumps, on a regular grid.

The unknown is a triple of processes (Y, Z, U) satisfying a backward
equation with terminal value xi and driver f(t, y, z, u). Each Picard
iteration assembles the scalar functional

    F = xi + h * sum_{i=1..N} f(t_i, Y_i, Z_i, U_i)

from the current iterate (starting from (Y, Z, U) identically zero),
re-estimates its chaos coefficients on the sample batch, and reads off the
next iterate at every grid time j:

    Y_j <- (conditional expansion value at j) - h * sum_{i=1..j} f(t_i, ...)
    Z_j <- Brownian-direction derivative evaluator at j
    U_j <- jump-direction derivative evaluator at j,

with the driver always evaluated at the grid values of the iterate that
produced F (never at time 0). Row 0 of the returned grid is deterministic:
Y_0 is the constant coefficient, Z_0 and U_0 the first-order unit
coefficients (scaled by 1/sqrt(h) for Z).

Sampling modes: ``reuse`` estimates coefficients and evaluates the expansion
on the same M paths; ``independent`` draws 2M paths, estimating on the first
M and evaluating on the second M, which is the regime the error analysis
of the estimator assumes (at twice the path cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .chaos_core import ChaosCoefficients, estimate
from .chaos_eval import evaluate_grid
from .stochastic_grid import GridSpec, PathBatch, sample_paths

__all__ = [
    "Driver",
    "TerminalFunctional",
    "SolverConfig",
    "SolutionGrid",
    "terminal_samples",
    "draw_paths",
    "solve",
]

_SAMPLE_MODES = ("reuse", "independent")


@dataclass(frozen=True)
class Driver:
    """BSDE driver f(t, y, z, u), vectorized over samples.

    ``eval`` must accept scalar t and equal-length arrays (y, z, u) and
    return finite values for finite inputs.
    """

    eval: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def linear_jump(cls, c: float) -> "Driver":
        """f(t, y, z, u) = c * u."""
        return cls(lambda t, y, z, u: c * u)

    @classmethod
    def linear(cls, alpha: float, beta: float, gamma: float) -> "Driver":
        """f(t, y, z, u) = alpha*y + beta*z + gamma*u."""
        return cls(lambda t, y, z, u: alpha * y + beta * z + gamma * u)

    @classmethod
    def zero(cls) -> "Driver":
        """f identically 0 (driverless conditional-expectation problems)."""
        return cls(lambda t, y, z, u: np.zeros_like(y))

    @classmethod
    def custom(cls, fn: Callable) -> "Driver":
        return cls(fn)


@dataclass(frozen=True)
class TerminalFunctional:
    """Terminal value xi, vectorized over the paths of a batch.

    ``eval(paths)`` returns the length-M vector of terminal values, one per
    path of the PathBatch. Square-integrability of xi is the caller's
    responsibility; it is not checked.
    """

    eval: Callable[[PathBatch], np.ndarray]

    @classmethod
    def poisson_count(cls) -> "TerminalFunctional":
        """xi = total jump count over [0, T]."""
        return cls(lambda paths: paths.Q.sum(axis=1).astype(np.float64))

    @classmethod
    def exp_levy(cls, a: float, b: float, c: float) -> "TerminalFunctional":
        """xi = exp(a*T + b*B_T + c*N_T), with B_T = sqrt(h) * sum(G)."""
        def _eval(paths: PathBatch) -> np.ndarray:
            spec = paths.spec
            return np.exp(a * spec.T + b * math.sqrt(spec.h) * paths.G.sum(axis=1)
                          + c * paths.Q.sum(axis=1))

        return cls(_eval)

    @classmethod
    def custom(cls, fn: Callable[[PathBatch], np.ndarray]) -> "TerminalFunctional":
        return cls(fn)


@dataclass(frozen=True)
class SolverConfig:
    """Everything that determines a solve's result.

    Thread counts and other execution details are deliberately not part of
    the config: results are a function of this object alone.
    """

    spec: GridSpec
    p: int
    K_it: int
    M: int
    seed: int
    sample_mode: str = "reuse"
    keep_history: bool = False  # retain per-iteration coefficients

    def __post_init__(self) -> None:
        for name, lo in (("p", 1), ("K_it", 1), ("M", 1), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{name} must be an int, got {type(v).__name__}")
            if v < lo:
                raise ValueError(f"{name} must be >= {lo}, got {v}")
        if self.sample_mode not in _SAMPLE_MODES:
            raise ValueError(
                f"sample_mode must be one of {_SAMPLE_MODES}, got {self.sample_mode!r}")


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Picard iterate on the grid: (N+1) x M matrices for Y, Z and U.

    Row r holds the value at grid time r for every sample path. Row 0 is
    constant across samples: Y[0] is the constant coefficient of the final
    expansion, Z[0] its first Brownian unit coefficient over sqrt(h), U[0]
    its first jump unit coefficient.
    """

    Y: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    coeffs_final: Optional[ChaosCoefficients]
    history: Optional[tuple[ChaosCoefficients, ...]] = None
    paths: Optional[PathBatch] = None

    def rows(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (Y[r], Z[r], U[r]) for r = 0..N, the row stream that
        ``benchmarks.error_norm`` reads."""
        return zip(self.Y, self.Z, self.U)


def terminal_samples(xi: TerminalFunctional, paths: PathBatch) -> np.ndarray:
    """Evaluate the terminal functional on every path of a batch.

    Returns a length-M float vector. Non-finite outputs are reported with
    the offending sample index.
    """
    out = np.asarray(xi.eval(paths), dtype=np.float64)
    if out.shape != (paths.M,):
        raise ValueError(
            f"terminal functional returned shape {out.shape}, expected ({paths.M},)")
    bad = ~np.isfinite(out)
    if bad.any():
        m = int(np.argmax(bad))
        raise ValueError(
            f"terminal functional returned non-finite value {out[m]!r} at sample {m}")
    return out


def _path_count(config: SolverConfig) -> int:
    """``independent`` mode needs 2M paths (first M estimate coefficients,
    second M evaluate the expansion); ``reuse`` needs M."""
    return config.M if config.sample_mode == "reuse" else 2 * config.M


def draw_paths(config: SolverConfig) -> PathBatch:
    """Sample batch a solve with this config consumes."""
    return sample_paths(config.spec, _path_count(config), config.seed)


def _driver_sums(driver: Driver, times: np.ndarray, Y, Z, U, iteration: int, *,
                 out: np.ndarray) -> None:
    """Write the running driver sums out[i-1] = f_1 + ... + f_i, added in
    row order, of the current iterate into ``out``, shape (N, M), checking
    each row f_i (the driver at grid row i) as it is produced. The driver is
    never evaluated at time 0: the quadrature uses right endpoints only.
    """
    N, M = out.shape
    for i in range(1, N + 1):
        vals = np.asarray(driver.eval(float(times[i]), Y[i], Z[i], U[i]),
                          dtype=np.float64)
        row = out[i - 1]
        row[:] = np.broadcast_to(vals, (M,))
        finite = np.isfinite(row)
        if not finite.all():
            raise ValueError(
                f"driver returned non-finite value at iteration {iteration + 1}, "
                f"grid index {i}, sample {int(np.argmin(finite))}")
        if i > 1:
            row += out[i - 2]


def solve(config: SolverConfig, driver: Driver, xi: TerminalFunctional, *,
          paths: Optional[PathBatch] = None, threads: int = 1) -> SolutionGrid:
    """Run the Picard iteration and return the final grid solution.

    Parameters
    ----------
    config : SolverConfig
        Grid, truncation order, iteration and sample counts, seed, mode.
    driver : Driver
        BSDE driver f.
    xi : TerminalFunctional
        Terminal value functional.
    paths : PathBatch, optional
        Pre-drawn batch (must match ``draw_paths(config)`` in shape); drawn
        from the config seed when omitted. Passing it lets callers time the
        solve separately from path generation.
    threads : int, optional
        Worker threads for estimation and evaluation; never affects values.

    Returns
    -------
    SolutionGrid
        Final iterate, its coefficients, optional per-iteration coefficient
        history, and the batch the returned grid is evaluated on.
    """
    spec = config.spec
    if paths is None:
        paths = draw_paths(config)
    else:
        need = _path_count(config)
        if paths.spec != spec:
            raise ValueError(
                f"provided paths use grid {paths.spec}, config expects {spec}")
        if paths.M != need:
            raise ValueError(
                f"provided batch has {paths.M} paths, config ({config.sample_mode}) "
                f"needs {need}")

    # Coefficients are estimated on the first batch; every batch gets the
    # next iterate evaluated on it, and the last one is returned.
    if config.sample_mode == "independent":
        batches = [paths.rows(0, config.M), paths.rows(config.M, 2 * config.M)]
    else:
        batches = [paths]
    xi_est = terminal_samples(xi, batches[0])
    N = spec.N
    h = spec.h
    times = spec.times()
    # Per batch: the (Y, Z, U) grid and its running driver sums, both
    # refilled every iteration.
    grids = [tuple(np.zeros((N + 1, b.M)) for _ in range(3)) for b in batches]
    sums = [np.empty((N, b.M)) for b in batches]
    history: Optional[list[ChaosCoefficients]] = [] if config.keep_history else None

    coeffs: Optional[ChaosCoefficients] = None
    for q in range(config.K_it):
        for grid, S in zip(grids, sums):
            _driver_sums(driver, times, *grid, q, out=S)
        F = xi_est + h * sums[0][-1]
        bad = ~np.isfinite(F)
        if bad.any():
            raise ValueError(
                f"non-finite functional at iteration {q + 1}, "
                f"sample {int(np.argmax(bad))}")
        coeffs = estimate(F, batches[0], config.p, threads=threads)
        if history is not None:
            history.append(coeffs)
        for batch, grid, S in zip(batches, grids, sums):
            evaluate_grid(coeffs, batch, threads=threads, out=grid)
            S *= h  # read again only after the next iteration refills it
            grid[0][1:] -= S

    Y, Z, U = grids[-1]
    for name, arr in (("Y", Y), ("Z", Z), ("U", U)):
        bad = ~np.isfinite(arr)
        if bad.any():
            r, m = np.unravel_index(int(np.argmax(bad)), arr.shape)
            raise ValueError(
                f"non-finite {name} value in final grid at grid index {r}, sample {m}")

    return SolutionGrid(Y=Y, Z=Z, U=U, coeffs_final=coeffs,
                        history=tuple(history) if history is not None else None,
                        paths=batches[-1])
