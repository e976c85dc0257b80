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

The running sums sum_{i<=j} f_i are F_{t_j}-measurable, so the scheme may
subtract them path by path. They live in Y itself: once f_j is computed
from row j of the iterate, Y_j is not read again, so it is overwritten with
f_1 + ... + f_j (added in row order), F takes the last of them, and
``evaluate_grid`` writes each new Y_j as the conditional value minus h times
the sum it finds there. A solve thus holds the paths and three (N+1) x M
grids per batch, and no other array of that size.

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

from .chaos_core import ChaosCoefficients, _admit_basis, estimate
from .chaos_eval import evaluate_grid
from .stochastic_grid import (_GRID_AXES, GridSpec, PathBatch, _check_grid, _count,
                             _finite_vector, _first_non_finite, _real_array,
                             _refuse_non_finite, _row_blocks, sample_paths)

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
    return finite real values for finite inputs, as a scalar or an array of
    the same length, of any int or float dtype: ``solve`` refuses a
    complex, str, object or bool one with TypeError. ``solve`` passes views
    of grid rows that it overwrites after ``eval`` returns, so ``eval``
    must neither modify nor keep them.
    """

    eval: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def linear_jump(cls, c: float) -> "Driver":
        """f(t, y, z, u) = c * u."""
        def _eval(t, y, z, u):
            with np.errstate(over="ignore", invalid="ignore"):  # solve refuses inf
                return c * u

        return cls(_eval)

    @classmethod
    def linear(cls, alpha: float, beta: float, gamma: float) -> "Driver":
        """f(t, y, z, u) = alpha*y + beta*z + gamma*u."""
        def _eval(t, y, z, u):
            # Two temporaries per call, summed in the order of the formula.
            # An overflow, or 0 * inf, gives a value solve refuses.
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.multiply(alpha, y, out=np.empty(np.shape(y)))
                tmp = np.multiply(beta, z, out=np.empty(np.shape(z)))
                out += tmp
                out += np.multiply(gamma, u, out=tmp)
            return out

        return cls(_eval)

    @classmethod
    def zero(cls) -> "Driver":
        """f identically 0 (driverless conditional-expectation problems)."""
        return cls(lambda t, y, z, u: np.zeros_like(y))

    @classmethod
    def custom(cls, fn: Callable) -> "Driver":
        return cls(fn)


def _row_sums(A: np.ndarray) -> np.ndarray:
    """Per-path sums of an (M, N) float array, each added as numpy adds a row
    of a C-ordered array. On a transposed view of time-major storage numpy
    adds them in another order, which moves results by rounding, so the
    rows are summed from C-ordered copies of one block at a time."""
    M, N = A.shape
    out = np.empty(M)
    for a, b in _row_blocks(M, N):
        np.ascontiguousarray(A[a:b]).sum(axis=1, out=out[a:b])
    return out


@dataclass(frozen=True)
class TerminalFunctional:
    """Terminal value xi, vectorized over the paths of a batch.

    ``eval(paths)`` returns the length-M vector of terminal values, one per
    path of the PathBatch, finite and of any int or float dtype
    (:func:`terminal_samples` refuses a complex, str, object or bool one
    with TypeError). Square-integrability of xi is the caller's
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
            # An overflow gives inf, which terminal_samples refuses.
            with np.errstate(over="ignore", invalid="ignore"):
                return np.exp(a * spec.T + b * math.sqrt(spec.h) * _row_sums(paths.G)
                              + c * paths.Q.sum(axis=1))

        return cls(_eval)

    @classmethod
    def custom(cls, fn: Callable[[PathBatch], np.ndarray]) -> "TerminalFunctional":
        return cls(fn)


@dataclass(frozen=True)
class SolverConfig:
    """Everything that determines a solve's result.

    Thread counts and other execution details are deliberately not part of
    the config: results are a function of this object alone. p >= 0, as
    for the basis; :func:`draw_paths` and :func:`solve` refuse one above the
    degree cap.
    """

    spec: GridSpec
    p: int
    K_it: int
    M: int
    seed: int
    sample_mode: str = "reuse"

    def __post_init__(self) -> None:
        for name, lo in (("p", 0), ("K_it", 1), ("M", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), lo))
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
    paths: Optional[PathBatch] = None

    def rows(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (Y[r], Z[r], U[r]) for r = 0..N, the row stream that
        ``benchmarks.error_norm`` reads."""
        return zip(self.Y, self.Z, self.U)


def terminal_samples(xi: TerminalFunctional, paths: PathBatch) -> np.ndarray:
    """Evaluate the terminal functional on every path of a batch.

    Returns a length-M float64 vector. Outputs that are not real raise
    TypeError; non-finite ones are reported with the offending sample
    index.
    """
    return _finite_vector("terminal functional", xi.eval(paths), paths.M)


def _path_count(config: SolverConfig) -> int:
    """``independent`` mode needs 2M paths (first M estimate coefficients,
    second M evaluate the expansion); ``reuse`` needs M."""
    return config.M if config.sample_mode == "reuse" else 2 * config.M


def draw_paths(config: SolverConfig) -> PathBatch:
    """Sample batch a solve with this config consumes. A p above the degree
    cap, or a basis over the byte budget, is refused before any path is
    drawn."""
    _admit_basis(config.spec.N, config.p)
    return sample_paths(config.spec, _path_count(config), config.seed)


def _driver_sums(driver: Driver, times: np.ndarray, Y, Z, U, iteration: int) -> None:
    """Overwrite rows 1..N of Y with the running driver sums
    f_1 + ... + f_i, added in row order, of the current iterate.

    Each driver row is checked before it is added (TypeError unless real,
    ValueError for another shape or a non-finite entry). The iterate's y, z
    and u are then still in place, so at a non-finite f_i a non-finite one
    of them is named as the value the previous evaluation made, and
    otherwise the driver output is named. Every added row is finite, so a
    sum that overflows stays non-finite to the last row: that row alone is
    scanned, and only if it fails are the rows walked back to the first
    overflowing grid index.
    Row i of Y is read only by the driver call at row i, so it is free once
    that call returns. The driver is never evaluated at time 0: the
    quadrature uses right endpoints only.
    """
    M = Y.shape[1]
    at = f"at iteration {iteration + 1}"
    for i in range(1, Y.shape[0]):
        vals = _real_array(f"driver output {at}, grid index {i}",
                           driver.eval(float(times[i]), Y[i], Z[i], U[i]))
        if vals.shape not in ((), (M,)):
            raise ValueError(f"driver returned shape {vals.shape} {at}, grid index {i}, "
                             f"expected a scalar or ({M},)")
        f = np.broadcast_to(vals, (1, M))
        bad = _first_non_finite(f)
        if bad is not None:
            m = bad[1]
            for name, grid in (("Y", Y), ("Z", Z), ("U", U)):
                _refuse_non_finite(f"{name} of iteration {iteration}",
                                   grid[i:i + 1, m:m + 1], _GRID_AXES, (i, m))
            _refuse_non_finite(f"driver output {at}", f, _GRID_AXES, (i, 0))
        if i == 1:
            Y[1] = vals
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(vals, Y[i - 1], out=Y[i])
    if _first_non_finite(Y[-1]) is not None:
        _refuse_non_finite(f"running driver sum {at}", Y[1:], _GRID_AXES, (1, 0))


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
        Most worker threads per estimation and evaluation call, >= 1; a call
        runs one where a second cannot overlap it
        (:func:`chaosbsde.chaos_core.estimate`). Never affects values.
        Checked, like p and the byte budget of the basis, before any paths
        are drawn or the terminal functional is evaluated.

    Returns
    -------
    SolutionGrid
        Final iterate, its coefficients, and the batch the returned grid is
        evaluated on.
    """
    _count("threads", threads, 1)
    spec = config.spec
    if paths is None:
        paths = draw_paths(config)
    else:
        _admit_basis(spec.N, config.p)
        need = _path_count(config)
        _check_grid(paths, spec, "config")
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
    # Per batch: the (Y, Z, U) grid, refilled every iteration. Between the
    # driver pass and the evaluation, Y's rows 1..N hold the driver sums.
    grids = [tuple(np.zeros((N + 1, b.M)) for _ in range(3)) for b in batches]

    coeffs: Optional[ChaosCoefficients] = None
    for q in range(config.K_it):
        for grid in grids:
            _driver_sums(driver, times, *grid, q)
        with np.errstate(over="ignore", invalid="ignore"):
            F = xi_est + h * grids[0][0][N]
        _refuse_non_finite(f"F at iteration {q + 1}", F, ("sample",))
        coeffs = estimate(F, batches[0], config.p, threads=threads)
        for batch, grid in zip(batches, grids):
            evaluate_grid(coeffs, batch, threads=threads, out=grid, _sums_h=h)

    # Row by row: a whole-grid scan would make an (N+1) x M temporary.
    Y, Z, U = grids[-1]
    for name, grid in (("Y", Y), ("Z", Z), ("U", U)):
        for r in range(N + 1):
            _refuse_non_finite(f"{name} of iteration {config.K_it}", grid[r:r + 1],
                               _GRID_AXES, (r, 0))

    return SolutionGrid(Y=Y, Z=Z, U=U, coeffs_final=coeffs, paths=batches[-1])
