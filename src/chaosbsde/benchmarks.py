"""Closed-form reference problems and the discretized error norm.

Two linear jump BSDEs with known solutions serve as benchmarks.

Example 1 (counting terminal): the forward differential of Y carries drift
-c*U, so the driver in the backward integral form is f(t, y, z, u) = c*u
(Driver.linear_jump(c)); jump intensity fixed at kappa = 1, terminal value
xi = N_T. Exact solution:

    Y_t = N_t + (1 + c) * (T - t),   Z = 0,   U = 1.

Example 2 (exponential Levy terminal): drift -(alpha*Y + beta*Z + gamma*U),
driver f = alpha*y + beta*z + gamma*u (Driver.linear), terminal
xi = exp(a*T + b*B_T + c*N_T). Exact:

    Y_t = exp(a*T + b*B_t + c*N_t)
          * exp((alpha + ((b+beta)**2 - beta**2)/2) * (T-t)
                + (exp(c) - 1) * (kappa + gamma) * (T-t)),
    Z_t = b * Y_{t-},   U_t = (exp(c) - 1) * Y_{t-}.

Grid comparison convention: left limits coincide with grid values off a
probability-zero event (a jump landing exactly on a grid point), so exact
grids evaluate Y, Z, U at the state built from all increments up to and
including interval r. They are taken on the same PathBatch the solver
consumed, so error norms isolate method error from path randomness.

Exact grids are row streams, not SolutionGrid matrices: ``example1_grid``
and ``example2_grid`` return an ExactGrid whose ``rows()`` yields the
length-M vectors (y, z, u) for r = 0..N from running sums of the batch's
increments, so no (N+1) x M exact grid is ever held in memory.
SolutionGrid has the same ``rows()``, and ``error_norm`` reads any two such
streams in lockstep. It discretizes a supremum-in-time norm for Y and
time-integrated squared norms for Z and U:

    errY = mean_m max_r |dY|^2
    errZ = mean_m h * sum_{r>=1} |dZ|^2
    errU = kappa * mean_m h * sum_{r>=1} |dU|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .picard_solver import SolutionGrid
from .stochastic_grid import (GridSpec, PathBatch, _check_grid, _finite_real,
                             _real_array, _refuse_non_finite)

__all__ = [
    "Example1Params",
    "Example2Params",
    "example1_exact",
    "example2_exact",
    "ExactGrid",
    "example1_grid",
    "example2_grid",
    "error_norm",
]


class _Params:
    """Checks and stores the fields of a benchmark's parameters in field
    order, T and kappa last: T and kappa as :class:`GridSpec` stores them,
    every other field, any finite real number, as a Python float."""

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            if name not in ("T", "kappa"):
                object.__setattr__(self, name, _finite_real(name, getattr(self, name)))
        for name in ("T", "kappa"):
            value = _finite_real(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)

    def grid(self, N: int) -> GridSpec:
        return GridSpec(T=self.T, N=N, kappa=self.kappa)


@dataclass(frozen=True)
class Example1Params(_Params):
    """Counting-terminal benchmark parameters; kappa is pinned to 1."""

    c: float
    T: float
    kappa: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kappa != 1.0:
            raise ValueError(
                f"this benchmark's closed form is stated for kappa = 1, got {self.kappa}")


@dataclass(frozen=True)
class Example2Params(_Params):
    """Exponential-Levy benchmark parameters."""

    alpha: float
    beta: float
    gamma: float
    a: float
    b: float
    c: float
    kappa: float
    T: float


def _state(params: _Params, t, n_t) -> tuple[np.ndarray, np.ndarray]:
    """``t`` and ``n_t`` as float64 arrays (``_real_array``: TypeError
    unless real), ValueError unless every t is finite and lies in [0, T]
    and every N_t is finite and >= 0."""
    t = _real_array("t", t)
    _refuse_non_finite("t", t)
    if not np.all((t >= 0) & (t <= params.T)):
        raise ValueError("t must lie in [0, T]")
    n_t = _real_array("N_t", n_t)
    _refuse_non_finite("N_t", n_t)
    if not np.all(n_t >= 0):
        raise ValueError("N_t must be nonnegative")
    return t, n_t


def example1_exact(params: Example1Params, t, n_t):
    """Exact (y, z, u) of the counting benchmark at time t given N_t.

    t and N_t are real scalars or arrays of any int or float dtype
    (TypeError for a complex, str, object or bool one); ValueError unless
    every t is finite and lies in [0, T] and every N_t is finite and >= 0."""
    t, n_t = _state(params, t, n_t)
    y = n_t + (1.0 + params.c) * (params.T - t)
    if y.ndim == 0:
        return float(y), 0.0, 1.0
    return y, np.zeros_like(y), np.ones_like(y)


def example2_exact(params: Example2Params, t, b_t, n_t):
    """Exact (y, z, u) of the exponential-Levy benchmark at time t.

    t, B_t and N_t are real scalars or arrays of any int or float dtype
    (TypeError for a complex, str, object or bool one); ValueError unless
    every t is finite and in [0, T], every N_t is finite and >= 0 and every
    B_t is finite, and for a y, z or u that overflows float64, naming its
    first such entry."""
    t, n_t = _state(params, t, n_t)
    b_t = _real_array("B_t", b_t)
    _refuse_non_finite("B_t", b_t)
    rate = (params.alpha + ((params.b + params.beta) ** 2 - params.beta ** 2) / 2.0
            + (math.exp(params.c) - 1.0) * (params.kappa + params.gamma))
    # An overflow gives inf, or NaN from inf - inf, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.exp(params.a * params.T + params.b * b_t + params.c * n_t
                   + rate * (params.T - t))
        z = params.b * y
        u = (math.exp(params.c) - 1.0) * y
    for name, a in (("Y_t", y), ("Z_t", z), ("U_t", u)):
        _refuse_non_finite(name, a)
    if y.ndim == 0:
        return float(y), float(z), float(u)
    return y, z, u


@dataclass(frozen=True, eq=False)
class ExactGrid:
    """Closed-form (Y, Z, U) along a sampled batch, one grid row at a time.

    ``row(t, B_t, N_t)`` returns the exact (y, z, u) vectors at time t for
    the batch's Brownian and counting states at that time. It must not keep
    N_t, which is updated in place for the next row.
    """

    paths: PathBatch
    row: Callable[[float, np.ndarray, np.ndarray],
                  tuple[np.ndarray, np.ndarray, np.ndarray]]

    def rows(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (y, z, u) at grid times r = 0..N. B_t and N_t are running
        float64 sums over the batch's increments, added in the order
        ``np.cumsum`` adds them."""
        paths = self.paths
        spec = paths.spec
        sqrt_h = math.sqrt(spec.h)
        times = spec.times()
        g_sum = np.zeros(paths.M)
        counts = np.zeros(paths.M)
        for r in range(spec.N + 1):
            if r:
                g_sum += paths.G[:, r - 1]
                counts += paths.Q[:, r - 1]
            yield self.row(times[r], sqrt_h * g_sum, counts)


def example1_grid(params: Example1Params, paths: PathBatch) -> ExactGrid:
    """Exact solution of the counting benchmark along a sampled batch."""
    _check_grid(paths, params.grid(paths.spec.N), "params")
    return ExactGrid(paths, lambda t, b_t, n_t: example1_exact(params, t, n_t))


def example2_grid(params: Example2Params, paths: PathBatch) -> ExactGrid:
    """Exact solution of the exponential-Levy benchmark along a batch."""
    _check_grid(paths, params.grid(paths.spec.N), "params")
    return ExactGrid(paths, lambda t, b_t, n_t: example2_exact(params, t, b_t, n_t))


def error_norm(approx: SolutionGrid | ExactGrid, exact: SolutionGrid | ExactGrid,
               spec: GridSpec) -> tuple[float, float, float]:
    """Discretized squared error norms between two grid solutions.

    ``approx`` and ``exact`` are anything with ``rows()`` and ``paths``: a
    SolutionGrid or an ExactGrid. Returns (errY, errZ, errU):
    pathwise-sup-squared for Y averaged over samples, h-weighted time sums
    of squares for Z and U (the U norm also carries the jump intensity
    factor). Zero on identical grids; scales quadratically in the
    difference. Both grids are read one row at a time, in lockstep, so the
    working set is a few length-M vectors.
    """
    for grid in (approx, exact):
        if grid.paths is not None:
            _check_grid(grid.paths, spec, "error_norm")
    wrong_length = ValueError(f"grids must both have N+1 = {spec.N + 1} rows")
    r = -1
    for r, pair in enumerate(itertools.zip_longest(approx.rows(), exact.rows())):
        if r > spec.N or pair[0] is None or pair[1] is None:
            raise wrong_length
        (ya, za, ua), (ye, ze, ue) = pair
        if r == 0:
            shape = np.shape(ya)
            if len(shape) != 1:
                raise ValueError(f"Y rows have shape {shape}, expected (M,)")
            sup_y, sum_z, sum_u, d = (np.zeros(shape) for _ in range(4))
        for name, a, e in (("Y", ya, ye), ("Z", za, ze), ("U", ua, ue)):
            if np.shape(a) != shape or np.shape(e) != shape:
                raise ValueError(
                    f"{name} rows at grid index {r} have shapes {np.shape(a)} "
                    f"and {np.shape(e)}, expected {shape}")
        np.subtract(ya, ye, out=d)
        d *= d
        np.maximum(sup_y, d, out=sup_y)
        if r:
            for acc, a, e in ((sum_z, za, ze), (sum_u, ua, ue)):
                np.subtract(a, e, out=d)
                d *= d
                acc += d
    if r != spec.N:
        raise wrong_length
    errY = float(np.mean(sup_y))
    errZ = float(spec.h * np.mean(sum_z))
    errU = float(spec.kappa * spec.h * np.mean(sum_u))
    return errY, errZ, errU
