"""Regular time grid and reproducible batches of driving-noise increments.

The solver discretizes [0, T] into N intervals of width h = T/N and works
exclusively with standardized increments per interval: G[m, i] is the i-th
Brownian increment of sample path m divided by sqrt(h) (standard normal),
and Q[m, i] is the i-th Poisson interval count (mean kappa*h). Everything
downstream (basis evaluation, coefficient estimation, the Picard solver)
consumes these two arrays; raw paths are never materialized.

Storage is time-major: ``sample_paths`` keeps G and Q as (N, M) arrays,
one row of M samples per interval, and the batch exposes them as their
(M, N) transposes. A chunk of samples is then N unit-stride row slices, which
is how the kernels read it.

Reproducibility contract: ``sample_paths(spec, M, seed)`` returns identical
arrays for identical arguments on every run and platform, independent of any
thread count used elsewhere in the library. Generation uses the
counter-based Philox bit generator in a single fixed-order pass, so there is
no state shared with other streams to perturb.

Typical use::

    spec = GridSpec(T=1.0, N=20, kappa=1.0)
    paths = sample_paths(spec, M=100_000, seed=7)
    paths.G.shape   # (100000, 20)
    paths.G.T.flags.c_contiguous   # True: time-major storage
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["GridSpec", "PathBatch", "sample_paths", "MAX_POISSON_MEAN"]

# Largest supported per-interval jump mean. Above this the pmf head
# exp(-mean) underflows float64 and table inversion loses exactness.
MAX_POISSON_MEAN = 600.0

# Truncate the inversion table once the remaining tail mass is below this.
_TAIL_EPS = 1e-17

# Entries per row block of the draws (512 KB of float64); see _row_blocks.
_DRAW_BLOCK = 1 << 16


# The input rules of the whole package: every entry point checks its counts,
# positive reals, jump mean, arrays and batch grids with these.

def _count(name: str, value, minimum: int | None) -> int:
    """``value`` as a Python int: TypeError unless it is an int (numpy
    integers count, bools do not), ValueError below a ``minimum`` given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _finite_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a Python float: TypeError unless it is a real number
    (numpy reals count, bools do not), ValueError unless finite, and > 0
    when ``positive``. An int beyond the float range is not finite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    rule = "finite and > 0" if positive else "finite"
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be {rule}, got a number beyond the "
                         f"float range") from None
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise ValueError(f"{name} must be {rule}, got {x!r}")
    return x


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a float64 array: a float64 array as it is (no copy),
    signed and unsigned ints and other floats converted in their memory
    order; TypeError naming ``name`` and the dtype for any other dtype
    (complex, str, bytes, object, datetime, and bool, as for scalars)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise TypeError(f"{name} must be real, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _check_jump_mean(spec: "GridSpec") -> float:
    """The per-interval jump mean kappa*h of ``spec``; ValueError above
    MAX_POISSON_MEAN, the largest the Poisson draw supports."""
    mean = spec.jump_mean
    if not (mean <= MAX_POISSON_MEAN):
        raise ValueError(
            f"per-interval jump mean kappa*h = {mean:g} at N = {spec.N} exceeds "
            f"the supported maximum {MAX_POISSON_MEAN:g}; raise N")
    return mean


def _first_non_finite(a: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first non-finite entry of ``a`` in C order of its
    logical shape, whatever its memory layout, or None if there is none.
    The scan makes one boolean temporary of a's shape."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(finite), a.shape))


# Axes of a (grid index, sample) grid block, as refusals name them.
_GRID_AXES = ("grid index", "sample")


def _refuse_non_finite(name: str, a, axes: tuple[str, ...] | None = None,
                       start: tuple[int, ...] | None = None) -> None:
    """ValueError unless every entry of ``a`` is finite, naming ``name``,
    the first non-finite value in C order and its index: along ``axes``,
    offset by ``start`` where ``a`` is a block of a larger array, or as an
    entry when ``axes`` is None (no index for a scalar)."""
    bad = _first_non_finite(a)
    if bad is None:
        return
    at = bad if start is None else tuple(i + s for i, s in zip(bad, start))
    if axes is None:
        where = f" at entry {', '.join(map(str, at))}" if at else ""
    else:
        where = " at " + ", ".join(f"{axis} {i}" for axis, i in zip(axes, at))
    raise ValueError(f"{name} has a non-finite value {float(a[bad])!r}{where}")


def _finite_vector(name: str, values, length: int, at: str = "sample") -> np.ndarray:
    """``values`` as a float64 vector of shape (length,) (:func:`_real_array`:
    TypeError unless real): ValueError for another shape, or for a
    non-finite entry, named by its ``at`` index."""
    a = _real_array(name, values)
    if a.shape != (length,):
        raise ValueError(f"{name} has shape {a.shape}, expected ({length},)")
    _refuse_non_finite(name, a, (at,))
    return a


def _check_counts(name: str, a: np.ndarray, axes: tuple[str, ...] = ("sample",)) -> None:
    """ValueError unless ``a`` holds integer counts >= 0; the first negative
    count in C order is named by its index along ``axes``."""
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must hold integer counts, got dtype {a.dtype}")
    negative = a < 0
    if negative.any():
        at = np.unravel_index(np.argmax(negative), a.shape)
        where = ", ".join(f"{axis} {int(i)}" for axis, i in zip(axes, at))
        raise ValueError(f"{name} has a negative count at {where}: {int(a[at])}")


def _check_grid(paths: "PathBatch", spec: "GridSpec", owner: str) -> None:
    """ValueError unless ``paths`` was sampled on ``spec``, the grid of
    ``owner``."""
    if paths.spec != spec:
        raise ValueError(f"path batch grid {paths.spec} does not match the "
                         f"{owner} grid {spec}")


@dataclass(frozen=True)
class GridSpec:
    """Regular grid on [0, T] with N intervals and jump intensity kappa.

    Attributes
    ----------
    T : float
        Terminal time, strictly positive and finite.
    N : int
        Number of intervals, at least 1.
    kappa : float
        Intensity of the driving Poisson process, strictly positive.

    T and kappa may be given as any real number but a bool, numpy reals
    included, and are stored as Python floats; N as any int but a bool.
    """

    T: float
    N: int
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _count("N", self.N, 1))
        for name in ("T", "kappa"):
            value = _finite_real(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)

    @property
    def h(self) -> float:
        """Interval width T/N."""
        return self.T / self.N

    @property
    def jump_mean(self) -> float:
        """Per-interval jump mean kappa*h."""
        return self.kappa * self.h

    def times(self) -> np.ndarray:
        """Grid points t_i = i*h for i = 0..N (shape (N+1,)); the last is
        exactly T, where N * (T/N) can round above it."""
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True, eq=False)
class PathBatch:
    """M sample paths of standardized increments on a grid.

    Attributes
    ----------
    spec : GridSpec
        Grid the increments live on.
    M : int
        Number of sample paths, at least 1.
    G : numpy.ndarray
        Standardized Brownian increments, float64, shape (M, N), finite.
    Q : numpy.ndarray
        Poisson interval counts, shape (M, N), nonnegative: int16 from
        :func:`sample_paths`, any integer dtype in a batch built by hand.
    seed : int
        Seed the batch was generated from (kept for audit trails).

    The constructor, and so :meth:`rows`, raises TypeError for a non-int M
    (bools included) or a G that is not real (:func:`_real_array`: a
    complex, str, object or bool G), and ValueError for an M below 1, a
    shape other than (M, N), a non-finite increment in G, or a Q that is
    not an integer array or has a negative count: the kernels cannot use
    such a batch. A G of any int or float dtype is stored as float64.

    G and Q are always transposed views of time-major (N, M) arrays, and
    :meth:`rows` takes column views of those. A batch from
    :func:`sample_paths`, or a view of one, is stored as given; a G or Q
    built by hand whose sample axis is not unit-stride, such as a C-ordered
    (M, N) array, is copied once into time-major storage.
    """

    spec: GridSpec
    M: int
    G: np.ndarray
    Q: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _count("M", self.M, 1))
        object.__setattr__(self, "G", _real_array("G", self.G))
        expected = (self.M, self.spec.N)
        if self.G.shape != expected:
            raise ValueError(f"G has shape {self.G.shape}, expected {expected}")
        if self.Q.shape != expected:
            raise ValueError(f"Q has shape {self.Q.shape}, expected {expected}")
        _refuse_non_finite("G", self.G, ("sample", "interval"))
        _check_counts("Q", self.Q, ("sample", "interval"))
        for name in ("G", "Q"):
            a = getattr(self, name)
            if a.strides[0] != a.itemsize:
                object.__setattr__(self, name, np.ascontiguousarray(a.T).T)

    def rows(self, start: int, stop: int) -> "PathBatch":
        """View of sample paths start..stop-1 as a new batch (no copy); on
        time-major storage these are columns start..stop-1. start and stop
        are ints (TypeError otherwise), 0 <= start < stop <= M (ValueError)."""
        start, stop = _count("start", start, None), _count("stop", stop, None)
        if not (0 <= start < stop <= self.M):
            raise ValueError(f"invalid row range [{start}, {stop}) for M={self.M}")
        return PathBatch(self.spec, stop - start, self.G[start:stop],
                         self.Q[start:stop], self.seed)


@lru_cache(maxsize=32)
def _poisson_cdf(mean: float) -> np.ndarray:
    """CDF table of the Poisson(mean) law, truncated at tail mass < 1e-17."""
    pmf = math.exp(-mean)  # > 0 whenever mean <= MAX_POISSON_MEAN
    cdf = [pmf]
    k = 0
    # Extend past the mode until the term itself is negligible; beyond the
    # mode terms decay geometrically, so the dropped tail is O(pmf).
    while pmf > _TAIL_EPS or k < mean:
        k += 1
        pmf *= mean / k
        cdf.append(cdf[-1] + pmf)
    return np.asarray(cdf, dtype=np.float64)


def sample_paths(spec: GridSpec, M: int, seed: int) -> PathBatch:
    """Draw M paths of standardized increments, deterministically in seed.

    Parameters
    ----------
    spec : GridSpec
        Grid to sample on.
    M : int
        Number of sample paths, at least 1.
    seed : int
        Nonnegative seed for the counter-based generator.

    Returns
    -------
    PathBatch
        Batch with G ~ iid standard normal and Q ~ iid Poisson(kappa*h),
        mutually independent, identical across runs for identical inputs.
        G (float64) and Q (int16) are (M, N) views of time-major (N, M)
        storage, 10*N*M bytes in all; the draw itself makes no
        (M, N)-sized temporary. Integer arithmetic on Q wraps past 32767:
        widen it (``Q.astype(np.int64)``) or sum it first.

    Raises
    ------
    ValueError
        If M < 1, or kappa*h exceeds the supported range.
    TypeError
        If M or seed is not an integer.
    """
    M = _count("M", M, 1)
    seed = _count("seed", seed, 0)
    G, Q = _draw_time_major(np.random.Generator(np.random.Philox(seed)), M,
                            spec.N, _poisson_cdf(_check_jump_mean(spec)))
    return PathBatch(spec=spec, M=M, G=G.T, Q=Q.T, seed=seed)


def _draw_time_major(rng: np.random.Generator, M: int, N: int,
                     cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G and Q of M paths as time-major (N, M) arrays, the Poisson counts
    by inversion of ``cdf``. Its block buffers are freed when it returns,
    before the batch is checked."""
    # Single fixed-order pass: Gaussians first, then the uniforms that drive
    # Poisson inversion. Changing this order changes every seeded result, so
    # it is part of the reproducibility contract. Both come in row blocks,
    # which continue the stream exactly as one (M, N) draw would, and each
    # block is transposed into time-major storage as it is drawn.
    blocks = _row_blocks(M, N)
    block = np.empty((blocks[0][1], N))
    G = np.empty((N, M))
    for a, b in blocks:
        G[:, a:b] = rng.standard_normal(out=block[:b - a]).T
    # Q = #{k : cdf[k] <= u} never exceeds the table length, 817 at
    # MAX_POISSON_MEAN, so int16 holds every count in 2 bytes. A test pins
    # that bound, so a cap raised past int16 fails there instead of wrapping.
    Q = np.zeros((N, M), dtype=np.int16)
    for a, b in blocks:
        _invert_block(rng.random(out=block[:b - a]), cdf, Q, a)
    return G, Q


def _invert_block(u: np.ndarray, cdf: np.ndarray, Q: np.ndarray, a: int) -> None:
    """Write the Poisson counts of the (rows, N) uniforms ``u`` of samples
    a, a+1, ... into columns a.. of the zeroed time-major counts Q.

    Inversion: Q = #{k : cdf[k] <= u}. searchsorted returns the insertion
    point to the right, which is exactly that count; it is 0 below cdf[0],
    so only the hits are searched and written. Entry m*N + i of the block
    is sample a + m at interval i, entry i*M + a + m of Q. The index
    arithmetic runs in place, and the arrays die at return, so at most three
    hit-sized arrays are alive at once."""
    N, M = Q.shape
    hit = np.flatnonzero(u >= cdf[0])
    counts = np.searchsorted(cdf, u.reshape(-1)[hit], side="right")
    at = hit % N
    at *= M
    hit //= N
    at += hit
    at += a
    Q.reshape(-1)[at] = counts


def _row_blocks(M: int, N: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) that split M samples of N intervals into blocks of
    about _DRAW_BLOCK entries, at least one row each."""
    rows = max(1, _DRAW_BLOCK // N)
    return [(a, min(a + rows, M)) for a in range(0, M, rows)]
