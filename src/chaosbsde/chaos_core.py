"""Truncated Wiener-Poisson chaos basis over a time grid.

A basis element for a grid with N intervals is indexed by a pair of degree
vectors n = (nB, nP) of length N and evaluates on a sample path to

    Phi_n = prod_i K_{nB[i]}(G[i]) * C_{nP[i]}(Q[i], kappa*h),

with the Hermite and Charlier families of :mod:`chaosbsde.orthopoly`. These
products are orthogonal with second moment

    w(n) = E[Phi_n**2] = (prod_i nP[i]!) * (kappa*h)**|nP| / (prod_i nB[i]!),

so the coefficient of a square-integrable functional F is estimated from M
Monte Carlo samples by the empirical mean

    d0_hat = mean(F),        d_n_hat = mean(F * Phi_n) / w(n).

The truncation keeps every multi-index with total degree |nB| + |nP| <= p.
Indices are enumerated graded by total degree, and within a grade by
descending lexicographic order of the concatenated vector (nB, nP), which
puts the two order-1 blocks (Brownian units, then jump units) first.

Sums over samples are accumulated in fixed chunks of 1024 and combined in
chunk order, so results are bit-identical across runs and across worker
thread counts. For p <= 2 a chunk's sums come from its stacked first-order
factors X = [K1; C1] (2N rows, one column per sample): row sums of F*X give
the units and one product (F*X) X^T every order-2 sum. That product is taken
over fixed sample blocks small enough for BLAS to run single-threaded, so
results do not depend on the BLAS thread count either. p >= 3 uses a
gather-based kernel over active slots.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .orthopoly import MAX_DEGREE, charlier_batch, hermite_batch
from .stochastic_grid import GridSpec, PathBatch

__all__ = [
    "MultiIndex",
    "ChaosCoefficients",
    "SizingError",
    "enumerate_indices",
    "weight",
    "estimate",
    "variance_diagnostic",
    "coefficients_from_entries",
    "DEFAULT_INDEX_CAP",
]

# Refuse to materialize truncated bases larger than this by default.
DEFAULT_INDEX_CAP = 10_000_000

# Fixed sample-chunk size for deterministic reductions. Small enough that
# per-chunk work dominates fixed overhead from ~1e3 samples upward.
_CHUNK = 1024

# OpenBLAS runs a GEMM of at most 2**18 multiply-adds on the calling thread
# (its default threading cut-off). The order <= 2 kernels keep every BLAS call
# under it, so BLAS never splits a product across threads: results do not
# depend on the BLAS thread count, and pool workers do not compete with BLAS
# threads for the same cores.
_BLAS_SERIAL_MACS = 1 << 18

# Cap on precomputed inverse weights; degenerate parameter corners can push
# 1/w past float64 range and the estimate should saturate, not turn inf/nan.
_INV_WEIGHT_GUARD = 1e300


class SizingError(ValueError):
    """Raised when a requested truncated basis exceeds the index cap."""


@dataclass(frozen=True)
class MultiIndex:
    """Degree vectors (nB, nP) of one chaos basis element, dense per slot."""

    nB: tuple[int, ...]
    nP: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nB) != len(self.nP):
            raise ValueError(
                f"nB and nP must have equal length, got {len(self.nB)} and {len(self.nP)}")
        for vec in (self.nB, self.nP):
            for d in vec:
                if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                    raise ValueError(f"degrees must be nonnegative ints, got {d!r}")

    @property
    def order(self) -> int:
        """Total degree |nB| + |nP|."""
        return sum(self.nB) + sum(self.nP)

    @property
    def support(self) -> int:
        """Largest slot (1-based) carrying a nonzero degree; 0 if none."""
        for i in range(len(self.nB) - 1, -1, -1):
            if self.nB[i] or self.nP[i]:
                return i + 1
        return 0


@dataclass(frozen=True)
class _SlotGroup:
    """Rows of an index set sharing an active-slot count.

    ``slots`` columns are ascending, so column -1 is the support slot.
    """

    rows: np.ndarray   # (Jg,) ranks into the flat coefficient vector
    slots: np.ndarray  # (Jg, g) active slot positions, 0-based
    dB: np.ndarray     # (Jg, g) Hermite degrees at those slots
    dP: np.ndarray     # (Jg, g) Charlier degrees at those slots


@dataclass(frozen=True, eq=False)
class _IndexSet:
    """Dense enumeration of the truncated basis for (N, p), rank-ordered."""

    N: int
    p: int
    J: int
    degB: np.ndarray     # (J, N) int8
    degP: np.ndarray     # (J, N) int8
    order: np.ndarray    # (J,) int16
    support: np.ndarray  # (J,) int16, 1-based
    bfact: np.ndarray    # (J,) float64, prod of nB[i]!
    pfact: np.ndarray    # (J,) float64, prod of nP[i]!
    sumP: np.ndarray     # (J,) int16

    def weights(self, jump_mean: float) -> np.ndarray:
        return self.pfact * np.power(jump_mean, self.sumP.astype(np.float64)) / self.bfact

    def inv_weights(self, jump_mean: float) -> np.ndarray:
        w = self.weights(jump_mean)
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / w
        return np.minimum(inv, _INV_WEIGHT_GUARD)

    # Rank layout used by the closed-form order <= 2 kernels. Stack the 2N
    # first-order factors of a path as X = [K1; C1] (Brownian slots, then
    # jump slots). Grade-1 ranks 0..2N-1 are the rows of X in order, and
    # grade-2 rank 2N + k is the product of rows (a, b) = np.triu_indices(2N)[k].
    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.triu_indices(2 * self.N)

    @cached_property
    def pair_diag(self) -> np.ndarray:
        """Ranks of the same-factor pairs (a, a): K2 then C2 per slot."""
        S = 2 * self.N
        a = np.arange(S)
        return S + a * S - (a * (a - 1)) // 2

    @cached_property
    def slot_groups(self) -> tuple[_SlotGroup, ...]:
        active = (self.degB > 0) | (self.degP > 0)
        counts = active.sum(axis=1)
        groups = []
        for g in range(1, self.p + 1):
            rows = np.nonzero(counts == g)[0]
            if rows.size == 0:
                continue
            slots = np.nonzero(active[rows])[1].reshape(rows.size, g)
            dB = self.degB[rows[:, None], slots]
            dP = self.degP[rows[:, None], slots]
            groups.append(_SlotGroup(rows=rows, slots=slots, dB=dB, dP=dP))
        return tuple(groups)


def _basis_count(N: int, p: int) -> int:
    # Compositions of total degree <= p over 2N slots, minus the empty index.
    return math.comb(2 * N + p, p) - 1


@lru_cache(maxsize=16)
def _build_index_set(N: int, p: int) -> _IndexSet:
    J = _basis_count(N, p)
    deg = np.zeros((J, 2 * N), dtype=np.int8)
    row = 0
    for k in range(1, p + 1):
        nk = math.comb(2 * N + k - 1, k)
        if k == 1:
            deg[row:row + nk][np.arange(2 * N), np.arange(2 * N)] = 1
        elif k == 2:
            iu, ju = np.triu_indices(2 * N)  # row-major pairs a <= b
            block = deg[row:row + nk]
            r = np.arange(nk)
            np.add.at(block, (r, iu), 1)
            np.add.at(block, (r, ju), 1)
        else:
            combos = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.combinations_with_replacement(range(2 * N), k)),
                dtype=np.int32, count=nk * k).reshape(nk, k)
            block = deg[row:row + nk]
            r = np.arange(nk)[:, None]
            np.add.at(block, (np.broadcast_to(r, combos.shape), combos), 1)
        row += nk
    assert row == J

    degB = np.ascontiguousarray(deg[:, :N])
    degP = np.ascontiguousarray(deg[:, N:])
    order = degB.sum(axis=1, dtype=np.int16) + degP.sum(axis=1, dtype=np.int16)
    active = (degB > 0) | (degP > 0)
    support = (N - np.argmax(active[:, ::-1], axis=1)).astype(np.int16)
    fact = np.array([math.factorial(i) for i in range(p + 1)], dtype=np.float64)
    # Row-blocked products keep the temporary gather bounded for huge J.
    bfact = np.empty(J)
    pfact = np.empty(J)
    for a in range(0, J, 1 << 16):
        sl = slice(a, min(a + (1 << 16), J))
        bfact[sl] = fact[degB[sl]].prod(axis=1)
        pfact[sl] = fact[degP[sl]].prod(axis=1)
    sumP = degP.sum(axis=1, dtype=np.int16)
    return _IndexSet(N=N, p=p, J=J, degB=degB, degP=degP, order=order,
                     support=support, bfact=bfact, pfact=pfact, sumP=sumP)


def _index_set(N: int, p: int, cap: int = DEFAULT_INDEX_CAP) -> _IndexSet:
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ValueError(f"p must be a nonnegative int, got {p!r}")
    if p > MAX_DEGREE:
        raise ValueError(f"p = {p} exceeds the degree cap {MAX_DEGREE}")
    count = _basis_count(N, p)
    if count > cap:
        raise SizingError(
            f"truncated basis for N={N}, p={p} has {count} indices, "
            f"exceeding the cap {cap}; lower p or raise index_cap")
    return _build_index_set(N, p)


def enumerate_indices(N: int, p: int, index_cap: int = DEFAULT_INDEX_CAP) -> list[MultiIndex]:
    """All multi-indices with 1 <= total degree <= p over N slots, ranked.

    Ordering is graded by total degree, then descending lexicographic on the
    concatenated degree vector (nB, nP). The first 2N entries are therefore
    the N Brownian unit indices followed by the N jump unit indices.

    Raises
    ------
    SizingError
        If the count C(2N+p, p) - 1 exceeds ``index_cap``.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError(f"N must be a positive int, got {N!r}")
    iset = _index_set(N, p, index_cap)
    return [MultiIndex(tuple(int(v) for v in iset.degB[j]),
                       tuple(int(v) for v in iset.degP[j]))
            for j in range(iset.J)]


def weight(n: MultiIndex, spec: GridSpec) -> float:
    """Second moment w(n) = E[Phi_n**2] of the basis element n on this grid."""
    if len(n.nB) != spec.N:
        raise ValueError(f"index has {len(n.nB)} slots, grid has {spec.N}")
    num = 1.0
    for d in n.nP:
        num *= math.factorial(d)
    den = 1.0
    for d in n.nB:
        den *= math.factorial(d)
    return num * spec.jump_mean ** sum(n.nP) / den


@dataclass(frozen=True, eq=False)
class ChaosCoefficients:
    """Estimated chaos coefficients of one functional, truncated at order p.

    ``values[j]`` is the coefficient of the j-th index in enumeration order
    (see :func:`enumerate_indices`); ``entries`` exposes the same data as a
    MultiIndex-keyed mapping. ``d0`` is the coefficient of the constant.
    """

    d0: float
    values: np.ndarray
    p: int
    spec: GridSpec
    iset: _IndexSet = field(repr=False)

    def __post_init__(self) -> None:
        if self.values.shape != (self.iset.J,):
            raise ValueError(
                f"values has shape {self.values.shape}, expected ({self.iset.J},)")

    @cached_property
    def entries(self) -> dict[MultiIndex, float]:
        keys = enumerate_indices(self.spec.N, self.p, index_cap=self.iset.J)
        return dict(zip(keys, (float(v) for v in self.values)))

    def entry(self, n) -> float:
        """Coefficient of one index (KeyError if outside the truncation).

        Accepts a MultiIndex or a plain (nB, nP) tuple pair.
        """
        if not isinstance(n, MultiIndex):
            nB, nP = n
            n = MultiIndex(tuple(int(v) for v in nB), tuple(int(v) for v in nP))
        return self.entries[n]

    def weights(self) -> np.ndarray:
        """w(n) for every enumerated index, rank-aligned with ``values``."""
        return self.iset.weights(self.spec.jump_mean)


def coefficients_from_entries(spec: GridSpec, p: int, d0: float = 0.0,
                              entries: dict | None = None,
                              index_cap: int = DEFAULT_INDEX_CAP,
                              ) -> ChaosCoefficients:
    """Build a ChaosCoefficients object from explicit (index, value) pairs.

    ``entries`` maps MultiIndex (or (nB, nP) tuple pairs) to coefficient
    values; every enumerated index absent from the map gets 0. Useful for
    constructing synthetic expansions in tests and experiments.
    """
    iset = _index_set(spec.N, p, index_cap)
    values = np.zeros(iset.J)
    if entries:
        rank = {(tuple(int(v) for v in iset.degB[j]),
                 tuple(int(v) for v in iset.degP[j])): j for j in range(iset.J)}
        for key, val in entries.items():
            if isinstance(key, MultiIndex):
                pair = (key.nB, key.nP)
            else:
                nB, nP = key
                pair = (tuple(nB), tuple(nP))
            if pair not in rank:
                raise KeyError(f"index {pair} is not in the order-{p} truncation")
            values[rank[pair]] = float(val)
    return ChaosCoefficients(d0=float(d0), values=values, p=p, spec=spec, iset=iset)


def _chunk_slices(M: int) -> list[slice]:
    return [slice(a, min(a + _CHUNK, M)) for a in range(0, M, _CHUNK)]


def _reduce_chunks(chunk_fn, M: int, n_out: int, threads: int) -> np.ndarray:
    """Sum chunk_fn over fixed chunks, combining partials in chunk order."""
    slices = _chunk_slices(M)
    total = np.zeros(n_out, dtype=np.float64)
    if threads <= 1 or len(slices) == 1:
        for sl in slices:
            total += chunk_fn(sl)
        return total
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # pool.map yields results in submission order regardless of which
        # worker finishes first, so the reduction order is fixed.
        for part in pool.map(chunk_fn, slices):
            total += part
    return total


def _check_functional(F, paths: PathBatch) -> np.ndarray:
    F = np.asarray(F, dtype=np.float64)
    if F.shape != (paths.M,):
        raise ValueError(f"F has shape {F.shape}, expected ({paths.M},)")
    bad = ~np.isfinite(F)
    if bad.any():
        m = int(np.argmax(bad))
        raise ValueError(f"F contains a non-finite value at sample {m}: {F[m]!r}")
    return F


def _block_width(N: int) -> int:
    """Sample-axis block width that keeps a 2N x 2N x width GEMM BLAS-serial."""
    return max(1, _BLAS_SERIAL_MACS // (2 * N) ** 2)


def _stacked_factors(G, Q, kh: float, sl: slice) -> np.ndarray:
    """First-order factors X = [K1; C1] of one chunk, time-major (2N, Mc)."""
    Gc = G[sl]
    Mc, N = Gc.shape
    X = np.empty((2 * N, Mc))
    X[:N] = Gc.T
    np.subtract(Q[sl].T, kh, out=X[N:])
    return X


def _pair_sums(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X.T as partial products over fixed sample blocks, summed in order."""
    width = _block_width(X.shape[0] // 2)
    S = A[:, :width] @ X[:, :width].T
    for a in range(width, X.shape[1], width):
        S += A[:, a:a + width] @ X[:, a:a + width].T
    return S


def _fast_sums_chunk(F, G, Q, kh: float, iset: _IndexSet, sl: slice,
                     squares: bool) -> np.ndarray:
    """Raw sums of F*Phi_n (and optionally (F*Phi_n)**2) over one chunk.

    Closed-form layout for p <= 2. With X = [K1; C1] the chunk's stacked
    first-order factors, the unit sums are the row sums of F*X, and one
    product S = (F*X) X^T holds every order-2 sum: S[a, b] for a < b is the
    pair (a, b), and the same-slot degree-2 sums follow from the diagonal
    through K2 = (K1**2 - 1)/2 and C2 = C1**2 - C1 - kh.
    """
    Fc = F[sl]
    X = _stacked_factors(G, Q, kh, sl)
    N2 = X.shape[0]
    N = N2 // 2
    n_out = 1 + iset.J
    out = np.empty(2 * n_out if squares else n_out, dtype=np.float64)

    FX = Fc * X
    sF = Fc.sum()
    out[0] = sF
    out[1:1 + N2] = FX.sum(axis=1)
    if iset.p >= 2:
        S = _pair_sums(FX, X)
        out[1 + N2:n_out] = S[iset.pairs]
        diag = np.diagonal(S)
        out[1 + iset.pair_diag[:N]] = 0.5 * (diag[:N] - sF)
        out[1 + iset.pair_diag[N:]] = diag[N:] - out[1 + N:1 + N2] - kh * sF
    if squares:
        sq = out[n_out:]
        F2 = Fc * Fc
        X2 = X * X
        F2X2 = F2 * X2
        sq[0] = F2.sum()
        sq[1:1 + N2] = F2X2.sum(axis=1)
        if iset.p >= 2:
            sq[1 + N2:] = _pair_sums(F2X2, X2)[iset.pairs]
            K2 = 0.5 * (X2[:N] - 1.0)
            C2 = X2[N:] - X[N:] - kh
            sq[1 + iset.pair_diag[:N]] = (F2 * (K2 * K2)).sum(axis=1)
            sq[1 + iset.pair_diag[N:]] = (F2 * (C2 * C2)).sum(axis=1)
    return out


def _generic_sums_chunk(F, G, Q, kh: float, iset: _IndexSet, sl: slice,
                        squares: bool) -> np.ndarray:
    """Raw sums over one chunk for arbitrary p via active-slot gathers."""
    Fc = F[sl]
    Gc = G[sl]
    Qf = Q[sl].astype(np.float64)
    Ktab = hermite_batch(iset.p, Gc)       # (p+1, Mc, N)
    Ctab = charlier_batch(iset.p, Qf, kh)  # (p+1, Mc, N)
    n_out = 1 + iset.J
    out = np.empty(2 * n_out if squares else n_out, dtype=np.float64)
    out[0] = Fc.sum()
    if squares:
        F2 = Fc * Fc
        out[n_out] = F2.sum()
    for grp in iset.slot_groups:
        # Advanced indexing with the middle axis sliced puts the (Jg,) index
        # dims first: each gather is (Jg, Mc).
        prod = (Ktab[grp.dB[:, 0], :, grp.slots[:, 0]]
                * Ctab[grp.dP[:, 0], :, grp.slots[:, 0]])
        for a in range(1, grp.slots.shape[1]):
            prod = prod * Ktab[grp.dB[:, a], :, grp.slots[:, a]]
            prod *= Ctab[grp.dP[:, a], :, grp.slots[:, a]]
        out[1 + grp.rows] = prod @ Fc
        if squares:
            out[1 + n_out + grp.rows] = (prod * prod) @ F2
    return out


def _raw_sums(F, paths: PathBatch, iset: _IndexSet, threads: int,
              squares: bool) -> np.ndarray:
    kh = paths.spec.jump_mean
    if iset.p <= 2 and iset.p >= 1:
        fn = _fast_sums_chunk
    else:
        fn = _generic_sums_chunk
    if iset.p == 0:
        def chunk_fn(sl):
            v = np.empty(2 if squares else 1)
            v[0] = F[sl].sum()
            if squares:
                v[1] = (F[sl] * F[sl]).sum()
            return v
        return _reduce_chunks(chunk_fn, paths.M, 2 if squares else 1, threads)
    n_out = 1 + iset.J
    return _reduce_chunks(
        lambda sl: fn(F, paths.G, paths.Q, kh, iset, sl, squares),
        paths.M, 2 * n_out if squares else n_out, threads)


def estimate(F, paths: PathBatch, p: int, *, threads: int = 1,
             index_cap: int = DEFAULT_INDEX_CAP) -> ChaosCoefficients:
    """Monte Carlo chaos coefficients of a terminal functional.

    Parameters
    ----------
    F : array_like
        Functional samples, shape (M,), one per path in ``paths``. Must be
        finite everywhere.
    paths : PathBatch
        Sample batch the functional was evaluated on.
    p : int
        Truncation order (total degree), >= 0.
    threads : int, optional
        Worker threads for the chunked reduction. Results are identical for
        every value, and for every BLAS thread count.
    index_cap : int, optional
        Refuse basis sizes beyond this (SizingError).

    Returns
    -------
    ChaosCoefficients
        d0 plus one coefficient per enumerated index.
    """
    F = _check_functional(F, paths)
    iset = _index_set(paths.spec.N, p, index_cap)
    raw = _raw_sums(F, paths, iset, threads, squares=False)
    d0 = raw[0] / paths.M
    values = raw[1:1 + iset.J] * iset.inv_weights(paths.spec.jump_mean) / paths.M
    return ChaosCoefficients(d0=float(d0), values=values, p=p,
                             spec=paths.spec, iset=iset)


def variance_diagnostic(F, paths: PathBatch, p: int, *, threads: int = 1,
                        index_cap: int = DEFAULT_INDEX_CAP) -> float:
    """Predicted mean-square estimation error of the truncated expansion,
    scaled by the sample count.

    Returns V such that E|C_hat(F) - C(F)|**2 = V / M when the estimated
    expansion is evaluated on paths independent of the estimation batch:

        V = Var(F) + sum_n Var(F * Phi_n) / w(n),

    with all variances replaced by their unbiased sample estimates. Note a
    constant functional c has V = c**2 * J (J = index count), not zero:
    every product c * Phi_n still fluctuates.
    """
    if paths.M < 2:
        raise ValueError("variance diagnostic requires at least 2 samples")
    F = _check_functional(F, paths)
    iset = _index_set(paths.spec.N, p, index_cap)
    raw = _raw_sums(F, paths, iset, threads, squares=True)
    n_out = 1 + iset.J
    s1 = raw[:n_out]
    s2 = raw[n_out:]
    M = paths.M
    var = (s2 - s1 * s1 / M) / (M - 1)
    np.maximum(var, 0.0, out=var)  # rounding can leave tiny negatives
    inv_w = iset.inv_weights(paths.spec.jump_mean)
    return float(var[0] + var[1:] @ inv_w)
