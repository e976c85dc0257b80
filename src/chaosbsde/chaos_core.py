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
results do not depend on the BLAS thread count either. Other orders build
each basis product from a lower-order one by the prefix recursion of
:class:`_PrefixPlan`, and make no BLAS call.
"""

from __future__ import annotations

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
]

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

# Refuse a problem whose index set plus per-worker kernel buffers would need
# more bytes than this, before allocating any of it. This is the only size
# guard; with p <= MAX_DEGREE it admits no basis of 10**7 or more indices.
_BYTE_BUDGET = 1 << 30


class SizingError(ValueError):
    """Raised when a truncated basis and its kernel buffers would exceed the
    byte budget."""


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


@dataclass(frozen=True, eq=False)
class _IndexSet:
    """Dense enumeration of the truncated basis for (N, p), rank-ordered."""

    N: int
    p: int
    J: int
    degB: np.ndarray     # (J, N) int8
    degP: np.ndarray     # (J, N) int8
    support: np.ndarray  # (J,) int16, 1-based
    bfact: np.ndarray    # (J,) float64, prod of nB[i]!
    pfact: np.ndarray    # (J,) float64, prod of nP[i]!
    sumP: np.ndarray     # (J,) int16
    prefix: "_PrefixPlan"

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


def _basis_count(N: int, p: int) -> int:
    # Compositions of total degree <= p over 2N slots, minus the empty index.
    return math.comb(2 * N + p, p) - 1


@dataclass(frozen=True, eq=False)
class _PrefixPlan:
    """Layout of the prefix recursion behind the kernels for p >= 3 and p = 0.

    Let r be the support slot of index j and (a, b) its Hermite and Charlier
    degrees there. Its parent, j with slot r zeroed, has lower order, and

        Phi_j = Phi_parent(j) * K_a(G_r) * C_b(Q_r).

    Prefix order puts the constant first, then the indices graded by order,
    then by r, by (a, b) and by their parent's position. The indices sharing
    (order g, r, a, b) form a group whose parents, each once and in order,
    are the indices of order g - a - b supported before r: both are runs of
    consecutive positions. Per chunk the kernels tabulate the slot factors
    KC, row k*N + r being K_a(G_r) * C_b(Q_r) for (a, b) = pairs[k], and
    Phi_pre, Phi at the first n_pre positions (the orders below p).
    """

    pairs: tuple[tuple[int, int], ...]  # (a, b) with a + b <= p, (0, 0) first
    n_pre: int                          # rows of Phi_pre, 1 + J_{p-1}
    pos: np.ndarray                     # (J,) prefix position of each rank
    # Per group, in prefix order: (first position, end position, first
    # parent position, KC row).
    groups: tuple[tuple[int, int, int, int], ...]


@lru_cache(maxsize=16)
def _build_index_set(N: int, p: int) -> _IndexSet:
    J = _basis_count(N, p)
    pairs = tuple((a, b) for a in range(p + 1) for b in range(p + 1 - a))
    fact = [math.factorial(i) for i in range(p + 1)]
    # Enumerate in prefix order, one group at a time: a group's rows are its
    # parents' rows with the degrees (a, b) put at slot r.
    deg = np.zeros((1 + J, 2 * N), dtype=np.int8)
    supp = np.zeros(1 + J, dtype=np.int16)
    bfact = np.ones(1 + J)
    pfact = np.ones(1 + J)
    sumP = np.zeros(1 + J, dtype=np.int16)
    starts = [0, 1]  # first position of each grade
    groups = []
    for g in range(1, p + 1):
        for r in range(N):
            for k, (a, b) in enumerate(pairs):
                if not 1 <= a + b <= g:
                    continue
                # Parents: order g - a - b, supported before slot r.
                p_lo, p_hi = starts[g - a - b], starts[g - a - b + 1]
                p_hi = p_lo + int(np.searchsorted(supp[p_lo:p_hi], r, side="right"))
                lo = groups[-1][1] if groups else 1
                hi = lo + p_hi - p_lo
                if hi == lo:
                    continue
                deg[lo:hi] = deg[p_lo:p_hi]
                deg[lo:hi, r] = a
                deg[lo:hi, N + r] = b
                supp[lo:hi] = r + 1
                bfact[lo:hi] = bfact[p_lo:p_hi] * fact[a]
                pfact[lo:hi] = pfact[p_lo:p_hi] * fact[b]
                sumP[lo:hi] = sumP[p_lo:p_hi] + b
                groups.append((lo, hi, p_lo, k * N + r))
        starts.append(groups[-1][1])
    assert starts[-1] == 1 + J

    # Within a grade, ranks follow descending lexicographic order of the
    # degree rows, which compare that way as byte strings.
    row_key = np.dtype((np.void, 2 * N))
    pos = np.empty(J, dtype=np.intp)
    for lo, hi in zip(starts[1:], starts[2:]):
        pos[lo - 1:hi - 1] = lo + np.argsort(deg[lo:hi].view(row_key).ravel())[::-1]
    # With p = 0, Phi_pre is the constant alone.
    plan = _PrefixPlan(pairs=pairs, n_pre=starts[max(p, 1)], pos=pos,
                       groups=tuple(groups))
    return _IndexSet(N=N, p=p, J=J, degB=deg[pos, :N], degP=deg[pos, N:],
                     support=supp[pos], bfact=bfact[pos],
                     pfact=pfact[pos], sumP=sumP[pos], prefix=plan)


def _index_set(N: int, p: int, workers: int = 1) -> _IndexSet:
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ValueError(f"p must be a nonnegative int, got {p!r}")
    if p > MAX_DEGREE:
        raise ValueError(f"p = {p} exceeds the degree cap {MAX_DEGREE}")
    _check_bytes(N, p, workers)
    return _build_index_set(N, p)


def _workers(threads: int, M: int) -> int:
    """Chunk functions that can run at once: ``_map_chunks`` runs at most
    one per chunk of M samples."""
    return max(1, min(threads, -(-M // _CHUNK)))


def _check_bytes(N: int, p: int, workers: int) -> None:
    """Refuse (N, p) when its index set and prefix plan, plus ``workers``
    times one worker's chunk working set, would exceed the byte budget."""
    J = _basis_count(N, p)
    n_pre = 1 + _basis_count(N, p - 1) if p >= 1 else 1
    n_kc = (p + 1) * (p + 2) // 2 * N
    # Per index: degree rows in prefix and in rank order, and ~64 bytes of
    # per-index vectors with their prefix-order copies and sort keys.
    index_bytes = J * (4 * N + 64)
    # Phi_pre, KC with its weighted copy and V, and four sum vectors.
    worker_bytes = 8 * (_CHUNK * (n_pre + 3 * n_kc) + 4 * (J + 1))
    need = index_bytes + workers * worker_bytes
    if need > _BYTE_BUDGET:
        # Integer MiB: need can exceed the float range.
        raise SizingError(
            f"truncated basis for N={N}, p={p} with {workers} worker(s) needs "
            f"about {need >> 20} MiB, exceeding the budget of "
            f"{_BYTE_BUDGET >> 20} MiB; lower p, N or threads")


def enumerate_indices(N: int, p: int) -> list[MultiIndex]:
    """All multi-indices with 1 <= total degree <= p over N slots, ranked.

    Ordering is graded by total degree, then descending lexicographic on the
    concatenated degree vector (nB, nP). The first 2N entries are therefore
    the N Brownian unit indices followed by the N jump unit indices.

    Raises
    ------
    SizingError
        If the C(2N+p, p) - 1 indices would exceed the byte budget. This is
        checked before anything is allocated.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError(f"N must be a positive int, got {N!r}")
    iset = _index_set(N, p)
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
        keys = enumerate_indices(self.spec.N, self.p)
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
                              entries: dict | None = None) -> ChaosCoefficients:
    """Build a ChaosCoefficients object from explicit (index, value) pairs.

    ``entries`` maps MultiIndex (or (nB, nP) tuple pairs) to coefficient
    values; every enumerated index absent from the map gets 0. Useful for
    constructing synthetic expansions in tests and experiments.
    """
    iset = _index_set(spec.N, p)
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


def _map_chunks(chunk_fn, M: int, threads: int):
    """chunk_fn over the fixed chunks of M samples, results in chunk order."""
    slices = _chunk_slices(M)
    if threads <= 1 or len(slices) == 1:
        yield from map(chunk_fn, slices)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # pool.map yields results in submission order regardless of which
        # worker finishes first, so a reduction over them has a fixed order.
        yield from pool.map(chunk_fn, slices)


def _reduce_chunks(chunk_fn, M: int, n_out: int, threads: int) -> np.ndarray:
    """Sum chunk_fn over fixed chunks, combining partials in chunk order."""
    total = np.zeros(n_out, dtype=np.float64)
    for part in _map_chunks(chunk_fn, M, threads):
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


def _chunk_tables(iset: _IndexSet, G, Q, kh: float,
                  sl: slice) -> tuple[np.ndarray, np.ndarray]:
    """Slot factors KC and prefix table Phi_pre of one chunk, time-major."""
    plan = iset.prefix
    Gt = G[sl].T
    Mc = Gt.shape[1]
    K = hermite_batch(iset.p, Gt)         # (p+1, N, Mc)
    C = charlier_batch(iset.p, Q[sl].T, kh)
    a, b = np.array(plan.pairs).T
    KC = (K[a] * C[b]).reshape(-1, Mc)
    # One group at a time: parent rows times the group's slot factor.
    phi = np.empty((plan.n_pre, Mc))
    phi[0] = 1.0
    for lo, hi, plo, f in plan.groups:
        if hi > plan.n_pre:
            break
        np.multiply(phi[plo:plo + hi - lo], KC[f], out=phi[lo:hi])
    return KC, phi


def _prefix_sums_chunk(F, G, Q, kh: float, iset: _IndexSet, sl: slice,
                       squares: bool) -> np.ndarray:
    """Raw sums over one chunk for any p by the prefix recursion.

    Per group, the sum of F*Phi_j is a row-wise dot of the parents' Phi_pre
    rows with the group's F*KC row; the sum of (F*Phi_j)**2 is the same with
    every factor squared. Sums are taken in prefix order, then put in rank
    order.
    """
    plan = iset.prefix
    Fc = F[sl]
    KC, phi = _chunk_tables(iset, G, Q, kh, sl)
    n_out = 1 + iset.J
    out = np.empty(2 * n_out if squares else n_out, dtype=np.float64)
    sums = np.empty(n_out)

    def dots(T: np.ndarray) -> np.ndarray:
        for lo, hi, plo, f in plan.groups:
            np.einsum("ij,j->i", phi[plo:plo + hi - lo], T[f], out=sums[lo:hi])
        return sums[plan.pos]

    out[0] = Fc.sum()
    out[1:n_out] = dots(KC * Fc)
    if squares:
        F2 = Fc * Fc
        out[n_out] = F2.sum()
        phi *= phi
        KC *= KC
        KC *= F2
        out[1 + n_out:] = dots(KC)
    return out


def _raw_sums(F, paths: PathBatch, iset: _IndexSet, threads: int,
              squares: bool) -> np.ndarray:
    kh = paths.spec.jump_mean
    fn = _fast_sums_chunk if 1 <= iset.p <= 2 else _prefix_sums_chunk
    n_out = 1 + iset.J
    return _reduce_chunks(
        lambda sl: fn(F, paths.G, paths.Q, kh, iset, sl, squares),
        paths.M, 2 * n_out if squares else n_out, threads)


def estimate(F, paths: PathBatch, p: int, *, threads: int = 1) -> ChaosCoefficients:
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

    Returns
    -------
    ChaosCoefficients
        d0 plus one coefficient per enumerated index.

    Raises
    ------
    SizingError
        If the basis plus the working sets of the workers that can run
        would exceed the byte budget, checked before allocating.
    """
    F = _check_functional(F, paths)
    iset = _index_set(paths.spec.N, p, _workers(threads, paths.M))
    raw = _raw_sums(F, paths, iset, threads, squares=False)
    d0 = raw[0] / paths.M
    values = raw[1:1 + iset.J] * iset.inv_weights(paths.spec.jump_mean) / paths.M
    return ChaosCoefficients(d0=float(d0), values=values, p=p,
                             spec=paths.spec, iset=iset)


def variance_diagnostic(F, paths: PathBatch, p: int, *, threads: int = 1) -> float:
    """Predicted mean-square estimation error of the truncated expansion,
    scaled by the sample count.

    Returns V such that E|C_hat(F) - C(F)|**2 = V / M when the estimated
    expansion is evaluated on paths independent of the estimation batch:

        V = Var(F) + sum_n Var(F * Phi_n) / w(n),

    with all variances replaced by their unbiased sample estimates. Note a
    constant functional c has V = c**2 * J (J = index count), not zero:
    every product c * Phi_n still fluctuates.

    Raises SizingError, as :func:`estimate` does, when the byte budget
    would be exceeded.
    """
    if paths.M < 2:
        raise ValueError("variance diagnostic requires at least 2 samples")
    F = _check_functional(F, paths)
    iset = _index_set(paths.spec.N, p, _workers(threads, paths.M))
    raw = _raw_sums(F, paths, iset, threads, squares=True)
    n_out = 1 + iset.J
    s1 = raw[:n_out]
    s2 = raw[n_out:]
    M = paths.M
    var = (s2 - s1 * s1 / M) / (M - 1)
    np.maximum(var, 0.0, out=var)  # rounding can leave tiny negatives
    inv_w = iset.inv_weights(paths.spec.jump_mean)
    return float(var[0] + var[1:] @ inv_w)
