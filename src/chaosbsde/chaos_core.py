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
Indices are ranked graded by total degree, and within a grade by
descending lexicographic order of the concatenated vector (nB, nP), which
puts the two order-1 blocks (Brownian units, then jump units) first. A
:class:`ChaosCoefficients` holds one coefficient per rank in ``values``,
and its (J, N) arrays ``degB`` and ``degP`` give each rank's degrees.

Sums over samples are accumulated in fixed chunks of 1024 and combined in
chunk order, so results are bit-identical across runs and across worker
thread counts; every product is taken over sample blocks small enough for
BLAS to run single-threaded (:func:`_width`), so they do not depend on the
BLAS thread count either. :func:`_kernel` names the chunk kernel a call
runs: the prefix recursion of :class:`_IndexSet` at any p, or at p = 2
:func:`estimate`'s several times faster pair kernel
(:func:`_fast_sums_chunk`). :func:`variance_diagnostic` reads the sums
:func:`estimate` makes, plus one per-path pass (:func:`_diagonal_sums`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .orthopoly import _charlier_rows, _degree, _hermite_rows
from .stochastic_grid import (GridSpec, PathBatch, _count, _finite_real, _finite_vector,
                             _refuse_non_finite)

__all__ = [
    "ChaosCoefficients",
    "SizingError",
    "estimate",
    "variance_diagnostic",
    "coefficients_from_entries",
]

# Fixed sample-chunk size for deterministic reductions. Small enough that
# per-chunk work dominates fixed overhead from ~1e3 samples upward.
_CHUNK = 1024

# OpenBLAS runs a GEMM of at most 2**18 multiply-adds, and a GEMV on a matrix
# of fewer than 9216 entries, on the calling thread (its default threading
# cut-offs, 65536 and 2304 times GEMM_MULTITHREAD_THRESHOLD = 4); numpy sends
# a product with a one-row or one-column operand to GEMV, and one over a
# single sample to no BLAS routine. Both kernel families keep every BLAS call
# under these, so BLAS never splits a product across threads: results do not
# depend on the BLAS thread count, and pool workers do not compete with BLAS
# threads for the same cores. Every sample-blocked product of rows x columns
# entries takes whole blocks of :func:`_width` (rows, columns) samples, then
# the rest. A one-row product or a one-sample rest is then a
# GEMV under its cut-off or a product without BLAS, and every other one a
# GEMM under its cut-off (test_chaos_core.TestBlasSerialBlocks checks every
# product at every N the byte budget admits).
_BLAS_SERIAL_MACS = 1 << 18

# Block size of the p = 2 pair products (:func:`_pair_blocks`): rows of F*X
# per sums product, and output slots per evaluation product. Small blocks
# skip most of the redundant half of each product. Timed per chunk at
# N = 20, 50 and 100, 4 was within 10% of the best of 4, 5, 6 and 8 in both
# kernels, where 8 rows made the sums 30% slower at N = 100.
_PAIR_BLOCK = 4

# Row blocks of the prefix kernels' tiles (:func:`_prefix_tiles`): each
# spans at most this many last support slots of its parents, so few of its
# entries fall outside the block triangle, and has about this many entries
# (rows times factor columns), which leaves sample blocks of ~60 or more.
# Per chunk at (N, p) = (10, 3), (8, 4), (20, 3) and (50, 3), spans of 1 to
# 4 slots and 2048 to 8192 entries were within the timing noise (~15%) of
# each other, except that larger spans waste more at small N.
_PREFIX_SPAN = 2
_PREFIX_ENTRIES = 4096

# Cap on precomputed inverse weights; degenerate parameter corners can push
# 1/w past float64 range and the estimate should saturate, not turn inf/nan
# (a coefficient that still overflows is refused by estimate).
_INV_WEIGHT_GUARD = 1e300

# Refuse a problem whose index set plus per-worker kernel buffers would need
# more bytes than this, before allocating any of it. This is the only size
# guard; with p <= MAX_DEGREE it admits no basis of 10**7 or more indices.
_BYTE_BUDGET = 1 << 30


class SizingError(ValueError):
    """Raised when a truncated basis and its kernel buffers would exceed the
    byte budget."""


@dataclass(frozen=True, eq=False)
class _IndexSet:
    """Dense enumeration of the truncated basis for (N, p), rank-ordered,
    and the layout of the prefix recursion behind the prefix kernels, which
    run wherever :func:`_kernel` names no pair kernel. Its arrays are
    shared by every solve at (N, p), so they are read-only.

    Let r be the last slot of index j's support, (a, b) its Hermite and
    Charlier degrees there and d = a + b. Its parent, j with slot r zeroed,
    has order o = |j| - d and support before r, and

        Phi_j = Phi_parent(j) * K_a(G_r) * C_b(Q_r).

    Per chunk the kernels tabulate the slot factors KC (rows of
    :func:`_kc_row`) and Phi_pre, Phi at the orders below p in prefix
    order: the constant first, then graded by order, then by r, by d, by b
    and by their parent's position. Each order's indices are thus sorted by
    last slot, and the indices sharing (order, r, d) are the outer product
    of the d + 1 factors of (r, d) with one run of parents, the indices of
    order o - d supported before r.

    Every sum of F * Phi_j is the entry (parent, factor) of the product
    Phi_pre * (F * KC)^T. Its kept entries, a parent before a factor's slot,
    form one block triangle per (parent order, d); the tiles cover it.
    """

    N: int
    p: int
    J: int
    degB: np.ndarray     # (J, N) int8
    degP: np.ndarray     # (J, N) int8
    bfact: np.ndarray    # (J,) float64, prod of nB[i]!
    pfact: np.ndarray    # (J,) float64, prod of nP[i]!
    sumP: np.ndarray     # (J,) int16
    n_kc: int                           # rows of KC
    n_pre: int                          # rows of Phi_pre, 1 + J_{p-1}
    # Per (order, r, d) with r < N - 1 (an index supported on the last slot
    # parents none), in prefix order: rows lo:hi of Phi_pre are KC rows
    # k0:k0+d+1 times the parent rows plo:plo+n.
    segments: tuple[tuple[int, int, int, int, int, int], ...]
    tiles: tuple[_Tile, ...]
    n_flat: int                         # entries of the flat table
    gather: np.ndarray                  # (J,) flat table entry of each rank

    def weights(self, jump_mean: float) -> np.ndarray:
        return self.pfact * np.power(jump_mean, self.sumP.astype(np.float64)) / self.bfact

    def inv_weights(self, jump_mean: float) -> np.ndarray:
        w = self.weights(jump_mean)
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / w
        return np.minimum(inv, _INV_WEIGHT_GUARD)

    @cached_property
    def _ranks(self) -> dict[bytes, int]:
        """Rank of each index, keyed by its packed degree row (nB, nP)."""
        rows = np.concatenate([self.degB, self.degP], axis=1)
        return dict(zip(rows.view((np.void, 2 * self.N)).ravel().tolist(),
                        range(self.J)))

    def rank(self, key) -> int:
        """Rank of the index ``key = (nB, nP)``: ValueError for vectors not of
        length N, each degree a count >= 0 (``_count``: TypeError, ValueError
        otherwise), KeyError for an index outside the truncation."""
        nB, nP = key
        if len(nB) != self.N or len(nP) != self.N:
            raise ValueError(f"index {key!r} needs two degree vectors of length {self.N}")
        degs = [_count("degree", d, 0) for d in (*nB, *nP)]
        # Checked before packing: each degree is then at most p, so its byte
        # cannot wrap around onto another index's.
        if sum(degs) > self.p:
            raise KeyError(f"index {key!r} is not in the order-{self.p} truncation")
        return self._ranks[bytes(degs)]

    # Rank layout used by the p = 2 pair kernels. Stack the 2N
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


def _kc_row(N: int, d: int, r: int) -> int:
    """First row of the slot factors of degree sum d at slot r in KC: per
    degree sum d >= 1, the rows (r, i) hold K_{d-i} * C_i, slot-major."""
    return N * (d * (d + 1) // 2 - 1) + r * (d + 1)


class _Tile(NamedTuple):
    """Phi_pre rows lo:hi, the parents of one order, times KC rows c0:c1, the
    degree-sum-d factors at the slots after the first row's last slot. The
    product is taken over the sample blocks of :func:`_width`; its sums are
    entries t0:t0 + (hi-lo)*(c1-c0) of the flat table, which starts with the
    n_kc row sums of F * KC, the indices whose parent is the constant."""

    lo: int
    hi: int
    d: int
    c0: int
    c1: int
    t0: int


def _prefix_tiles(N: int, p: int) -> tuple[tuple[_Tile, ...], int]:
    """Tiles of the prefix plan and the size of its flat table.

    The parents of order o are the Phi_pre rows from 1 + J_{o-1}, sorted by
    last slot l, and A(o, l) = C(2l + 2 + o - 1, o) of them have l' <= l. Row
    blocks span at most _PREFIX_SPAN last slots before N - 1 and have about
    _PREFIX_ENTRIES entries at the widest d, and none has one row.
    """
    tiles = []
    n_flat = _kc_row(N, p + 1, 0)
    for o in range(1, p):
        start = 1 + _basis_count(N, o - 1)
        below = [math.comb(2 * l + o + 1, o) for l in range(N - 1)]  # A(o, l)
        for l0 in range(0, N - 1, _PREFIX_SPAN):
            lo = start + (below[l0 - 1] if l0 else 0)
            hi = start + below[min(l0 + _PREFIX_SPAN, N - 1) - 1]
            size = max(2, _PREFIX_ENTRIES // ((p - o + 1) * (N - 1 - l0)))
            for a, b in _blocks(hi - lo, size):
                for d in range(1, p - o + 1):
                    c0, c1 = _kc_row(N, d, l0 + 1), _kc_row(N, d + 1, 0)
                    tiles.append(_Tile(lo + a, lo + b, d, c0, c1, n_flat))
                    n_flat += (b - a) * (c1 - c0)
    return tuple(tiles), n_flat


@lru_cache(maxsize=16)
def _build_index_set(N: int, p: int) -> _IndexSet:
    J = _basis_count(N, p)
    fact = np.array([math.factorial(i) for i in range(p + 1)], dtype=np.float64)
    n_kc = _kc_row(N, p + 1, 0)
    # Enumerate in prefix order, one (order, r, d) run at a time: its rows
    # are its parents' rows with the degrees (d - b, b) put at slot r.
    deg = np.zeros((1 + J, 2 * N), dtype=np.int8)
    last = np.full(1 + J, -1, dtype=np.int16)   # last support slot
    bfact = np.ones(1 + J)
    pfact = np.ones(1 + J)
    sumP = np.zeros(1 + J, dtype=np.int16)
    # Entry of the flat table of each index: base[d, q] + (KC row of a
    # degree-d factor) is the entry of parent q times that factor.
    flat = np.zeros(1 + J, dtype=np.intp)
    n_pre = 1 + _basis_count(N, p - 1) if p >= 1 else 1
    base = np.zeros((p + 1, n_pre), dtype=np.intp)
    tiles, n_flat = _prefix_tiles(N, p)
    for t in tiles:
        base[t.d, t.lo:t.hi] = t.t0 - t.c0 + (t.c1 - t.c0) * np.arange(t.hi - t.lo)
    starts = [0, 1]  # first position of each order
    segments = []
    lo = 1
    for g in range(1, p + 1):
        for r in range(N):
            for d in range(1, g + 1):
                # Parents: order g - d, supported before slot r.
                p_lo, p_hi = starts[g - d], starts[g - d + 1]
                n = int(np.searchsorted(last[p_lo:p_hi], r))
                if n == 0:
                    continue
                hi = lo + (d + 1) * n
                b = np.arange(d + 1)
                rows = deg[lo:hi].reshape(d + 1, n, 2 * N)
                rows[:] = deg[p_lo:p_lo + n]
                rows[:, :, r] = (d - b)[:, None]
                rows[:, :, N + r] = b[:, None]
                last[lo:hi] = r
                bfact[lo:hi] = np.outer(fact[d - b], bfact[p_lo:p_lo + n]).ravel()
                pfact[lo:hi] = np.outer(fact[b], pfact[p_lo:p_lo + n]).ravel()
                sumP[lo:hi] = (b[:, None] + sumP[p_lo:p_lo + n]).ravel()
                k0 = _kc_row(N, d, r)
                flat[lo:hi] = (base[d, p_lo:p_lo + n] + k0 + b[:, None]).ravel()
                if g < p and r < N - 1:
                    segments.append((lo, hi, p_lo, n, k0, d))
                lo = hi
        starts.append(lo)
    assert starts[-1] == 1 + J

    # Within a grade, ranks follow descending lexicographic order of the
    # degree rows, which compare that way as byte strings.
    row_key = np.dtype((np.void, 2 * N))
    pos = np.empty(J, dtype=np.intp)
    for lo, hi in zip(starts[1:], starts[2:]):
        pos[lo - 1:hi - 1] = lo + np.argsort(deg[lo:hi].view(row_key).ravel())[::-1]
    iset = _IndexSet(N=N, p=p, J=J, degB=deg[pos, :N], degP=deg[pos, N:],
                     bfact=bfact[pos], pfact=pfact[pos], sumP=sumP[pos],
                     n_kc=n_kc, n_pre=n_pre, segments=tuple(segments),
                     tiles=tiles, n_flat=n_flat, gather=flat[pos])
    for a in (iset.gather, iset.degB, iset.degP, iset.bfact, iset.pfact, iset.sumP):
        a.flags.writeable = False
    return iset


def _admit_basis(N: int, p) -> int:
    """p as a Python int, once the degree rule (``orthopoly._degree``) and
    the byte budget at one worker admit the basis for (N, p); both are
    arithmetic, so a caller can refuse a basis before any work for it."""
    p = _degree("p", p)
    _check_bytes(N, p, 1)
    return p


def _index_set(N: int, p) -> _IndexSet:
    """The index set for (N, p), once :func:`_admit_basis` admits it."""
    return _build_index_set(N, _admit_basis(N, p))


_PAIR_KERNELS = {"estimate": "pair_sums", "evaluate_grid": "pair_eval"}


def _kernel(call: str, p: int) -> str:
    """The chunk kernel ``call`` runs at order p: its closed-form pair kernel
    at p = 2, where one pays, else its prefix-recursion kernel, "prefix"."""
    return _PAIR_KERNELS.get(call, "prefix") if p == 2 else "prefix"


# A kernel call runs one worker where a second cannot overlap it: np.matmul
# holds the GIL through a product of at most ~500 output entries, and an
# elementwise call on fewer than ~2**15 entries ends before a second thread
# gets it, so a call made of such calls serialises at any thread count. The
# rule's one constant per kernel: the pair kernels loop over such products
# and run one worker up to the N given here; a prefix kernel until its
# chunk averages the entries per numpy call given here. Measured by
# tools/thread_table.py at threads 2 on 2 vCPUs (pays at median
# t1/t2 >= 1.1).
_WORKER_RULE = {"pair_sums": 80, "pair_eval": 20, "prefix": 1 << 16}


def _workers(threads: int, M: int, iset: _IndexSet, call: str) -> int:
    """Worker threads of ``call`` on M samples of ``iset``: one by the rule
    above, else min(threads, chunks), so ``threads`` (checked) is a cap. A
    prefix-kernel chunk makes 8p - 4 recurrence calls (2 at p = 0) on N rows
    each, p products into KC, which its own pass reads again, and one product
    per Phi_pre segment and per tile, each tile entry a dot product over the
    chunk; ``evaluate_grid`` also writes 3N rows of slot sums and copies them."""
    threads = _count("threads", threads, 1)
    N, p = iset.N, iset.p
    kernel = _kernel(call, p)
    if kernel != "prefix":
        one = N <= _WORKER_RULE[kernel]
    else:
        rec = max(8 * p - 4, 2)
        rows = (rec + 6 * (call == "evaluate_grid")) * N + 2 * iset.n_kc + iset.n_pre
        calls = rec + p + 1 + len(iset.segments) + len(iset.tiles)
        one = _CHUNK * (rows + iset.n_flat) < _WORKER_RULE["prefix"] * calls
    return 1 if one else max(1, min(threads, -(-M // _CHUNK)))


def _buffer_rows(N: int, p: int) -> dict[str, dict[str, int]]:
    """Rows of one worker's chunk buffers, by kernel family and name: the
    prefix family, which every p has, and the pair family of X = [K1; C1],
    its slot-block-major copy XS and T, which both pair kernels share, where
    :func:`_kernel` runs one. The budget charges every family a call at
    (N, p) can use; a call allocates only its kernel's.
    KC and W are charged a row per pair (a, b) and slot; the kernels store
    no row for (0, 0), so N rows of each stay unused."""
    n_kc = (p + 1) * (p + 2) // 2 * N
    rows = {"prefix": {"K": (p + 1) * N, "C": (p + 1) * N, "KC": n_kc, "W": n_kc,
                       "phi": 1 + _basis_count(N, p - 1) if p >= 1 else 1,
                       "S": 3 * N}}
    if any(_kernel(call, p) != "prefix" for call in _PAIR_KERNELS):
        rows["pair"] = {"X": 2 * N, "XS": 2 * N, "T": 2 * N}
    return rows


def _worker_bytes(N: int, p: int) -> int:
    """One worker's charge: its chunk buffers and four sum vectors."""
    rows = sum(sum(family.values()) for family in _buffer_rows(N, p).values())
    return 8 * (_CHUNK * rows + 4 * (_basis_count(N, p) + 1))


def _held_bytes(N: int, p: int, call: str, M: int, workers: int) -> int:
    """Bytes of the chunk results ``call`` holds on M samples at ``workers``
    stripes: those of every chunk outside the first stripe, which
    :func:`_run_chunks` holds until the first is done; only ``estimate``'s
    hold any, one sum per basis index and the constant."""
    chunks = -(-M // _CHUNK)
    held = chunks - chunks // workers if call == "estimate" else 0
    return 8 * (_basis_count(N, p) + 1) * held


def _check_bytes(N: int, p: int, workers: int, held: int = 0) -> None:
    """Refuse (N, p) when its index set and prefix plan, plus ``workers``
    times one worker's chunk working set, plus ``held`` bytes of chunk
    results the call holds, would exceed the byte budget."""
    # Per index: degree rows in prefix and in rank order, and ~64 bytes of
    # per-index vectors with their prefix-order copies and sort keys.
    index_bytes = _basis_count(N, p) * (4 * N + 64)
    need = index_bytes + workers * _worker_bytes(N, p) + held
    if need > _BYTE_BUDGET:
        # Integer MiB: need can exceed the float range.
        raise SizingError(
            f"truncated basis for N={N}, p={p} with {workers} worker(s) needs "
            f"about {need >> 20} MiB, exceeding the budget of "
            f"{_BYTE_BUDGET >> 20} MiB; lower p, N or threads")


@dataclass(frozen=True, eq=False)
class ChaosCoefficients:
    """Chaos coefficients of one functional, truncated at order p.

    ``d0`` is the coefficient of the constant and ``values[j]`` the one of
    the index of rank j, whose degrees are ``degB[j]`` and ``degP[j]``.
    Built from a real d0 (``_finite_real``: TypeError for a str, bool or
    complex d0) and a values array of shape (J,) of any int or float dtype
    (``_finite_vector``: TypeError for a complex, str, object or bool
    array), stored as a float and a read-only float64 copy: the constructor
    checks the types, the shape and that every coefficient is finite.

    Raises
    ------
    SizingError
        If the truncated basis would exceed the byte budget.
    """

    d0: float
    values: np.ndarray
    p: int
    spec: GridSpec
    iset: _IndexSet = field(init=False, repr=False)

    def __post_init__(self) -> None:
        iset = _index_set(self.spec.N, self.p)
        d0 = _finite_real("d0", self.d0)
        values = _finite_vector("values", self.values, iset.J, at="rank").copy()
        values.flags.writeable = False
        for name, value in (("d0", d0), ("values", values), ("p", iset.p), ("iset", iset)):
            object.__setattr__(self, name, value)

    @property
    def degB(self) -> np.ndarray:
        """(J, N) Brownian degrees of every index, rank-aligned with
        ``values``; read-only."""
        return self.iset.degB

    @property
    def degP(self) -> np.ndarray:
        """(J, N) jump degrees of every index, rank-aligned with ``values``;
        read-only."""
        return self.iset.degP

    def entry(self, n) -> float:
        """Coefficient of the index ``n = (nB, nP)``, two vectors of length
        N of int degrees >= 0 (TypeError, ValueError otherwise); KeyError
        if outside the truncation."""
        return float(self.values[self.iset.rank(n)])

    def weights(self) -> np.ndarray:
        """w(n) for every index, rank-aligned with ``values``."""
        return self.iset.weights(self.spec.jump_mean)


def coefficients_from_entries(spec: GridSpec, p: int, d0: float = 0.0,
                              entries: dict | None = None) -> ChaosCoefficients:
    """Build a ChaosCoefficients object from explicit (index, value) pairs.

    ``entries`` maps (nB, nP) pairs of degree vectors to coefficient values;
    every index absent from the map gets 0. Useful for constructing
    synthetic expansions in tests and experiments. ``d0`` and each value
    are real numbers (TypeError otherwise: a str, bool or complex) and
    finite (ValueError), checked as :class:`ChaosCoefficients` checks d0.
    """
    iset = _index_set(spec.N, p)
    values = np.zeros(iset.J)
    for key, val in (entries or {}).items():
        rank = iset.rank(key)
        values[rank] = _finite_real(f"entries value at rank {rank}", val)
    return ChaosCoefficients(d0=d0, values=values, p=p, spec=spec)


def _blocks(n: int, size: int) -> list[tuple[int, int]]:
    """Split range(n) into consecutive blocks of ``size``, the last one
    shorter, or one longer where a single row would be left: no block has a
    single row unless n = 1."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _width(m: int, n: int) -> int:
    """Samples per whole sample block of a product with m x n output
    entries: the most that keep it within _BLAS_SERIAL_MACS multiply-adds."""
    return _BLAS_SERIAL_MACS // (m * n)


@lru_cache(maxsize=16)
def _pair_blocks(N: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Blocks of the p = 2 pair products, the same for every chunk: the row
    blocks (lo, hi) of the sums kernel, which takes rows lo:hi of F*X times
    X[lo:]^T and so tiles the upper block triangle of (F*X) X^T, and the
    slot blocks (s0, s1) of the evaluation kernel, whose output rows at
    slots s0:s1 read the first 2*s1 rows of the slot-block-major factors."""
    return tuple(_blocks(2 * N, _PAIR_BLOCK)), tuple(_blocks(N, _PAIR_BLOCK))


def _stacked_factors(G, Q, kh: float, sl: slice, buf: _ChunkBuffers) -> np.ndarray:
    """First-order factors X = [K1; C1] of one chunk, time-major (2N, Mc),
    written into ``buf``. On the time-major storage of
    :func:`chaosbsde.stochastic_grid.sample_paths`, ``G[sl].T`` and
    ``Q[sl].T`` are N unit-stride row slices."""
    Gc = G[sl]
    Mc, N = Gc.shape
    X = buf.get("X", (2 * N, Mc))
    X[:N] = Gc.T
    np.subtract(Q[sl].T, kh, out=X[N:])
    return X


def _fast_sums_chunk(F, G, Q, kh: float, iset: _IndexSet, sl: slice,
                     buf: _ChunkBuffers) -> np.ndarray:
    """Raw sums of F*Phi_n over one chunk at p = 2.

    With X = [K1; C1] the chunk's stacked first-order factors, the unit sums
    are the row sums of F*X, and the upper triangle of S = (F*X) X^T holds
    every order-2 sum: S[a, b] for a < b is the pair (a, b), and the
    same-slot degree-2 sums follow from the diagonal through
    K2 = (K1**2 - 1)/2 and C2 = C1**2 - C1 - kh. S is formed one row block
    of :func:`_pair_blocks` at a time; its entries below the diagonal
    blocks are left unset.
    """
    Fc = F[sl]
    X = _stacked_factors(G, Q, kh, sl, buf)
    N2 = X.shape[0]
    N = N2 // 2
    out = np.empty(1 + iset.J, dtype=np.float64)
    FX = np.multiply(X, Fc, out=buf.get("T", X.shape))
    out[0] = sF = Fc.sum()
    out[1:1 + N2] = FX.sum(axis=1)
    S = np.empty((N2, N2))
    for lo, hi in _pair_blocks(N)[0]:
        _tile_sums(FX[lo:hi], X[lo:], S[lo:hi, lo:])
    out[1 + N2:] = S[iset.pairs]
    diag = np.diagonal(S)
    out[1 + iset.pair_diag[:N]] = 0.5 * (diag[:N] - sF)
    out[1 + iset.pair_diag[N:]] = diag[N:] - out[1 + N:1 + N2] - kh * sF
    return out


class _ChunkBuffers:
    """One worker's chunk arrays for one kernel family, reused for every
    chunk it runs within one call: :func:`_run_chunks` gives each stripe of
    chunks, and so each thread of a call, its own. The evaluation kernels
    return their slot sums as views of these arrays, valid until the
    worker's next chunk; a chunk function uses them up before it returns and
    never returns such a view, since the driver may hold a chunk's result
    while its thread runs the next chunk.

    Arrays allocated afresh per chunk go back to glibc's malloc, which may
    return the pages to the operating system, so the next chunk faults them
    in again: ~19,000 minor faults per call at N=10, p=3, M=2e4, and up to
    515,000 per solve at N=50, p=2, M=1e5, q=5 (~19,000 with these buffers).
    ``rows`` is the running kernel's family in :func:`_buffer_rows`, one
    block: both families would cost ~5 MB more peak RSS at N=20, p=2,
    M=1e5, and one array per name 3.5x the faults.
    """

    def __init__(self, rows: dict[str, int], width: int):
        block = np.empty(sum(rows.values()) * width)
        ends = np.cumsum([0, *rows.values()]) * width
        self._flat = {name: block[a:b] for name, a, b in zip(rows, ends, ends[1:])}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Contiguous view of buffer ``name`` with this shape (the chunk's
        width last). "W" holds F*KC, V of the evaluation kernel or the
        diagonal's polynomial, "K" a scratch or u once KC is built, "T" F*X
        or the pair evaluation's T, and "XS" its slot-block-major factors,
        then SY and an (N, width) scratch."""
        return self._flat[name][:math.prod(shape)].reshape(shape)


def _run_chunks(chunk_fn, iset: _IndexSet, M: int, threads: int, call: str):
    """Yield ``chunk_fn(sl, buf)`` for the fixed chunks ``sl`` of M samples,
    in chunk order, so a reduction over the results has a fixed order.

    Every kernel call runs here, on the k workers :func:`_workers` grants
    ``call`` at ``threads``. The chunks are split into k contiguous stripes,
    as equal as whole chunks allow, and :func:`_check_bytes` charges the k
    working sets and the held results (:func:`_held_bytes`) before any
    thread or buffer exists; at k = 1 no thread is started. The calling
    thread runs the first stripe and yields each result as it is made;
    k - 1 threads started for the call run the others, one stripe each,
    and their results are held until every stripe is done. An error
    in a stripe is raised when its results would be yielded. Each thread
    starts its stripe with one :class:`_ChunkBuffers` of the buffer family
    of the kernel :func:`_kernel` names, and passes it as ``buf`` to every
    chunk of the stripe. A held result must outlive the next chunk of its
    thread, so a chunk function must not return views of its buffers."""
    slices = [slice(a, min(a + _CHUNK, M)) for a in range(0, M, _CHUNK)]
    k = _workers(threads, M, iset, call)
    cuts = [len(slices) * i // k for i in range(k + 1)]
    runs = [slices[a:b] for a, b in zip(cuts, cuts[1:])]
    _check_bytes(iset.N, iset.p, k, _held_bytes(iset.N, iset.p, call, M, k))
    family = "prefix" if _kernel(call, iset.p) == "prefix" else "pair"
    rows = _buffer_rows(iset.N, iset.p)[family]

    def stripe(run: list[slice]):
        buf = _ChunkBuffers(rows, min(_CHUNK, M))
        for sl in run:
            yield chunk_fn(sl, buf)

    held: list = [None] * (k - 1)  # per pool stripe: its results, or its error

    def work(j: int) -> None:
        try:
            held[j] = list(stripe(runs[j + 1]))
        except Exception as exc:
            held[j] = exc

    pool = [threading.Thread(target=work, args=(j,)) for j in range(k - 1)]
    for thread in pool:
        thread.start()
    try:
        yield from stripe(runs[0])
    finally:
        for thread in pool:
            thread.join()
    for results in held:
        if isinstance(results, Exception):
            raise results
        yield from results


def _tile_sums(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> None:
    """out = A @ B.T over a chunk's samples: its whole sample blocks of
    :func:`_width`, summed in order (one stacked product when there are
    several), plus the rest."""
    (m, Mc), n = A.shape, B.shape[0]
    width = _width(m, n)
    nb = Mc // width
    cut = nb * width if nb else Mc
    if nb > 1:
        blocks = np.matmul(A[:, :cut].reshape(m, nb, width).transpose(1, 0, 2),
                           B[:, :cut].reshape(n, nb, width).transpose(1, 2, 0))
        blocks.sum(axis=0, out=out)
    else:
        np.matmul(A[:, :cut], B[:, :cut].T, out=out)
    if cut < Mc:
        out += np.matmul(A[:, cut:], B[:, cut:].T)


def _slot_factors(K: np.ndarray, C: np.ndarray, KC: np.ndarray, N: int,
                  r: int = 0) -> None:
    """Write the slot factors K_{d-b} * C_b (d = 1..p, b = 0..d) of slots
    r, r + 1, ... into their rows of KC. K and C hold the degrees 0..p of
    those slots, shape (p + 1, slots, Mc)."""
    n, Mc = K.shape[1:]
    for d in range(1, K.shape[0]):
        rows = KC[_kc_row(N, d, r):_kc_row(N, d, r + n)]
        np.multiply(K[d::-1], C[:d + 1],
                    out=rows.reshape(n, d + 1, Mc).transpose(1, 0, 2))


def _slot_table(iset: _IndexSet, G, Q, kh: float, sl: slice,
                buf: _ChunkBuffers) -> np.ndarray:
    """Slot factors KC of one chunk, time-major, written into ``buf`` from
    the rows of ``G[sl].T`` and ``Q[sl].T`` by the unchecked recurrences (a
    PathBatch holds only finite G and nonnegative integer Q); none at p = 0."""
    Gt = G[sl].T
    N, Mc = Gt.shape
    KC = buf.get("KC", (iset.n_kc, Mc))
    if iset.p == 0:
        return KC
    K = _hermite_rows(iset.p, Gt, buf.get("K", (iset.p + 1, N, Mc)))
    # KC's rows are scratch until the factors are formed below.
    C = _charlier_rows(iset.p, Q[sl].T, kh, buf.get("C", (iset.p + 1, N, Mc)),
                       buf.get("KC", (N, Mc)))
    _slot_factors(K, C, KC, N)
    return KC


def _chunk_tables(iset: _IndexSet, G, Q, kh: float, sl: slice,
                  buf: _ChunkBuffers) -> tuple[np.ndarray, np.ndarray]:
    """Slot factors KC (:func:`_slot_table`) and prefix table Phi_pre of one
    chunk, time-major, written into ``buf``."""
    KC = _slot_table(iset, G, Q, kh, sl, buf)
    Mc = KC.shape[1]
    phi = buf.get("phi", (iset.n_pre, Mc))
    # One run at a time: the run's d + 1 factors times its parent rows.
    phi[0] = 1.0
    for lo, hi, plo, n, k0, d in iset.segments:
        np.multiply(KC[k0:k0 + d + 1, None], phi[plo:plo + n],
                    out=phi[lo:hi].reshape(d + 1, n, Mc))
    return KC, phi


def _prefix_sums_chunk(F, G, Q, kh: float, iset: _IndexSet, sl: slice,
                       buf: _ChunkBuffers) -> np.ndarray:
    """Raw sums of F*Phi_j over one chunk for any p by the prefix recursion.

    With W = F*KC, the sums fill a flat table: the row sums of W (the
    indices whose parent is the constant), then per tile the product of its
    Phi_pre rows with its rows of W. They are gathered into rank order.
    """
    KC, phi = _chunk_tables(iset, G, Q, kh, sl, buf)
    flat = np.empty(iset.n_flat)
    W = np.multiply(KC, F[sl], out=buf.get("W", KC.shape))
    W.sum(axis=1, out=flat[:iset.n_kc])
    for t in iset.tiles:
        _tile_sums(phi[t.lo:t.hi], W[t.c0:t.c1],
                   flat[t.t0:t.t0 + (t.hi - t.lo) * (t.c1 - t.c0)]
                   .reshape(t.hi - t.lo, t.c1 - t.c0))
    return np.concatenate(([F[sl].sum()], flat[iset.gather]))


def _raw_sums(F, paths: PathBatch, p, threads: int) -> tuple[_IndexSet, np.ndarray]:
    """The index set for (N, p) and the sums of F and of F*Phi_n over every
    sample, in rank order."""
    iset = _index_set(paths.spec.N, p)
    pair = _kernel("estimate", iset.p) == "pair_sums"
    kh = paths.spec.jump_mean

    def chunk(sl: slice, buf: _ChunkBuffers) -> np.ndarray:
        # Finite F can still overflow a product, whose non-finite sums are
        # refused below; errstate is per thread, so it is set in the worker.
        with np.errstate(over="ignore", invalid="ignore"):
            if pair:
                return _fast_sums_chunk(F, paths.G, paths.Q, kh, iset, sl, buf)
            return _prefix_sums_chunk(F, paths.G, paths.Q, kh, iset, sl, buf)

    total = np.zeros(1 + iset.J)
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _run_chunks(chunk, iset, paths.M, threads, "estimate"):
            total += part
    _refuse_non_finite("estimate's d0", total[0])
    _refuse_non_finite("estimate's sum", total[1:], ("rank",))
    return iset, total


def _diagonal_sums(F, paths: PathBatch, iset: _IndexSet, inv_w) -> np.ndarray:
    """Sums of F**2 and F**2 * S over the samples, S = sum_n Phi_n**2 * inv_w(n),
    on one worker: its calls are elementwise over a chunk's rows. 1 + S sums
    the coefficients of t**0..t**p of the product over slots i of
    1 + sum_d u_i[d] * t**d, u_i[d] the sum of the slot factors' (K_a * C_b)**2
    at slot i with a + b = d, each times the inv_w of its one-slot index,
    whose flat table entry is its KC row."""
    N, p = iset.N, iset.p
    inv_flat = np.zeros(iset.n_flat)
    inv_flat[iset.gather] = inv_w

    def chunk(sl: slice, buf: _ChunkBuffers) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            F2 = F[sl] * F[sl]
            KC = _slot_table(iset, paths.G, paths.Q, paths.spec.jump_mean, sl, buf)
            KC *= KC
            KC *= inv_flat[:iset.n_kc, None]
            Mc = KC.shape[1]
            u = buf.get("K", (p + 1, N, Mc))  # K is read no more
            for d in range(1, p + 1):
                rows = KC[_kc_row(N, d, 0):_kc_row(N, d + 1, 0)]
                rows.reshape(N, d + 1, Mc).sum(axis=1, out=u[d])
            # P[d - 1], the coefficient of t**d of the product over the
            # slots so far, is updated in place descending in d.
            P, tmp = buf.get("W", (p, Mc)), buf.get("S", (Mc,))
            P[:] = u[1:, 0]
            for i in range(1, N):
                for d in range(p, 0, -1):
                    P[d - 1] += u[d, i]
                    for e in range(1, d):
                        P[d - 1] += np.multiply(P[d - 1 - e], u[e, i], out=tmp)
            return np.array([F2.sum(), (F2 * P.sum(axis=0)).sum()])

    return sum(_run_chunks(chunk, iset, paths.M, 1, "diagonal"))


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
        Most worker threads for the chunked reduction, >= 1. The call runs
        one where a second cannot overlap it (short numpy calls keep the
        GIL; see :func:`_workers`), and min(threads, chunks of 1024
        samples) elsewhere. Results are identical for every value, and for
        every BLAS thread count.

    Returns
    -------
    ChaosCoefficients
        d0 plus one coefficient per index.

    Raises
    ------
    SizingError
        If the basis plus the working sets of the workers the call runs,
        and the sums their stripes hold, would exceed the byte budget,
        checked before allocating.
    TypeError
        If p or threads is not an int (bools included).
    ValueError
        If F is not finite, p is negative or above the degree cap 60,
        threads is below 1, or a sum or coefficient overflows float64
        (named by its rank), under any warnings filter.
    """
    F = _finite_vector("F", F, paths.M)
    iset, raw = _raw_sums(F, paths, p, threads)
    d0 = raw[0] / paths.M
    with np.errstate(over="ignore"):
        values = raw[1:] * iset.inv_weights(paths.spec.jump_mean) / paths.M
    _refuse_non_finite("estimate's coefficient", values, ("rank",))
    return ChaosCoefficients(d0=d0, values=values, p=p, spec=paths.spec)


def variance_diagnostic(F, paths: PathBatch, p: int, *, threads: int = 1) -> float:
    """Predicted mean-square estimation error of the truncated expansion,
    scaled by the sample count.

    Returns V such that E|C_hat(F) - C(F)|**2 = V / M when the estimated
    expansion is evaluated on paths independent of the estimation batch:

        V = Var(F) + sum_n Var(F * Phi_n) / w(n),

    with all variances replaced by their unbiased sample estimates. Note a
    constant functional c has V = c**2 * J (J = index count), not zero:
    every product c * Phi_n still fluctuates. The sum over n is formed from
    the sums s_n of F * Phi_n that :func:`estimate` makes, at its workers,
    and per path S = sum_n Phi_n**2 / w(n), which factorises slot by slot:

        (sum_m F_m**2 * S_m - sum_n s_n**2 / (M * w(n))) / (M - 1).

    Raises SizingError, TypeError (p or threads not an int) and ValueError
    as :func:`estimate` does, and ValueError when M < 2 or V overflows.
    """
    if paths.M < 2:
        raise ValueError("variance diagnostic requires at least 2 samples")
    F = _finite_vector("F", F, paths.M)
    iset, s1 = _raw_sums(F, paths, p, threads)
    M, inv_w = paths.M, iset.inv_weights(paths.spec.jump_mean)
    sF2, sF2S = _diagonal_sums(F, paths, iset, inv_w)
    with np.errstate(over="ignore", invalid="ignore"):
        var_F = (sF2 - s1[0] * s1[0] / M) / (M - 1)
        total = var_F + (sF2S - (s1[1:] * s1[1:] * inv_w).sum() / M) / (M - 1)
    _refuse_non_finite("variance_diagnostic's Var(F)", var_F)
    _refuse_non_finite("variance_diagnostic's V", total)
    # A sum of variances, which rounding leaves negative only near 0.
    return max(float(total), 0.0)
