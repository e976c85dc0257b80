"""Evaluators for truncated chaos expansions over a batch of paths.

Conditioning a truncated expansion on the information available at grid time
t_r keeps exactly the indices supported on the first r intervals:

    cond_r = d0 + sum_{support(n) <= r} d_n * Phi_n(path),

which at r = 0 is d0 and at r = N reconstructs the full truncated
functional. The two derivative evaluators act on the interval ending at t_r
and keep only indices supported exactly up to r:

  * Brownian direction (delivers Z): indices with nB[r] >= 1 contribute
    d_n * K_{nB[r]-1}(G_r) * C_{nP[r]}(Q_r) * (product over earlier slots),
    all divided by sqrt(h). At r = 0 the value is the first Brownian unit
    coefficient divided by sqrt(h).
  * Jump direction (delivers U): indices with nP[r] >= 1 contribute
    d_n * K_{nB[r]}(G_r) * nP[r] * C_{nP[r]-1}(Q_r) * (earlier slots).
    At r = 0 the value is the first jump unit coefficient.

``evaluate_grid`` gives all three at every grid time for every path of a
``PathBatch``; one path's values are ``evaluate_grid(coeffs,
paths.rows(m, m + 1))``. Per chunk of paths a kernel sums each index into
the bucket of its support slot, giving the chunk's slot sums (SY, SZ, SU),
one row per slot; one writer (:func:`_write_rows`) turns them into rows
1..N, the value rows by a cumulative sum over r, so the full r = 0..N sweep
is O(#indices) per path. The chunks run under the chunk driver of
:func:`chaosbsde.chaos_core._run_chunks`. The prefix kernel forms one sum V
per (support slot, Hermite and Charlier degree there) of coefficients times
the basis products of their prefix-recursion parents, which gives all three.
V is the transposed product of the sums kernel: the coefficients, scattered
into its tiles, times the basis products below order p, tile by tile over
sample blocks small enough for BLAS to run single-threaded. It runs wherever
``chaos_core._kernel`` names "prefix"; the pair kernel, "pair_eval", is
several times faster: with the stacked first-order factors X = [K1; C1]
(2N rows, one column per sample), the product W^T X with the 2N x 2N
pair-coefficient matrix W gives both derivative sums at every slot, and the
value sum follows from them elementwise. W is zero wherever the input
factor's slot is later than the output's, so the product is taken per block
of output slots from a slot-block-major copy of X: the Z and U rows of slots
s0:s1 read only the factors of slots before s1, under the same
single-threaded bound (see :func:`chaosbsde.chaos_core._width`).

``conditional_at`` refines this to a time t inside interval r, for every
path of a batch given its partial increments accumulated since t_{r-1}:
each index is scaled by theta**(nB[r]/2) with theta = (t - t_{r-1})/h, its
Hermite factor is evaluated at the partial increment standardized by the
elapsed time, and its Charlier factor at the partial count with mean
kappa*(t - t_{r-1}). It runs the prefix kernel, the one ``_kernel`` names
for it, on the whole grid with interval r's factors K_a * C_b replaced by
theta**(a/2) * K_a * C_b at the partial increments, and reads interval r's
slot sums, accumulating the value sums up to it. At t = t_r with the full
interval increments it gives row r of ``evaluate_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chaos_core import (ChaosCoefficients, _chunk_tables, _ChunkBuffers,
                         _IndexSet, _kc_row, _kernel, _pair_blocks,
                         _run_chunks, _slot_factors, _stacked_factors, _width)
from .orthopoly import _charlier_rows, _hermite_rows
from .stochastic_grid import (_GRID_AXES, PathBatch, _check_counts, _check_grid,
                             _count, _finite_real, _finite_vector, _refuse_non_finite)

__all__ = ["conditional_at", "evaluate_grid"]


def conditional_at(coeffs: ChaosCoefficients, paths: PathBatch, r: int, t: float,
                   dB: np.ndarray, dN: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expansion value and its two derivatives at a time inside interval r,
    for every path of a batch.

    Parameters
    ----------
    coeffs, paths
        Expansion, and the M paths observed up to t_{r-1}.
    r : int
        Interval index, 1..N.
    t : float
        Time in (t_{r-1}, t_r], with the grid times of ``GridSpec.times``:
        a real number (TypeError otherwise, bools included).
    dB : array of float, shape (M,)
        Partial Brownian increment of each path on (t_{r-1}, t], finite, of
        any int or float dtype (TypeError for a complex, str, object or
        bool one).
    dN : array of int, shape (M,)
        Partial jump count of each path on (t_{r-1}, t], nonnegative.

    Returns
    -------
    (y, z, u) : three arrays of shape (M,)
        At t = t_r with the full interval increments these are row r of
        :func:`evaluate_grid`.
    """
    _check_grid(paths, coeffs.spec, "coefficients")
    spec = coeffs.spec
    N = spec.N
    M = paths.M
    r = _count("r", r, 1)
    if r > N:
        raise ValueError(f"r must be in [1, {N}], got {r}")
    t = _finite_real("t", t)
    t_lo, t_hi = spec.times()[r - 1:r + 1]
    if not (t_lo < t <= t_hi):
        raise ValueError(f"t = {t!r} outside ({t_lo}, {t_hi}] for r = {r}")
    dB = _finite_vector("dB", dB, M)
    dN = np.asarray(dN)
    if dN.shape != (M,):
        raise ValueError(f"dN has shape {dN.shape}, expected ({M},)")
    _check_counts("dN", dN)

    iset = coeffs.iset
    tau = t - t_lo
    g = dB / math.sqrt(tau)
    D = _prefix_coeffs(coeffs)
    sqrt_h = math.sqrt(spec.h)
    out = np.empty((3, M))

    def chunk(sl: slice, buf: _ChunkBuffers) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            KC, phi = _chunk_tables(iset, paths.G, paths.Q, spec.jump_mean, sl, buf)
            # Slot r's factors become the in-interval ones, from the
            # unchecked recurrences: g and dN were checked on entry. The
            # Phi_pre rows built from the full-interval ones parent only
            # indices supported after slot r, whose sums are computed and
            # not read.
            shape = (iset.p + 1, 1, KC.shape[1])
            K = _hermite_rows(iset.p, g[None, sl], np.empty(shape))
            for a in range(1, iset.p + 1):
                K[a] *= (tau / spec.h) ** (a / 2)
            C = _charlier_rows(iset.p, dN[None, sl], spec.kappa * tau, np.empty(shape),
                               np.empty(shape[1:]))
            _slot_factors(K, C, KC, N, r - 1)
            SY, SZ, SU = _prefix_slot_sums(iset, D, KC, phi, buf)
            _cumulate(SY[:r], coeffs.d0)
            out[0, sl] = SY[r - 1]
            np.divide(SZ[r - 1], sqrt_h, out=out[1, sl])
            out[2, sl] = SU[r - 1]
        for name, row in zip("YZU", out[:, None, sl]):
            _refuse_non_finite(f"conditional_at's {name}", row, _GRID_AXES, (r, sl.start))

    for _ in _run_chunks(chunk, iset, M, 1, "conditional_at"):
        pass
    return out[0], out[1], out[2]


def _prefix_coeffs(coeffs: ChaosCoefficients) -> np.ndarray:
    """Coefficients scattered into the flat table of the prefix kernel,
    zero at the entries no index has."""
    iset = coeffs.iset
    D = np.zeros(iset.n_flat)
    D[iset.gather] = coeffs.values
    return D


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """Order-2 coefficients arranged for the fused time-major kernel.

    Rows follow the stacked factors X = [K1; C1] of
    :func:`chaosbsde.chaos_core._stacked_factors`; per-slot vectors are
    (N, 1) columns that broadcast over a chunk's samples.
    """

    d1: np.ndarray            # (2N, 1) unit coefficients
    # Rows of X in slot-block-major order: per slot block s0:s1 of
    # _pair_blocks, K1 then C1 at those slots.
    perm: np.ndarray
    # Per slot block (s0, s1, Wb): Wb[0] and Wb[1], (s1 - s0, 2*s1), give
    # the Z and U rows of slots s0:s1 from the first 2*s1 rows of X[perm].
    blocks: tuple[tuple[int, int, np.ndarray], ...]
    # Same-slot terms.
    hBB: np.ndarray           # (N, 1) half the same-slot Hermite degree-2 coefficient
    dPP: np.ndarray           # (N, 1) same-slot Charlier degree 2
    dBP: np.ndarray           # (N, 1) same-slot mixed pair
    c0: np.ndarray            # (N, 1) hBB + kappa*h * dPP


def _pair_plan(coeffs: ChaosCoefficients) -> _PairPlan:
    iset = coeffs.iset
    N = iset.N
    v = coeffs.values
    d1 = v[:2 * N, None]
    # P[a, b] (a <= b) is the coefficient of the factor product X_a * X_b.
    P = np.zeros((2 * N, 2 * N))
    P[iset.pairs] = v[2 * N:]
    dBB = np.diag(P[:N, :N]).copy()
    dPP = np.diag(P[N:, N:]).copy()
    dBP = np.diag(P[:N, N:]).copy()
    # W[a, b] multiplies X_a in the derivative along factor b at b's slot:
    # every pair feeds the factor of its later slot, a same-slot mixed pair
    # feeds both of its factors, and d/dC1 of C2 is 2*C1. So W[a, b] is zero
    # when a's slot is after b's.
    W = np.triu(P)
    W[N:, :N] = np.tril(P[:N, N:]).T
    W[:N, N:] = np.triu(P[:N, N:])
    W[N:, N:] += np.diag(dPP)
    slots = _pair_blocks(N)[1]
    rows = [np.r_[s0:s1, N + s0:N + s1] for s0, s1 in slots]
    perm = np.concatenate(rows)
    Wt = W.T[:, perm]
    blocks = tuple((s0, s1, Wt[r, :2 * s1].reshape(2, s1 - s0, 2 * s1))
                   for (s0, s1), r in zip(slots, rows))
    hBB = 0.5 * dBB
    kh = coeffs.spec.jump_mean
    return _PairPlan(d1=d1, perm=perm, blocks=blocks, hBB=hBB[:, None],
                     dPP=dPP[:, None], dBP=dBP[:, None],
                     c0=(hBB + kh * dPP)[:, None])


def _pair_slot_sums(plan: _PairPlan, kh: float, G, Q, sl: slice,
                    buf: _ChunkBuffers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused p = 2 kernel: one chunk's slot sums (SY, SZ, SU), each (N, Mc),
    from block-triangular GEMMs and a few (N, Mc) passes.

    T = d1 + W^T X stacks the unscaled derivative sums SZ (rows :N) and SU
    (rows N:) at every slot; one stacked product per slot block and sample
    block writes both halves. K1*SZ + C1*SU holds every term of the value sum
    SY at its support slot, except that the same-slot terms appear as
    dBB*K1**2 in place of dBB*K2, 2*dPP*C1**2 in place of dPP*C2, and the
    mixed one twice. Removing that surplus,
    SY = K1*SZ + C1*SU - (K1**2 + 1)/2*dBB - (C1*(C1 + 1) + kh)*dPP - K1*C1*dBP,
    computed as K1*(SZ - hBB*K1 - dBP*C1) + C1*(SU - dPP*(C1 + 1)) - c0.
    SZ and SU stay in T; SY goes into the slot-block-major copy of X, which
    the products were the last to read.
    """
    X = _stacked_factors(G, Q, kh, sl, buf)
    N, Mc = X.shape[0] // 2, X.shape[1]
    K1 = X[:N]
    C1 = X[N:]
    T = buf.get("T", X.shape)
    XS = np.take(X, plan.perm, axis=0, out=buf.get("XS", X.shape), mode="clip")
    T2 = T.reshape(2, N, Mc)
    for s0, s1, Wb in plan.blocks:
        width = _width(*Wb.shape[1:])
        for a in range(0, Mc, width):
            np.matmul(Wb, XS[:2 * s1, a:a + width], out=T2[:, s0:s1, a:a + width])
    T += plan.d1
    SZ, SU = T2
    SY, tmp = XS.reshape(2, N, Mc)
    np.subtract(SZ, np.multiply(plan.hBB, K1, out=tmp), out=SY)
    SY -= np.multiply(plan.dBP, C1, out=tmp)
    SY *= K1
    np.subtract(SU, np.multiply(plan.dPP, np.add(C1, 1.0, out=tmp), out=tmp), out=tmp)
    tmp *= C1
    SY += tmp
    SY -= plan.c0
    return SY, SZ, SU


def _prefix_slot_sums(iset: _IndexSet, D: np.ndarray, KC: np.ndarray,
                      phi: np.ndarray, buf: _ChunkBuffers,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """General kernel: one chunk's slot sums (SY, SZ, SU), each (N, Mc), from
    one segment sum that feeds the value and both derivatives.

    Given a chunk's tables from :func:`chaosbsde.chaos_core._chunk_tables`
    and the coefficients D in the flat table of the prefix plan, V, laid out
    as KC, sums d_j * Phi_pre[parent_j] over the indices j of each factor
    (r, a, b): the constant parent's coefficients, plus per tile the
    product of its coefficients, transposed, with its Phi_pre rows. Then at
    each slot r, SY = sum_ab V*K_a*C_b, SZ = sum_{a>=1} V*K_{a-1}*C_b and
    SU = sum_{b>=1} V*K_a*b*C_{b-1}.
    """
    N = iset.N
    Mc = KC.shape[1]
    V = buf.get("W", KC.shape)
    V[:] = D[:iset.n_kc, None]
    for t in iset.tiles:
        m, n = t.hi - t.lo, t.c1 - t.c0
        _tile_rows(V[t.c0:t.c1], D[t.t0:t.t0 + m * n].reshape(m, n).T,
                   phi[t.lo:t.hi])
    S = buf.get("S", (3, N, Mc))
    SY, SZ, SU = S
    if iset.p == 0:
        S.fill(0.0)
    else:
        # Degree sum 1 first: its lower factor K_0 * C_0 is 1.
        V1 = V[:2 * N].reshape(N, 2, Mc)
        SZ[:] = V1[:, 0]
        SU[:] = V1[:, 1]
        np.multiply(V1, KC[:2 * N].reshape(N, 2, Mc), out=V1)
        np.add(V1[:, 0], V1[:, 1], out=SY)
    tmp = buf.get("K", (N, Mc))  # scratch: K is read no more
    for d in range(2, iset.p + 1):
        rows = slice(_kc_row(N, d, 0), _kc_row(N, d + 1, 0))
        Vd = V[rows].reshape(N, d + 1, Mc)
        KCd = KC[rows].reshape(N, d + 1, Mc)
        below = KC[_kc_row(N, d - 1, 0):rows.start].reshape(N, d, Mc)
        for b in range(d + 1):  # the factor K_{d-b} * C_b
            SY += np.multiply(Vd[:, b], KCd[:, b], out=tmp)
            if b < d:
                SZ += np.multiply(Vd[:, b], below[:, b], out=tmp)
            if b:
                np.multiply(Vd[:, b], below[:, b - 1], out=tmp)
                tmp *= b
                SU += tmp
    return SY, SZ, SU


def _tile_rows(V: np.ndarray, Dt: np.ndarray, P: np.ndarray) -> None:
    """V += Dt @ P over a chunk's samples: one stacked product over its
    whole sample blocks of :func:`chaosbsde.chaos_core._width`, plus the
    rest."""
    (n, Mc), m = V.shape, P.shape[0]
    width = _width(m, n)
    nb = Mc // width
    cut = nb * width
    if nb:
        Vb = V[:, :cut].reshape(n, nb, width).transpose(1, 0, 2)
        Vb += np.matmul(Dt, P[:, :cut].reshape(m, nb, width).transpose(1, 0, 2))
    if cut < Mc:
        V[:, cut:] += np.matmul(Dt, P[:, cut:])


def _cumulate(SY: np.ndarray, d0: float) -> None:
    """Turn value sums by support slot into the conditional values
    cond_{r+1} = cond_r + SY[r] with cond_0 = d0, in place, row by row
    (numpy's cumsum along axis 0 is about twice as slow here)."""
    SY[0] += d0
    for r in range(1, len(SY)):
        np.add(SY[r - 1], SY[r], out=SY[r])


def _write_rows(S: tuple[np.ndarray, np.ndarray, np.ndarray],
                coeffs: ChaosCoefficients, out: tuple[np.ndarray, np.ndarray, np.ndarray],
                sl: slice, sums_h: Optional[float]) -> None:
    """Write columns ``sl`` of the grids ``out`` = (Y, Z, U) from one chunk's
    slot sums S = (SY, SZ, SU): row 0 the deterministic time-0 values, rows
    1..N of Z and U the derivative sums SZ / sqrt(h) and SU, and of Y the
    conditional values, accumulated in SY.

    With ``sums_h`` set, rows 1..N of Y arrive holding the running driver
    sums S and are written as cond - sums_h * S in one pass, with
    sums_h * S formed in SZ, which Z has already taken.
    """
    SY, SZ, SU = S
    Y, Z, U = out
    sqrt_h = math.sqrt(coeffs.spec.h)
    v = coeffs.values
    Y[0, sl] = coeffs.d0
    Z[0, sl] = v[0] / sqrt_h if v.size else 0.0
    U[0, sl] = v[coeffs.spec.N] if v.size else 0.0
    np.divide(SZ, sqrt_h, out=Z[1:, sl])
    U[1:, sl] = SU
    _cumulate(SY, coeffs.d0)
    rows = Y[1:, sl]
    if sums_h is None:
        rows[:] = SY
        return
    np.subtract(SY, np.multiply(rows, sums_h, out=SZ), out=rows)


def evaluate_grid(coeffs: ChaosCoefficients, paths: PathBatch, *,
                  threads: int = 1,
                  out: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
                  _sums_h: Optional[float] = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expansion value and both derivative evaluators at every grid time,
    for every path of a batch.

    Returns (Y, Z, U), each of shape (N+1, M): row r holds the value at grid
    time r. Row 0 is the deterministic time-0 value of each evaluator.

    ``out`` optionally supplies preallocated (N+1, M) float64 arrays to
    fill, avoiding reallocation in iterative callers (ValueError for any
    other shape or dtype, or when two of them share memory). ``threads``
    is an int >= 1 (TypeError or ValueError otherwise), the most worker
    threads the call runs: one where a second cannot overlap it, as in
    :func:`chaosbsde.chaos_core.estimate`. Results are bit-identical for
    every ``threads`` value, since chunks write disjoint column blocks, and
    for every BLAS thread count.

    ``_sums_h`` is the solver's: rows 1..N of ``out``'s Y then hold the
    running driver sums S, and Y[r] is written as the conditional value
    minus ``_sums_h * S[r]``, bit for bit what subtracting afterwards gives.
    """
    _check_grid(paths, coeffs.spec, "coefficients")
    _count("threads", threads, 1)  # refused before out; the chunk driver runs later
    N = coeffs.spec.N
    M = paths.M
    if out is None:
        Y = np.empty((N + 1, M))
        Z = np.empty((N + 1, M))
        U = np.empty((N + 1, M))
    else:
        Y, Z, U = out
        grids = {"Y": Y, "Z": Z, "U": U}
        for name, arr in grids.items():
            if arr.shape != (N + 1, M):
                raise ValueError(f"out {name} has shape {arr.shape}, expected {(N + 1, M)}")
            if arr.dtype != np.float64:
                raise ValueError(f"out {name} has dtype {arr.dtype}, expected float64")
        for a, b in ("YZ", "YU", "ZU"):
            if np.shares_memory(grids[a], grids[b]):
                raise ValueError(f"out {a} and {b} share memory")
    kh = coeffs.spec.jump_mean
    iset = coeffs.iset
    pair = _kernel("evaluate_grid", coeffs.p) == "pair_eval"
    # The pair plan doubles the same-slot Charlier coefficients, which can
    # overflow; its inf reaches the chunk's grids, which are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        plan = _pair_plan(coeffs) if pair else _prefix_coeffs(coeffs)

    def chunk(sl: slice, buf: _ChunkBuffers) -> None:
        # An overflow is refused below, or by solve in its driver pass and
        # final grid. errstate is per thread, so it is set in the worker.
        with np.errstate(over="ignore", invalid="ignore"):
            if pair:
                S = _pair_slot_sums(plan, kh, paths.G, paths.Q, sl, buf)
            else:
                KC, phi = _chunk_tables(iset, paths.G, paths.Q, kh, sl, buf)
                S = _prefix_slot_sums(iset, plan, KC, phi, buf)
            _write_rows(S, coeffs, (Y, Z, U), sl, _sums_h)
        if _sums_h is None:
            for name, grid in (("Y", Y), ("Z", Z), ("U", U)):
                _refuse_non_finite(f"evaluate_grid's {name}", grid[:, sl], _GRID_AXES,
                                   (0, sl.start))

    for _ in _run_chunks(chunk, iset, M, threads, "evaluate_grid"):
        pass
    return Y, Z, U
