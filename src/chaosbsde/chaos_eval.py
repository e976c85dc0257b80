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
paths.rows(m, m + 1))``. Per chunk of paths it sums each index into the
bucket of its support slot and takes a cumulative sum over r, so the full
r = 0..N sweep is O(#indices) per path. For p <= 2 the chunk is
time-major: with the stacked first-order factors X = [K1; C1] (2N rows, one
column per sample), one product W^T X with the 2N x 2N pair-coefficient
matrix W gives both derivative sums at every slot, and the value sum follows
from them elementwise. The product runs in column blocks small enough for
BLAS to run single-threaded. For p >= 3 (and p = 0) one sum per (support
slot, Hermite and Charlier degree there) of coefficients times the basis
products of their prefix-recursion parents gives all three, with no BLAS
call.

``conditional_at`` refines this to a time t inside interval r, for every
path of a batch given its partial increments accumulated since t_{r-1}:
each index is scaled by theta**(nB[r]/2) with theta = (t - t_{r-1})/h, its
Hermite factor is evaluated at the partial increment standardized by the
elapsed time, and its Charlier factor at the partial count with mean
kappa*(t - t_{r-1}). It runs the prefix kernel, at every p, on the groups
supported on slots 1..r only, with slot r's factors K_a * C_b replaced by
theta**(a/2) * K_a * C_b at the partial increments, and reads row r. At
t = t_r with the full interval increments it gives row r of
``evaluate_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chaos_core import (_CHUNK, ChaosCoefficients, _block_width, _check_bytes,
                         _chunk_slices, _chunk_tables, _ChunkBuffers, _IndexSet,
                         _map_chunks, _per_worker, _stacked_factors, _workers)
from .orthopoly import charlier_batch, hermite_batch
from .stochastic_grid import PathBatch

__all__ = ["conditional_at", "evaluate_grid"]


def _check_spec(coeffs: ChaosCoefficients, paths: PathBatch) -> None:
    if paths.spec != coeffs.spec:
        raise ValueError(
            f"path batch grid {paths.spec} does not match coefficients grid {coeffs.spec}")


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
        Time in (t_{r-1}, t_r], with the grid times of ``GridSpec.times``.
    dB : array of float, shape (M,)
        Partial Brownian increment of each path on (t_{r-1}, t], finite.
    dN : array of int, shape (M,)
        Partial jump count of each path on (t_{r-1}, t], nonnegative.

    Returns
    -------
    (y, z, u) : three arrays of shape (M,)
        At t = t_r with the full interval increments these are row r of
        :func:`evaluate_grid`.
    """
    _check_spec(coeffs, paths)
    spec = coeffs.spec
    N = spec.N
    M = paths.M
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise TypeError(f"r must be an int, got {type(r).__name__}")
    if not 1 <= r <= N:
        raise ValueError(f"r must be in [1, {N}], got {r}")
    t_lo, t_hi = spec.times()[r - 1:r + 1]
    if not (t_lo < t <= t_hi):
        raise ValueError(f"t = {t!r} outside ({t_lo}, {t_hi}] for r = {r}")
    dB = np.asarray(dB, dtype=np.float64)
    if dB.shape != (M,) or not np.isfinite(dB).all():
        raise ValueError(f"dB must be a finite vector of shape ({M},)")
    dN = np.asarray(dN)
    if (dN.shape != (M,) or not np.issubdtype(dN.dtype, np.integer)
            or (dN < 0).any()):
        raise ValueError(f"dN must be a nonnegative int vector of shape ({M},)")
    _check_bytes(N, coeffs.p, 1)

    iset = coeffs.iset
    tau = t - t_lo
    g = dB / math.sqrt(tau)
    scale = [(tau / spec.h) ** (a / 2) for a, _ in iset.prefix.pairs]
    d_pos = _prefix_coeffs(coeffs)
    row_zero = _row_zero(coeffs)
    # Row r reads only the groups supported on slots 1..r. Their Phi_pre rows
    # at slot r, built before its factors are replaced, parent no group here.
    groups = tuple(gr for gr in iset.prefix.groups if gr[3] % N < r)
    width = min(_CHUNK, M)
    buf = _ChunkBuffers(iset, width)
    Y, Z, U = np.empty((3, N + 1, width))
    out = np.empty((3, M))
    for sl in _chunk_slices(M):
        KC, phi = _chunk_tables(iset, paths.G, paths.Q, spec.jump_mean, sl, buf,
                                groups)
        K = hermite_batch(iset.p, g[sl])
        C = charlier_batch(iset.p, dN[sl], spec.kappa * tau)
        for k, (a, b) in enumerate(iset.prefix.pairs):
            np.multiply(scale[k] * K[a], C[b], out=KC[k * N + r - 1])
        cols = slice(0, KC.shape[1])
        _prefix_rows(iset, d_pos, KC, phi, cols, Y, Z, U, *row_zero, buf, groups)
        out[:, sl] = Y[r, cols], Z[r, cols], U[r, cols]
    return out[0], out[1], out[2]


def _row_zero(coeffs: ChaosCoefficients) -> tuple[float, float, float, float]:
    """Deterministic row 0 of Y, Z and U, and sqrt(h)."""
    sqrt_h = math.sqrt(coeffs.spec.h)
    z0 = float(coeffs.values[0]) / sqrt_h if coeffs.iset.J else 0.0
    u0 = float(coeffs.values[coeffs.spec.N]) if coeffs.iset.J else 0.0
    return float(coeffs.d0), z0, u0, sqrt_h


def _prefix_coeffs(coeffs: ChaosCoefficients) -> np.ndarray:
    """Coefficients in prefix order; position 0, the constant, is unused."""
    d_pos = np.empty(1 + coeffs.iset.J)
    d_pos[coeffs.iset.prefix.pos] = coeffs.values
    return d_pos


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """Order <= 2 coefficients arranged for the fused time-major kernel.

    Rows follow the stacked factors X = [K1; C1] of
    :func:`chaosbsde.chaos_core._stacked_factors`; per-slot vectors are
    (N, 1) columns that broadcast over a chunk's samples.
    """

    d1: np.ndarray            # (2N, 1) unit coefficients
    Wt: Optional[np.ndarray]  # (2N, 2N) transposed pair matrix; None when p = 1
    # Same-slot terms, all zero when p = 1.
    hBB: np.ndarray           # (N, 1) half the same-slot Hermite degree-2 coefficient
    dPP: np.ndarray           # (N, 1) same-slot Charlier degree 2
    dBP: np.ndarray           # (N, 1) same-slot mixed pair
    c0: np.ndarray            # (N, 1) hBB + kappa*h * dPP


def _pair_plan(coeffs: ChaosCoefficients) -> _PairPlan:
    iset = coeffs.iset
    N = iset.N
    v = coeffs.values
    d1 = v[:2 * N, None]
    zero = np.zeros((N, 1))
    if iset.p < 2:
        return _PairPlan(d1=d1, Wt=None, hBB=zero, dPP=zero, dBP=zero, c0=zero)
    # P[a, b] (a <= b) is the coefficient of the factor product X_a * X_b.
    P = np.zeros((2 * N, 2 * N))
    P[iset.pairs] = v[2 * N:]
    dBB = np.diag(P[:N, :N]).copy()
    dPP = np.diag(P[N:, N:]).copy()
    dBP = np.diag(P[:N, N:]).copy()
    # W[a, b] multiplies X_a in the derivative along factor b at b's slot:
    # every pair feeds the factor of its later slot, a same-slot mixed pair
    # feeds both of its factors, and d/dC1 of C2 is 2*C1.
    W = np.triu(P)
    W[N:, :N] = np.tril(P[:N, N:]).T
    W[:N, N:] = np.triu(P[:N, N:])
    W[N:, N:] += np.diag(dPP)
    hBB = 0.5 * dBB
    kh = coeffs.spec.jump_mean
    return _PairPlan(d1=d1, Wt=np.ascontiguousarray(W.T), hBB=hBB[:, None],
                     dPP=dPP[:, None], dBP=dBP[:, None],
                     c0=(hBB + kh * dPP)[:, None])


def _eval_chunk_pairs(plan: _PairPlan, kh: float, G, Q, sl: slice,
                      Y, Z, U, d0: float, z0: float, u0: float, sqrt_h: float,
                      buf: _ChunkBuffers) -> None:
    """Fused order <= 2 kernel: one blocked GEMM and a few (N, Mc) passes.

    T = d1 + W^T X stacks the unscaled derivative sums SZ (rows :N) and SU
    (rows N:) at every slot. K1*SZ + C1*SU holds every term of the value sum
    SY at its support slot, except that the same-slot terms appear as
    dBB*K1**2 in place of dBB*K2, 2*dPP*C1**2 in place of dPP*C2, and the
    mixed one twice. Removing that surplus,
    SY = K1*SZ + C1*SU - (K1**2 + 1)/2*dBB - (C1*(C1 + 1) + kh)*dPP - K1*C1*dBP,
    computed as K1*(SZ - hBB*K1 - dBP*C1) + C1*(SU - dPP*(C1 + 1)) - c0.
    """
    X = _stacked_factors(G, Q, kh, sl, buf)
    N = X.shape[0] // 2
    K1 = X[:N]
    C1 = X[N:]
    T = buf.get("T", X.shape)
    tmp = buf.get("tmp", K1.shape)
    if plan.Wt is None:
        T[:] = plan.d1
    else:
        width = _block_width(N)
        for a in range(0, X.shape[1], width):
            np.matmul(plan.Wt, X[:, a:a + width], out=T[:, a:a + width])
        T += plan.d1
    Z[0, sl] = z0
    np.divide(T[:N], sqrt_h, out=Z[1:, sl])
    U[0, sl] = u0
    U[1:, sl] = T[N:]
    T[:N] -= np.multiply(plan.hBB, K1, out=tmp)
    T[:N] -= np.multiply(plan.dBP, C1, out=tmp)
    T[N:] -= np.multiply(plan.dPP, np.add(C1, 1.0, out=tmp), out=tmp)
    T *= X
    SY = T[:N]
    SY += T[N:]
    SY -= plan.c0
    # Row by row: numpy's cumsum along axis 0 is about twice as slow here.
    Y[0, sl] = d0
    for r in range(N):
        np.add(Y[r, sl], SY[r], out=Y[r + 1, sl])


def _prefix_rows(iset: _IndexSet, d_pos: np.ndarray, KC: np.ndarray,
                 phi: np.ndarray, sl: slice, Y, Z, U, d0: float, z0: float,
                 u0: float, sqrt_h: float, buf: _ChunkBuffers, groups=None) -> None:
    """Order >= 3 kernel: one segment sum feeds the value and both derivatives.

    Given a chunk's tables from :func:`chaosbsde.chaos_core._chunk_tables`,
    V[a, b, r] sums d_j * Phi_pre[parent_j] over the indices j with support
    slot r and degrees (a, b) there, group by group of the prefix plan
    (``d_pos`` holds the coefficients in prefix order; ``groups`` defaults
    to all of the plan's). Then at each slot r,
    SY = sum_ab V*K_a*C_b, SZ = sum_{a>=1} V*K_{a-1}*C_b and
    SU = sum_{b>=1} V*K_a*b*C_{b-1}.
    """
    plan = iset.prefix
    N = iset.N
    V = buf.get("W", KC.shape)
    V.fill(0.0)
    for lo, hi, plo, f in plan.groups if groups is None else groups:
        V[f] += np.einsum("ij,i->j", phi[plo:plo + hi - lo], d_pos[lo:hi])
    Mc = KC.shape[1]
    KC = KC.reshape(-1, N, Mc)
    V = V.reshape(-1, N, Mc)
    S = buf.get("S", (3, N, Mc))
    S.fill(0.0)
    SY, SZ, SU = S
    k_of = {ab: k for k, ab in enumerate(plan.pairs)}
    for k, (a, b) in enumerate(plan.pairs[1:], start=1):
        SY += V[k] * KC[k]
        if a:
            SZ += V[k] * KC[k_of[a - 1, b]]
        if b:
            SU += b * V[k] * KC[k_of[a, b - 1]]
    Z[0, sl] = z0
    np.divide(SZ, sqrt_h, out=Z[1:, sl])
    U[0, sl] = u0
    U[1:, sl] = SU
    Y[0, sl] = d0
    for r in range(N):
        np.add(Y[r, sl], SY[r], out=Y[r + 1, sl])


def evaluate_grid(coeffs: ChaosCoefficients, paths: PathBatch, *,
                  threads: int = 1,
                  out: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expansion value and both derivative evaluators at every grid time,
    for every path of a batch.

    Returns (Y, Z, U), each of shape (N+1, M): row r holds the value at grid
    time r. Row 0 is the deterministic time-0 value of each evaluator.

    ``out`` optionally supplies preallocated (N+1, M) arrays to fill,
    avoiding reallocation in iterative callers. Results are bit-identical
    for every ``threads`` value, since chunks write disjoint column blocks,
    and for every BLAS thread count.
    """
    _check_spec(coeffs, paths)
    N = coeffs.spec.N
    M = paths.M
    if out is None:
        Y = np.empty((N + 1, M))
        Z = np.empty((N + 1, M))
        U = np.empty((N + 1, M))
    else:
        Y, Z, U = out
        for name, arr in (("Y", Y), ("Z", Z), ("U", U)):
            if arr.shape != (N + 1, M):
                raise ValueError(f"out {name} has shape {arr.shape}, expected {(N + 1, M)}")
    _check_bytes(N, coeffs.p, _workers(threads, M))
    d0, z0, u0, sqrt_h = _row_zero(coeffs)
    kh = coeffs.spec.jump_mean
    iset = coeffs.iset
    buffers = _per_worker(lambda: _ChunkBuffers(iset, min(_CHUNK, M)))
    if 1 <= coeffs.p <= 2:
        plan = _pair_plan(coeffs)

        def work(sl: slice) -> None:
            _eval_chunk_pairs(plan, kh, paths.G, paths.Q, sl,
                              Y, Z, U, d0, z0, u0, sqrt_h, buffers())
    else:
        d_pos = _prefix_coeffs(coeffs)

        def work(sl: slice) -> None:
            buf = buffers()
            KC, phi = _chunk_tables(iset, paths.G, paths.Q, kh, sl, buf)
            _prefix_rows(iset, d_pos, KC, phi, sl, Y, Z, U, d0, z0, u0, sqrt_h, buf)

    for _ in _map_chunks(work, M, threads):
        pass
    return Y, Z, U
