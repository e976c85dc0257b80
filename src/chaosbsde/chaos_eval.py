"""Evaluators for truncated chaos expansions along a path.

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

``conditional_at`` refines this to an arbitrary time t inside interval r
given the partial increments accumulated since t_{r-1}: each index is scaled
by theta**(nB[r]/2) with theta = (t - t_{r-1})/h, its Hermite factor is
evaluated at the partial increment standardized by the elapsed time, and its
Charlier factor at the partial count with mean kappa*(t - t_{r-1}). The
grid evaluators are the same computation at t = t_r.

``evaluate_grid`` is the batched engine the solver uses. Per chunk of paths
it sums each index into the bucket of its support slot and takes a
cumulative sum over r, so the full r = 0..N sweep is O(#indices) per path.
For p <= 2 the chunk is time-major: with the stacked first-order factors
X = [K1; C1] (2N rows, one column per sample), one product W^T X with the
2N x 2N pair-coefficient matrix W gives both derivative sums at every slot,
and the value sum follows from them elementwise. The product runs in column
blocks small enough for BLAS to run single-threaded. For p >= 3 (and p = 0)
one sum per (support slot, Hermite and Charlier degree there) of
coefficients times the basis products of their prefix-recursion parents
gives all three, with no BLAS call.

The per-path evaluators and ``conditional_at`` run that prefix kernel, at
every p, on a chunk of one path and read row r. For a time inside interval
r, slot r's factors K_a * C_b are first replaced by theta**(a/2) * K_a * C_b
at the partial increments; only the discarded rows after r would read them
through the prefix table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chaos_core import (ChaosCoefficients, _block_width, _check_bytes,
                         _chunk_tables, _IndexSet, _map_chunks,
                         _stacked_factors, _workers)
from .orthopoly import charlier_batch, hermite_batch
from .stochastic_grid import PathBatch

__all__ = [
    "PathView",
    "conditional",
    "malliavin_b",
    "malliavin_p",
    "conditional_at",
    "evaluate_grid",
]


@dataclass(frozen=True, eq=False)
class PathView:
    """One sample path of standardized increments (one row of a PathBatch)."""

    G: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        G = np.asarray(self.G, dtype=np.float64)
        Q = np.asarray(self.Q)
        if G.ndim != 1 or Q.ndim != 1 or G.shape != Q.shape:
            raise ValueError(
                f"G and Q must be equal-length vectors, got {G.shape} and {Q.shape}")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "Q", Q)

    @classmethod
    def from_batch(cls, paths: PathBatch, m: int) -> "PathView":
        return cls(paths.G[m], paths.Q[m])


def _check_args(coeffs: ChaosCoefficients, path: PathView, r: int,
                r_min: int = 0) -> None:
    if len(path.G) != coeffs.spec.N:
        raise ValueError(
            f"path has {len(path.G)} intervals, coefficients expect {coeffs.spec.N}")
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise TypeError(f"r must be an int, got {type(r).__name__}")
    if not r_min <= r <= coeffs.spec.N:
        raise ValueError(f"r must be in [{r_min}, {coeffs.spec.N}], got {r}")


def _grid_evaluators(coeffs: ChaosCoefficients, path: PathView,
                     r: int) -> tuple[float, float, float]:
    _check_args(coeffs, path, r)
    return _path_rows(coeffs, path, r)


def conditional(coeffs: ChaosCoefficients, path: PathView, r: int) -> float:
    """Conditional expectation of the truncated expansion at grid time r.

    Only indices with support(n) <= r contribute; r = 0 returns d0 and
    r = N the full reconstruction d0 + sum d_n Phi_n for this path.
    """
    return _grid_evaluators(coeffs, path, r)[0]


def malliavin_b(coeffs: ChaosCoefficients, path: PathView, r: int) -> float:
    """Brownian-direction derivative of the conditioned expansion at time r.

    This is the Z-evaluator of the solver. At r = 0 it returns the first
    Brownian unit coefficient divided by sqrt(h).
    """
    return _grid_evaluators(coeffs, path, r)[1]


def malliavin_p(coeffs: ChaosCoefficients, path: PathView, r: int) -> float:
    """Jump-direction derivative of the conditioned expansion at time r.

    This is the U-evaluator of the solver. At r = 0 it returns the first
    jump unit coefficient.
    """
    return _grid_evaluators(coeffs, path, r)[2]


def conditional_at(coeffs: ChaosCoefficients, path: PathView, r: int, t: float,
                   dB: float, dN: int) -> tuple[float, float, float]:
    """Expansion value and its two derivatives at a time inside interval r.

    Parameters
    ----------
    coeffs, path
        Expansion and the path observed up to t_{r-1}.
    r : int
        Interval index, 1..N.
    t : float
        Time in (t_{r-1}, t_r].
    dB : float
        Partial Brownian increment accumulated on (t_{r-1}, t].
    dN : int
        Partial jump count on (t_{r-1}, t], nonnegative.

    Returns
    -------
    (y, z, u) : tuple of floats
        At t = t_r with the full interval increments this agrees with the
        three grid evaluators at r.
    """
    _check_args(coeffs, path, r, r_min=1)
    spec = coeffs.spec
    h = spec.h
    t_lo = (r - 1) * h
    t_hi = r * h
    if not (t_lo < t <= t_hi):
        raise ValueError(f"t = {t!r} outside ({t_lo}, {t_hi}] for r = {r}")
    if not (isinstance(dN, (int, np.integer)) and not isinstance(dN, bool)) or dN < 0:
        raise ValueError(f"dN must be a nonnegative int, got {dN!r}")
    if not math.isfinite(dB):
        raise ValueError(f"dB must be finite, got {dB!r}")
    tau = t - t_lo
    return _path_rows(coeffs, path, r,
                      slot=(tau / h, dB / math.sqrt(tau), dN, spec.kappa * tau))


def _path_rows(coeffs: ChaosCoefficients, path: PathView, r: int,
               slot: Optional[tuple[float, float, int, float]] = None,
               ) -> tuple[float, float, float]:
    """Row r of (Y, Z, U) from the prefix kernel run on this one path.

    ``slot`` = (theta, g, n, mean) replaces slot r's factors K_a * C_b by
    theta**(a/2) * K_a(g) * C_b(n, mean): the interval's fraction theta has
    elapsed, with standardized partial increment g and partial count n of
    mean ``mean``. Row r reads slot r's factors only through the value and
    derivative sums of slot r itself; the Phi_pre rows built from the
    original factors feed only the rows after r.
    """
    iset = coeffs.iset
    N = iset.N
    KC, phi = _chunk_tables(iset, path.G[None], path.Q[None],
                            coeffs.spec.jump_mean, slice(0, 1))
    if slot is not None:
        theta, g, n, mean = slot
        K = hermite_batch(iset.p, np.float64(g))
        C = charlier_batch(iset.p, np.float64(n), mean)
        for k, (a, b) in enumerate(iset.prefix.pairs):
            KC[k * N + r - 1] = theta ** (a / 2) * K[a] * C[b]
    Y, Z, U = np.empty((3, N + 1, 1))
    _prefix_rows(iset, _prefix_coeffs(coeffs), KC, phi, slice(0, 1),
                 Y, Z, U, *_row_zero(coeffs))
    return float(Y[r, 0]), float(Z[r, 0]), float(U[r, 0])


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
                      Y, Z, U, d0: float, z0: float, u0: float, sqrt_h: float) -> None:
    """Fused order <= 2 kernel: one blocked GEMM and a few (N, Mc) passes.

    T = d1 + W^T X stacks the unscaled derivative sums SZ (rows :N) and SU
    (rows N:) at every slot. K1*SZ + C1*SU holds every term of the value sum
    SY at its support slot, except that the same-slot terms appear as
    dBB*K1**2 in place of dBB*K2, 2*dPP*C1**2 in place of dPP*C2, and the
    mixed one twice. Removing that surplus,
    SY = K1*SZ + C1*SU - (K1**2 + 1)/2*dBB - (C1*(C1 + 1) + kh)*dPP - K1*C1*dBP,
    computed as K1*(SZ - hBB*K1 - dBP*C1) + C1*(SU - dPP*(C1 + 1)) - c0.
    """
    X = _stacked_factors(G, Q, kh, sl)
    N = X.shape[0] // 2
    K1 = X[:N]
    C1 = X[N:]
    T = np.empty_like(X)
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
    T[:N] -= plan.hBB * K1
    T[:N] -= plan.dBP * C1
    T[N:] -= plan.dPP * (C1 + 1.0)
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
                 u0: float, sqrt_h: float) -> None:
    """Order >= 3 kernel: one segment sum feeds the value and both derivatives.

    Given a chunk's tables from :func:`chaosbsde.chaos_core._chunk_tables`,
    V[a, b, r] sums d_j * Phi_pre[parent_j] over the indices j with support
    slot r and degrees (a, b) there, group by group of the prefix plan
    (``d_pos`` holds the coefficients in prefix order). Then at each slot r,
    SY = sum_ab V*K_a*C_b, SZ = sum_{a>=1} V*K_{a-1}*C_b and
    SU = sum_{b>=1} V*K_a*b*C_{b-1}.
    """
    plan = iset.prefix
    N = iset.N
    V = np.zeros_like(KC)
    for lo, hi, plo, f in plan.groups:
        V[f] += np.einsum("ij,i->j", phi[plo:plo + hi - lo], d_pos[lo:hi])
    Mc = KC.shape[1]
    KC = KC.reshape(-1, N, Mc)
    V = V.reshape(-1, N, Mc)
    SY, SZ, SU = np.zeros((3, N, Mc))
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
    if paths.spec != coeffs.spec:
        raise ValueError(
            f"path batch grid {paths.spec} does not match coefficients grid {coeffs.spec}")
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
    if 1 <= coeffs.p <= 2:
        plan = _pair_plan(coeffs)

        def work(sl: slice) -> None:
            _eval_chunk_pairs(plan, kh, paths.G, paths.Q, sl,
                              Y, Z, U, d0, z0, u0, sqrt_h)
    else:
        iset = coeffs.iset
        d_pos = _prefix_coeffs(coeffs)

        def work(sl: slice) -> None:
            KC, phi = _chunk_tables(iset, paths.G, paths.Q, kh, sl)
            _prefix_rows(iset, d_pos, KC, phi, sl, Y, Z, U, d0, z0, u0, sqrt_h)

    for _ in _map_chunks(work, M, threads):
        pass
    return Y, Z, U
