"""Conditional expectation and Malliavin evaluators from chaos coefficients.

Grid-time values are checked through ``evaluate_grid`` on one-path batches
against hand-computed values. The reference oracle is ``naive_in_interval``:
per index, the basis product over the observed slots gathered from
polynomial tables, times the in-interval factor of the last slot. The batch
grid evaluator (the fused order <= 2 kernel, or the prefix kernel) and the
batched ``conditional_at`` (the prefix kernel with slot r replaced) must
agree with it to rel/abs 1e-11.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosbsde import (
    GridSpec,
    MultiIndex,
    PathBatch,
    charlier_batch,
    coefficients_from_entries,
    conditional_at,
    estimate,
    evaluate_grid,
    hermite_batch,
    sample_paths,
)
from chaosbsde.chaos_core import ChaosCoefficients, _index_set


def naive_in_interval(coeffs, G, Q, r, theta, g, n, mean):
    """(y, z, u) once a fraction theta of interval r has elapsed, given the
    standardized partial increment g, the partial count n of mean ``mean``,
    and one path's increments G, Q at the slots before r. Naive per-index
    gather."""
    spec = coeffs.spec
    iset = coeffs.iset
    if iset.J == 0:
        return float(coeffs.d0), 0.0, 0.0
    sqrt_h = math.sqrt(spec.h)
    Ktau = hermite_batch(iset.p, np.float64(g))
    Ctau = charlier_batch(iset.p, np.float64(n), mean)

    mask = iset.support <= r
    dBr = iset.degB[mask, r - 1].astype(np.int64)
    dPr = iset.degP[mask, r - 1].astype(np.int64)
    vals = coeffs.values[mask]
    # Product over the fully observed slots 1..r-1. Masked indices carry no
    # degree beyond slot r, so restricting the columns suffices.
    Ktab = hermite_batch(iset.p, G[:r - 1])
    Ctab = charlier_batch(iset.p, np.asarray(Q[:r - 1], dtype=np.float64),
                          spec.jump_mean)
    cols = np.arange(r - 1)
    A = (Ktab[iset.degB[mask, :r - 1], cols]
         * Ctab[iset.degP[mask, :r - 1], cols]).prod(axis=1)

    theta_half = np.power(theta, dBr / 2.0)
    y = coeffs.d0 + vals @ (theta_half * Ktau[dBr] * Ctau[dPr] * A)

    zsel = dBr >= 1
    z = 0.0
    if zsel.any():
        z = (vals[zsel] @ (np.power(theta, (dBr[zsel] - 1) / 2.0)
                           * Ktau[dBr[zsel] - 1] * Ctau[dPr[zsel]] * A[zsel])) / sqrt_h

    usel = dPr >= 1
    u = 0.0
    if usel.any():
        u = vals[usel] @ (np.power(theta, dBr[usel] / 2.0) * Ktau[dBr[usel]]
                          * dPr[usel] * Ctau[dPr[usel] - 1] * A[usel])
    return float(y), float(z), float(u)


def naive_grid(coeffs, G, Q, r):
    """(y, z, u) at grid time r on the path with increments G, Q: the first
    unit coefficients at r = 0, else the whole of interval r elapsed."""
    if r == 0:
        if coeffs.iset.J == 0:
            return float(coeffs.d0), 0.0, 0.0
        N = coeffs.spec.N
        return (float(coeffs.d0), float(coeffs.values[0]) / math.sqrt(coeffs.spec.h),
                float(coeffs.values[N]))
    return naive_in_interval(coeffs, G, Q, r, 1.0, G[r - 1], Q[r - 1],
                             coeffs.spec.jump_mean)


def assert_rows_match(got, want):
    for g, w in zip(got, want, strict=True):
        assert g == pytest.approx(w, rel=1e-11, abs=1e-11)


def random_coefficients(N, p, seed, T=2.0, kappa=3.0):
    """Nonzero coefficients on every index, d0 = 0.3."""
    spec = GridSpec(T=T, N=N, kappa=kappa)
    iset = _index_set(N, p)
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, iset.J) * rng.choice([-1.0, 1.0], iset.J)
    return ChaosCoefficients(d0=0.3, values=values, p=p, spec=spec, iset=iset)


def unit(N, slot, jump=False):
    nB = [0] * N
    nP = [0] * N
    (nP if jump else nB)[slot] = 1
    return MultiIndex(tuple(nB), tuple(nP))


def one_path(spec, G, Q):
    """A batch holding the single path with increments G and counts Q."""
    return PathBatch(spec, 1, np.asarray(G, dtype=np.float64)[None],
                     np.asarray(Q, dtype=np.int32)[None], seed=0)


def at_grid(coeffs, path, r):
    """(y, z, u) at grid time r on a one-path batch, from evaluate_grid."""
    Y, Z, U = evaluate_grid(coeffs, path)
    return float(Y[r, 0]), float(Z[r, 0]), float(U[r, 0])


@pytest.fixture(scope="module")
def spec3():
    return GridSpec(T=1.0, N=3, kappa=1.0)


@pytest.fixture(scope="module")
def path3(spec3):
    return one_path(spec3, [0.7, -1.1, 0.4], [1, 0, 2])


class TestConditional:
    def test_constant_expansion(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=2.0)
        for r in range(4):
            assert at_grid(coeffs, path3, r)[0] == 2.0

    def test_first_brownian_unit(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        assert at_grid(coeffs, path3, 1)[0] == pytest.approx(0.7, rel=1e-15)

    def test_support_beyond_r_is_silent(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 1): 1.0})
        assert at_grid(coeffs, path3, 1)[0] == 0.0
        assert at_grid(coeffs, path3, 2)[0] == pytest.approx(-1.1, rel=1e-15)

    def test_r_zero_is_d0(self, spec3, path3):
        coeffs = coefficients_from_entries(
            spec3, 2, d0=0.25, entries={unit(3, 0): 5.0, unit(3, 2, jump=True): -3.0})
        assert at_grid(coeffs, path3, 0)[0] == 0.25

    def test_full_reconstruction_at_final_time(self, spec3):
        paths = sample_paths(spec3, 300, seed=14)
        F = np.exp(0.3 * paths.G[:, 1]) + paths.Q[:, 2]
        coeffs = estimate(F, paths, 2)
        kh = spec3.jump_mean
        for m in (0, 17, 150):
            K = hermite_batch(2, paths.G[m])
            C = charlier_batch(2, paths.Q[m], kh)
            total = coeffs.d0
            for idx, value in coeffs.entries.items():
                prod = value
                for i in range(spec3.N):
                    prod *= K[idx.nB[i], i] * C[idx.nP[i], i]
                total += prod
            got = at_grid(coeffs, paths.rows(m, m + 1), spec3.N)[0]
            assert got == pytest.approx(total, rel=1e-12)


class TestMalliavinB:
    def test_unit_gives_inverse_root_h(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        want = 1.0 / math.sqrt(spec3.h)
        assert at_grid(coeffs, path3, 1)[1] == pytest.approx(want, rel=1e-15)

    def test_constant_has_no_brownian_derivative(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=9.0)
        for r in range(4):
            assert at_grid(coeffs, path3, r)[1] == 0.0

    def test_second_degree_drops_to_first(self, spec3):
        # entry on nB = 2 e_1: derivative evaluates K_1(G_1) = G_1
        coeffs = coefficients_from_entries(
            spec3, 2, entries={MultiIndex((2, 0, 0), (0, 0, 0)): 1.0})
        path = one_path(spec3, [0.5, 0.0, 0.0], [0, 0, 0])
        want = 0.5 / math.sqrt(spec3.h)
        assert at_grid(coeffs, path, 1)[1] == pytest.approx(want, rel=1e-15)

    def test_r_zero_shortcut(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 0.3})
        want = 0.3 / math.sqrt(spec3.h)
        assert at_grid(coeffs, path3, 0)[1] == pytest.approx(want, rel=1e-15)


class TestMalliavinP:
    def test_unit_gives_one(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0, jump=True): 1.0})
        assert at_grid(coeffs, path3, 1)[2] == pytest.approx(1.0, rel=1e-15)

    def test_brownian_unit_is_excluded(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        assert at_grid(coeffs, path3, 1)[2] == 0.0

    def test_double_jump_index(self):
        # nP = 2 e_1, Q_1 = 1, kappa h = 0.05: 2 * C_1(1, 0.05) = 1.9
        spec = GridSpec(T=0.05, N=1, kappa=1.0)
        coeffs = coefficients_from_entries(
            spec, 2, entries={MultiIndex((0,), (2,)): 1.0})
        path = one_path(spec, [0.0], [1])
        assert at_grid(coeffs, path, 1)[2] == pytest.approx(1.9, rel=1e-15)

    def test_r_zero_shortcut(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0, jump=True): 0.7})
        assert at_grid(coeffs, path3, 0)[2] == pytest.approx(0.7, rel=1e-15)


class TestConditionalAt:
    def test_constant_everywhere(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=5.0)
        y, z, u = conditional_at(coeffs, path3, 1, spec3.h / 3, dB=[0.1], dN=[0])
        assert (y.tolist(), z.tolist(), u.tolist()) == ([5.0], [0.0], [0.0])

    def test_partial_interval_brownian_unit(self, spec3, path3):
        # quarter of the interval elapsed: y = sqrt(1/4) K_1(dB / sqrt(h/4))
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        t = spec3.h / 4
        y, z, u = conditional_at(coeffs, path3, 1, t, dB=[0.2], dN=[0])
        sh = math.sqrt(spec3.h)
        assert y[0] == pytest.approx(0.2 / sh, rel=1e-13)
        assert z[0] == pytest.approx(1.0 / sh, rel=1e-13)
        assert u[0] == 0.0

    def test_endpoint_matches_grid_evaluators(self, spec3):
        paths = sample_paths(spec3, 200, seed=15)
        F = np.asarray(paths.Q.sum(axis=1), dtype=float) + paths.G[:, 0]
        coeffs = estimate(F, paths, 2)
        Y, Z, U = evaluate_grid(coeffs, paths)
        sh = math.sqrt(spec3.h)
        times = spec3.times()
        for r in range(1, spec3.N + 1):
            y, z, u = conditional_at(coeffs, paths, r, times[r],
                                     dB=sh * paths.G[:, r - 1], dN=paths.Q[:, r - 1])
            assert y == pytest.approx(Y[r], rel=1e-12)
            assert z == pytest.approx(Z[r], rel=1e-12, abs=1e-12)
            assert u == pytest.approx(U[r], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    def test_every_path_matches_oracle_on_ragged_chunks(self, p):
        # 2500 = 2 * 1024 + 452 leaves a ragged last chunk.
        coeffs = random_coefficients(3, p, seed=610 + p)
        spec = coeffs.spec
        M = 2500
        paths = sample_paths(spec, M, seed=91)
        rng = np.random.default_rng(92)
        dB = rng.normal(0.0, 0.5, M)
        dN = rng.integers(0, 4, M)
        theta = 0.6
        tau = theta * spec.h
        for r in (1, -(-spec.N // 2), spec.N):
            t = spec.times()[r - 1] + tau
            got = np.stack(conditional_at(coeffs, paths, r, t, dB=dB, dN=dN))
            for m in range(M):
                assert_rows_match(got[:, m], naive_in_interval(
                    coeffs, paths.G[m], paths.Q[m], r, theta, dB[m] / math.sqrt(tau),
                    dN[m], spec.kappa * tau))

    def test_rejects_time_outside_interval(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        with pytest.raises(ValueError):
            conditional_at(coeffs, path3, 2, spec3.h * 0.5, dB=[0.0], dN=[0])
        with pytest.raises(ValueError):
            conditional_at(coeffs, path3, 1, spec3.h * 1.5, dB=[0.0], dN=[0])
        with pytest.raises(ValueError):
            conditional_at(coeffs, path3, 1, 0.0, dB=[0.0], dN=[0])

    def test_rejects_negative_jump_count(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        with pytest.raises(ValueError):
            conditional_at(coeffs, path3, 1, spec3.h / 2, dB=[0.0], dN=[-1])

    def test_rejects_float_jump_count(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        with pytest.raises(ValueError, match="dN"):
            conditional_at(coeffs, path3, 1, spec3.h / 2, dB=[0.0], dN=[1.0])

    def test_rejects_non_finite_increment(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="dB"):
                conditional_at(coeffs, path3, 1, spec3.h / 2, dB=[bad], dN=[0])

    @pytest.mark.parametrize("dB, dN", [
        (0.0, [0]), ([0.0, 0.0], [0]), ([[0.0]], [0]),
        ([0.0], 0), ([0.0], [0, 0]), ([0.0], [[0]]),
    ])
    def test_rejects_wrong_shape(self, spec3, path3, dB, dN):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        with pytest.raises(ValueError, match="shape"):
            conditional_at(coeffs, path3, 1, spec3.h / 2, dB=dB, dN=dN)

    def test_rejects_bad_interval_index(self, spec3, path3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        for r in (0, 4, -1):
            with pytest.raises(ValueError, match="r must be"):
                conditional_at(coeffs, path3, r, spec3.h / 2, dB=[0.0], dN=[0])
        for r in (1.0, True):
            with pytest.raises(TypeError):
                conditional_at(coeffs, path3, r, spec3.h / 2, dB=[0.0], dN=[0])

    def test_rejects_mismatched_spec(self, spec3, path3):
        coeffs = coefficients_from_entries(GridSpec(T=1.0, N=3, kappa=2.0), 2, d0=1.0)
        with pytest.raises(ValueError, match="does not match"):
            conditional_at(coeffs, path3, 1, spec3.h / 2, dB=[0.0], dN=[0])


class TestAgainstOracle:
    """Both evaluators against the naive gather, every index loaded."""

    @pytest.mark.parametrize("N", [1, 4])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_grid_times(self, p, N):
        coeffs = random_coefficients(N, p, seed=300 + 10 * N + p)
        paths = sample_paths(coeffs.spec, 3, seed=60 + N)
        Y, Z, U = evaluate_grid(coeffs, paths)
        for m in range(paths.M):
            for r in range(N + 1):
                assert_rows_match((Y[r, m], Z[r, m], U[r, m]),
                                  naive_grid(coeffs, paths.G[m], paths.Q[m], r))

    @pytest.mark.parametrize("dN", [0, 2])
    @pytest.mark.parametrize("theta", [0.25, 1.0])
    @pytest.mark.parametrize("N", [1, 4])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_inside_interval(self, p, N, theta, dN):
        coeffs = random_coefficients(N, p, seed=400 + 10 * N + p)
        spec = coeffs.spec
        paths = sample_paths(spec, 2, seed=70 + N)
        tau = theta * spec.h
        dB = np.array([-0.45, 0.8])
        for r in range(1, N + 1):
            got = np.stack(conditional_at(coeffs, paths, r, (r - 1 + theta) * spec.h,
                                          dB=dB, dN=np.full(paths.M, dN)))
            for m in range(paths.M):
                assert_rows_match(got[:, m], naive_in_interval(
                    coeffs, paths.G[m], paths.Q[m], r, theta, dB[m] / math.sqrt(tau),
                    dN, spec.kappa * tau))

    def test_n50_p3_peak_memory(self):
        coeffs = random_coefficients(50, 3, seed=500)
        path = sample_paths(coeffs.spec, 1, seed=80)
        t = 49.5 * coeffs.spec.h
        evaluate_grid(coeffs, path)  # warm the index-set cache
        for call in (lambda: evaluate_grid(coeffs, path),
                     lambda: conditional_at(coeffs, path, 50, t, dB=[0.3], dN=[1])):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(r=st.integers(0, 3), tail=st.floats(-50, 50, allow_nan=False),
           jumps=st.integers(0, 9))
    def test_measurability_ignores_future_increments(self, spec3, r, tail, jumps):
        paths = sample_paths(spec3, 50, seed=16)
        F = np.asarray(paths.G[:, 0] + paths.Q[:, 1], dtype=float)
        coeffs = estimate(F, paths, 2)
        G2, Q2 = paths.G[7].copy(), paths.Q[7].copy()
        G2[r:] = tail
        Q2[r:] = jumps
        mutated = one_path(spec3, G2, Q2)
        assert at_grid(coeffs, paths.rows(7, 8), r) == at_grid(coeffs, mutated, r)

    def test_linearity_in_coefficients(self, spec3, path3):
        e1 = unit(3, 0)
        e2 = MultiIndex((0, 1, 0), (1, 0, 0))
        ca = coefficients_from_entries(spec3, 2, d0=1.0, entries={e1: 2.0})
        cb = coefficients_from_entries(spec3, 2, d0=-0.5, entries={e2: 3.0})
        csum = coefficients_from_entries(spec3, 2, d0=1.0 + 2 * (-0.5),
                                         entries={e1: 2.0, e2: 2 * 3.0})
        for r in range(4):
            for got, a, b in zip(at_grid(csum, path3, r), at_grid(ca, path3, r),
                                 at_grid(cb, path3, r), strict=True):
                assert got == pytest.approx(a + 2 * b, rel=1e-12, abs=1e-12)


class TestEvaluateGrid:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_single_path_evaluators(self, p):
        spec = GridSpec(T=1.0, N=4, kappa=2.0)
        paths = sample_paths(spec, 120, seed=17)
        F = np.exp(0.2 * paths.G[:, 1]) * (1.0 + paths.Q[:, 3])
        coeffs = estimate(F, paths, p)
        Y, Z, U = evaluate_grid(coeffs, paths)
        assert Y.shape == Z.shape == U.shape == (spec.N + 1, paths.M)
        for m in (0, 31, 119):
            for r in range(spec.N + 1):
                assert_rows_match((Y[r, m], Z[r, m], U[r, m]),
                                  naive_grid(coeffs, paths.G[m], paths.Q[m], r))

    def test_row_zero_shortcuts(self, spec3):
        paths = sample_paths(spec3, 64, seed=18)
        coeffs = estimate(np.asarray(paths.Q.sum(axis=1), dtype=float), paths, 2)
        Y, Z, U = evaluate_grid(coeffs, paths)
        N = spec3.N
        assert np.all(Y[0] == coeffs.d0)
        assert np.all(Z[0] == coeffs.values[0] / math.sqrt(spec3.h))
        assert np.all(U[0] == coeffs.values[N])

    def test_thread_count_is_invisible(self, spec3):
        paths = sample_paths(spec3, 3000, seed=19)
        coeffs = estimate(paths.G[:, 0] * paths.G[:, 2], paths, 2)
        a = evaluate_grid(coeffs, paths, threads=1)
        b = evaluate_grid(coeffs, paths, threads=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_out_buffers_are_filled_in_place(self, spec3):
        paths = sample_paths(spec3, 40, seed=20)
        coeffs = estimate(paths.G[:, 0].copy(), paths, 1)
        shape = (spec3.N + 1, paths.M)
        out = tuple(np.empty(shape) for _ in range(3))
        got = evaluate_grid(coeffs, paths, out=out)
        for g, o in zip(got, out):
            assert g is o

    def test_rejects_mismatched_spec(self, spec3):
        paths = sample_paths(spec3, 10, seed=21)
        other = sample_paths(GridSpec(T=1.0, N=5, kappa=1.0), 10, seed=21)
        coeffs = estimate(np.ones(10), paths, 1)
        with pytest.raises(ValueError):
            evaluate_grid(coeffs, other)


class TestPairKernel:
    """The fused order <= 2 evaluator with every coefficient family nonzero.

    M = 2500 leaves a ragged last chunk (2500 = 2 * 1024 + 452), and at
    N = 50 the GEMM column blocks (width 26) do not divide a chunk. Random
    coefficients load units, same-slot degree 2, same-slot mixed pairs and
    distinct-slot pairs in both slot orders.
    """

    @staticmethod
    def case(N, p):
        coeffs = random_coefficients(N, p, seed=100 + N)
        return sample_paths(coeffs.spec, 2500, seed=40 + N), coeffs

    @pytest.mark.parametrize("N", [1, 2, 50])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_single_path_evaluators(self, N, p):
        paths, coeffs = self.case(N, p)
        Y, Z, U = evaluate_grid(coeffs, paths)
        # both sides of the first GEMM block boundary at N = 50, the start of
        # the second chunk, the last sample of the ragged chunk
        for m in (25, 26, 1024, 2499):
            for r in range(N + 1):
                assert_rows_match((Y[r, m], Z[r, m], U[r, m]),
                                  naive_grid(coeffs, paths.G[m], paths.Q[m], r))

    @pytest.mark.parametrize("p", [1, 2])
    def test_thread_count_is_invisible_at_n50(self, p):
        paths, coeffs = self.case(50, p)
        a = evaluate_grid(coeffs, paths, threads=1)
        b = evaluate_grid(coeffs, paths, threads=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestPrefixKernel:
    """The prefix-recursion evaluator (p >= 3, and p = 0).

    M = 2500 leaves a ragged last chunk. Random coefficients on every index
    load every (support, a, b) segment, and at N = 7, p = 4 each segment
    sums over parents of up to four orders.
    """

    @staticmethod
    def case(N, p):
        coeffs = random_coefficients(N, p, seed=200 + N)
        return sample_paths(coeffs.spec, 2500, seed=50 + N), coeffs

    @pytest.mark.parametrize("N", [1, 2, 7])
    @pytest.mark.parametrize("p", [3, 4])
    def test_matches_single_path_evaluators(self, N, p):
        paths, coeffs = self.case(N, p)
        Y, Z, U = evaluate_grid(coeffs, paths)
        # first and last sample of the first chunk, the last of the ragged one
        for m in (0, 1023, 2499):
            for r in range(N + 1):
                assert_rows_match((Y[r, m], Z[r, m], U[r, m]),
                                  naive_grid(coeffs, paths.G[m], paths.Q[m], r))
        # one path's grid values are evaluate_grid on a one-path batch
        assert_rows_match((Y[N, 2499], Z[N, 2499], U[N, 2499]),
                          at_grid(coeffs, paths.rows(2499, 2500), N))

    def test_order_zero_is_constant(self):
        paths, _ = self.case(2, 3)
        coeffs = coefficients_from_entries(paths.spec, 0, d0=-1.25)
        Y, Z, U = evaluate_grid(coeffs, paths)
        assert np.all(Y == -1.25)
        assert not Z.any() and not U.any()

    @pytest.mark.parametrize("p", [3, 4])
    def test_thread_count_is_invisible(self, p):
        paths, coeffs = self.case(7, p)
        a = evaluate_grid(coeffs, paths, threads=1)
        b = evaluate_grid(coeffs, paths, threads=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
