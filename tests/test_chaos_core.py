"""Basis enumeration, coefficient estimation, and the variance diagnostic.

The estimator oracle here is deliberately naive: per index, build the basis
product from polynomial tables and average. The production code must agree
with it to near machine precision on every code path (order 1, 2, and >= 3).
"""

import math
import tracemalloc

import numpy as np
import pytest

from chaosbsde import (
    GridSpec,
    MultiIndex,
    SizingError,
    charlier_upto,
    coefficients_from_entries,
    conditional,
    enumerate_indices,
    estimate,
    evaluate_grid,
    hermite_upto,
    malliavin_b,
    malliavin_p,
    PathView,
    sample_paths,
    variance_diagnostic,
    weight,
)
from test_chaos_eval import assert_rows_match, naive_grid


def basis_products(indices, paths):
    """Phi_n(path m) for every enumerated index: (J, M) matrix, naive impl."""
    spec = paths.spec
    kh = spec.jump_mean
    M, N = paths.G.shape
    p = max(idx.order for idx in indices)
    K = np.array([[hermite_upto(p, paths.G[m, i]).values for i in range(N)]
                  for m in range(M)])  # (M, N, p+1)
    C = np.array([[charlier_upto(p, int(paths.Q[m, i]), kh).values for i in range(N)]
                  for m in range(M)])
    out = np.empty((len(indices), M))
    for j, idx in enumerate(indices):
        prod = np.ones(M)
        for i in range(N):
            if idx.nB[i]:
                prod = prod * K[:, i, idx.nB[i]]
            if idx.nP[i]:
                prod = prod * C[:, i, idx.nP[i]]
        out[j] = prod
    return out


def naive_estimate(F, paths, p):
    indices = enumerate_indices(paths.spec.N, p)
    phi = basis_products(indices, paths)
    w = np.array([weight(idx, paths.spec) for idx in indices])
    return F.mean(), (phi @ F) / len(F) / w


class TestPairKernel:
    """The closed-form order <= 2 estimator against naive per-sample sums.

    M = 2500 leaves a ragged last chunk (2500 = 2 * 1024 + 452), and at
    N = 50 the sample-axis GEMM blocks (width 26) do not divide a chunk.
    The functional loads every family: units, same-slot degree 2, same-slot
    mixed pairs and distinct-slot pairs in both slot orders.
    """

    @staticmethod
    def case(N):
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2500, seed=30 + N)
        rng = np.random.default_rng(N)
        F = (rng.standard_normal(paths.M) + np.exp(0.3 * paths.Q.sum(axis=1))
             + paths.G[:, 0] * paths.Q[:, -1] + paths.G[:, -1] ** 2)
        return paths, F

    @pytest.mark.parametrize("N", [1, 2, 50])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_naive_sums(self, N, p):
        paths, F = self.case(N)
        indices = enumerate_indices(N, p)
        phi = basis_products(indices, paths)
        w = np.array([weight(idx, paths.spec) for idx in indices])
        coeffs = estimate(F, paths, p)
        assert coeffs.d0 == pytest.approx(F.mean(), rel=1e-13)
        want = (phi @ F) / paths.M / w
        np.testing.assert_allclose(coeffs.values, want, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(want)))
        V = F.var(ddof=1) + float((phi * F).var(axis=1, ddof=1) @ (1.0 / w))
        assert variance_diagnostic(F, paths, p) == pytest.approx(V, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2])
    def test_thread_count_is_invisible_at_n50(self, p):
        paths, F = self.case(50)
        a = estimate(F, paths, p, threads=1)
        b = estimate(F, paths, p, threads=3)
        assert a.d0 == b.d0
        assert np.array_equal(a.values, b.values)
        assert (variance_diagnostic(F, paths, p, threads=1)
                == variance_diagnostic(F, paths, p, threads=3))


class TestPrefixKernel:
    """The prefix-recursion estimator (p >= 3, and p = 0) against naive sums.

    M = 2500 leaves a ragged last chunk. At N = 7, p = 4 (J = 3059) every
    (support, a, b) segment draws on parents of up to four orders, so its
    sum runs over several groups.
    """

    @staticmethod
    def case(N):
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2500, seed=60 + N)
        rng = np.random.default_rng(N)
        F = (rng.standard_normal(paths.M) + np.exp(0.3 * paths.Q.sum(axis=1))
             + paths.G[:, 0] ** 3 * paths.Q[:, -1] + paths.G[:, -1] ** 2)
        return paths, F

    @pytest.mark.parametrize("N", [1, 2, 7])
    @pytest.mark.parametrize("p", [3, 4])
    def test_matches_naive_sums(self, N, p):
        paths, F = self.case(N)
        indices = enumerate_indices(N, p)
        phi = basis_products(indices, paths)
        w = np.array([weight(idx, paths.spec) for idx in indices])
        coeffs = estimate(F, paths, p)
        assert coeffs.d0 == pytest.approx(F.mean(), rel=1e-13)
        want = (phi @ F) / paths.M / w
        np.testing.assert_allclose(coeffs.values, want, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(want)))
        V = F.var(ddof=1) + float((phi * F).var(axis=1, ddof=1) @ (1.0 / w))
        assert variance_diagnostic(F, paths, p) == pytest.approx(V, rel=1e-10)

    def test_order_zero(self):
        paths, F = self.case(2)
        assert estimate(F, paths, 0).d0 == pytest.approx(F.mean(), rel=1e-13)
        assert variance_diagnostic(F, paths, 0) == pytest.approx(F.var(ddof=1),
                                                                 rel=1e-10)

    @pytest.mark.parametrize("p", [3, 4])
    def test_thread_count_is_invisible(self, p):
        paths, F = self.case(7)
        a = estimate(F, paths, p, threads=1)
        b = estimate(F, paths, p, threads=3)
        assert a.d0 == b.d0
        assert np.array_equal(a.values, b.values)
        assert (variance_diagnostic(F, paths, p, threads=1)
                == variance_diagnostic(F, paths, p, threads=3))


class TestByteBudget:
    @pytest.fixture(scope="class")
    def n50_p3(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        paths = sample_paths(spec, 300, seed=70)
        F = np.exp(0.1 * paths.G[:, :3].sum(axis=1)) * (1.0 + paths.Q[:, -1])
        coeffs = estimate(F, paths, 3)
        return paths, F, coeffs, evaluate_grid(coeffs, paths)

    def test_n50_p3_runs_and_matches_per_path_evaluators(self, n50_p3):
        paths, _, coeffs, (Y, Z, U) = n50_p3
        assert coeffs.values.shape == (176_850,)
        for m in (0, 299):
            view = PathView.from_batch(paths, m)
            for r in (1, 50):
                assert_rows_match((Y[r, m], Z[r, m], U[r, m]),
                                  naive_grid(coeffs, view, r))
        # the public per-path functions run the same kernel on one path
        assert_rows_match((Y[50, 299], Z[50, 299], U[50, 299]),
                          (conditional(coeffs, view, 50), malliavin_b(coeffs, view, 50),
                           malliavin_p(coeffs, view, 50)))

    def test_n50_p3_budget_counts_only_workers_that_run(self, n50_p3):
        # 300 samples are one chunk, so threads=64 still runs one worker;
        # charging 64 working sets would refuse this problem.
        paths, F, coeffs, grid = n50_p3
        wide = estimate(F, paths, 3, threads=64)
        assert wide.d0 == coeffs.d0
        assert np.array_equal(wide.values, coeffs.values)
        for a, b in zip(evaluate_grid(coeffs, paths, threads=64), grid):
            assert np.array_equal(a, b)

    def test_n50_p4_refused_before_allocating(self):
        # J = C(104, 4) - 1 = 4,598,125 indices: the bytes refuse it.
        assert math.comb(104, 4) - 1 == 4_598_125
        paths = sample_paths(GridSpec(T=2.0, N=50, kappa=3.0), 10, seed=71)
        F = np.ones(paths.M)
        tracemalloc.start()
        try:
            with pytest.raises(SizingError, match="MiB"):
                estimate(F, paths, 4)
            with pytest.raises(SizingError, match="MiB"):
                enumerate_indices(50, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEnumeration:
    def test_unit_vectors_first(self):
        indices = enumerate_indices(2, 1)
        assert len(indices) == 4
        assert [(idx.nB, idx.nP) for idx in indices] == [
            ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]

    def test_order_two_single_interval(self):
        indices = enumerate_indices(1, 2)
        assert [(idx.nB, idx.nP) for idx in indices] == [
            ((1,), (0,)), ((0,), (1,)),
            ((2,), (0,)), ((1,), (1,)), ((0,), (2,))]

    @pytest.mark.parametrize("N,p,count", [
        (20, 2, 860), (50, 2, 5150), (1, 2, 5), (2, 1, 4), (3, 3, 83)])
    def test_counts_stars_and_bars(self, N, p, count):
        assert math.comb(2 * N + p, p) - 1 == count
        assert len(enumerate_indices(N, p)) == count

    def test_p_zero_is_empty(self):
        assert enumerate_indices(3, 0) == []

    def test_graded_then_support_ordered(self):
        indices = enumerate_indices(3, 3)
        orders = [idx.order for idx in indices]
        assert orders == sorted(orders)
        for idx in indices:
            active = [i + 1 for i in range(3) if idx.nB[i] or idx.nP[i]]
            assert idx.support == max(active)

    def test_sizing_cap(self):
        with pytest.raises(SizingError):
            enumerate_indices(50, 5)

    def test_huge_basis_refused_without_overflow(self):
        # need is far beyond float range; the message must still format
        with pytest.raises(SizingError, match="MiB"):
            enumerate_indices(10**7, 60)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_indices(0, 2)
        with pytest.raises(ValueError):
            enumerate_indices(3, -1)


class TestWeight:
    def test_brownian_unit(self):
        spec = GridSpec(T=1.0, N=3, kappa=1.0)
        assert weight(MultiIndex((1, 0, 0), (0, 0, 0)), spec) == 1.0

    def test_poisson_unit_is_jump_mean(self):
        spec = GridSpec(T=0.15, N=3, kappa=1.0)  # kappa h = 0.05
        assert weight(MultiIndex((0, 0, 0), (1, 0, 0)), spec) == pytest.approx(0.05)

    def test_mixed_formula(self):
        # nB = (2,0,0), nP = (0,1,0): 1! * 0.05 / 2! = 0.025
        spec = GridSpec(T=0.15, N=3, kappa=1.0)
        idx = MultiIndex((2, 0, 0), (0, 1, 0))
        assert weight(idx, spec) == pytest.approx(0.025)

    def test_matches_empirical_second_moment(self):
        # w(n) = E Phi_n^2; check on a large batch for a few indices
        spec = GridSpec(T=1.0, N=2, kappa=1.0)
        paths = sample_paths(spec, 200_000, seed=8)
        indices = enumerate_indices(2, 2)
        phi = basis_products(indices, paths)
        for j, idx in enumerate(indices):
            w = weight(idx, spec)
            emp = float((phi[j] ** 2).mean())
            assert emp == pytest.approx(w, rel=0.1)


class TestEstimate:
    def test_constant_is_order_zero(self, small_spec):
        paths = sample_paths(small_spec, 20_000, seed=2)
        F = np.full(paths.M, 2.0)
        coeffs = estimate(F, paths, 2)
        assert coeffs.d0 == 2.0
        indices = enumerate_indices(small_spec.N, 2)
        phi = basis_products(indices, paths)
        w = np.array([weight(idx, small_spec) for idx in indices])
        bound = 4.0 * np.sqrt(phi.var(axis=1, ddof=1) / paths.M) * 2.0 / w
        assert np.all(np.abs(coeffs.values) <= bound)

    def test_single_gaussian_projects_onto_unit(self, small_spec):
        paths = sample_paths(small_spec, 100_000, seed=3)
        F = paths.G[:, 0].copy()
        coeffs = estimate(F, paths, 2)
        tol = 4.0 * math.sqrt(2.0 / paths.M)
        assert coeffs.entry(MultiIndex((1, 0, 0, 0), (0, 0, 0, 0))) == pytest.approx(
            1.0, abs=tol)
        others = [v for idx, v in coeffs.entries.items()
                  if idx != MultiIndex((1, 0, 0, 0), (0, 0, 0, 0))]
        # generous uniform bound: inflation 1/w <= 1/(kappa h)^2 = 16
        assert np.max(np.abs(others)) <= 16 * 4.0 / math.sqrt(paths.M) * 3

    def test_brownian_terminal_loads_every_unit(self, small_spec):
        paths = sample_paths(small_spec, 100_000, seed=4)
        sh = math.sqrt(small_spec.h)
        F = sh * paths.G.sum(axis=1)
        coeffs = estimate(F, paths, 1)
        tol = 4.0 * math.sqrt(1.0 / paths.M)
        for i in range(small_spec.N):
            nB = tuple(1 if k == i else 0 for k in range(small_spec.N))
            assert coeffs.entry((nB, (0,) * small_spec.N)) == pytest.approx(sh, abs=tol)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_naive_oracle(self, p, rng):
        # p = 1, 2 exercise the dense fast path; p = 3 the generic gather path
        spec = GridSpec(T=1.0, N=3, kappa=2.0)
        paths = sample_paths(spec, 400, seed=5)
        F = rng.standard_normal(paths.M) + np.exp(0.3 * paths.Q.sum(axis=1))
        coeffs = estimate(F, paths, p)
        d0, values = naive_estimate(F, paths, p)
        assert coeffs.d0 == pytest.approx(d0, rel=1e-13)
        np.testing.assert_allclose(coeffs.values, values, rtol=1e-10, atol=1e-12)

    def test_idempotent_on_basis_elements(self):
        spec = GridSpec(T=1.0, N=3, kappa=1.0)
        paths = sample_paths(spec, 150_000, seed=6)
        indices = enumerate_indices(3, 2)
        target = MultiIndex((1, 0, 0), (0, 0, 1))
        j = indices.index(target)
        phi = basis_products([target], paths)[0]
        coeffs = estimate(phi.copy(), paths, 2)
        w = weight(target, spec)
        # var(Phi^2)/w^2 <= E Phi^4 / w^2; bound empirically
        tol = 4.0 * math.sqrt(phi.var(ddof=1) * np.max(phi ** 2) / paths.M) / w
        assert coeffs.values[j] == pytest.approx(1.0, abs=min(tol, 0.2))
        others = np.delete(coeffs.values, j)
        w_all = np.delete(coeffs.weights(), j)
        assert np.all(np.abs(others) * np.sqrt(w_all) <= 0.15)

    def test_order_subset_agrees_across_p(self, small_paths):
        # coefficients depend only on the index, not on the truncation order
        F = np.asarray(small_paths.G[:, 1] * small_paths.Q[:, 0], dtype=float)
        c2 = estimate(F, small_paths, 2)
        c3 = estimate(F, small_paths, 3)
        J2 = len(c2.values)
        np.testing.assert_allclose(c3.values[:J2], c2.values, rtol=1e-10, atol=1e-13)

    def test_thread_count_is_invisible(self, small_paths):
        F = np.exp(small_paths.G[:, 0] * 0.4)
        a = estimate(F, small_paths, 2, threads=1)
        b = estimate(F, small_paths, 2, threads=4)
        assert a.d0 == b.d0
        assert np.array_equal(a.values, b.values)

    def test_rejects_length_mismatch(self, small_paths):
        with pytest.raises(ValueError):
            estimate(np.ones(small_paths.M + 1), small_paths, 2)

    def test_rejects_non_finite_with_sample_index(self, small_paths):
        F = np.ones(small_paths.M)
        F[37] = np.nan
        with pytest.raises(ValueError, match="37"):
            estimate(F, small_paths, 2)

    def test_rejects_oversized_basis(self, small_paths):
        with pytest.raises(SizingError):
            estimate(np.ones(small_paths.M), small_paths, 40)


class TestCoefficientsContainer:
    def test_round_trip_entries(self, small_spec):
        idx = MultiIndex((0, 1, 0, 0), (0, 0, 0, 0))
        coeffs = coefficients_from_entries(small_spec, 2, d0=1.5, entries={idx: 0.25})
        assert coeffs.d0 == 1.5
        assert coeffs.entry(idx) == 0.25
        assert coeffs.entries[idx] == 0.25
        nonzero = [v for v in coeffs.values if v != 0.0]
        assert nonzero == [0.25]

    def test_tuple_keys_accepted(self, small_spec):
        coeffs = coefficients_from_entries(
            small_spec, 1, entries={((1, 0, 0, 0), (0, 0, 0, 0)): 2.0})
        assert coeffs.entry(MultiIndex((1, 0, 0, 0), (0, 0, 0, 0))) == 2.0

    def test_rejects_out_of_range_index(self, small_spec):
        bad = MultiIndex((2, 1, 0, 0), (0, 0, 0, 0))  # order 3 > p = 2
        with pytest.raises(KeyError):
            coefficients_from_entries(small_spec, 2, entries={bad: 1.0})

    def test_weights_match_weight_function(self, small_spec, small_paths):
        coeffs = estimate(np.ones(small_paths.M), small_paths, 2)
        indices = enumerate_indices(small_spec.N, 2)
        w = np.array([weight(idx, small_spec) for idx in indices])
        np.testing.assert_allclose(coeffs.weights(), w, rtol=1e-15)


class TestVarianceDiagnostic:
    def test_gaussian_unit_value(self):
        # V = Var(G) + Var(G K1(G))/1 + Var(G C1(Q))/kh = 1 + 2 + 1 = 4
        spec = GridSpec(T=0.25, N=1, kappa=1.0)
        paths = sample_paths(spec, 400_000, seed=9)
        F = paths.G[:, 0].copy()
        V = variance_diagnostic(F, paths, 1)
        assert V == pytest.approx(4.0, abs=0.1)

    def test_constant_scales_with_basis_size(self, small_spec):
        # each Var(c Phi_n)/w(n) is about c^2: the total is near c^2 * J, not 0
        paths = sample_paths(small_spec, 50_000, seed=10)
        c = 3.0
        J = len(enumerate_indices(small_spec.N, 2))
        V = variance_diagnostic(np.full(paths.M, c), paths, 2)
        assert V == pytest.approx(c * c * J, rel=0.25)

    def test_predicts_estimator_mse(self):
        # over replications, weighted MSE of coefficients tracks V/M
        spec = GridSpec(T=1.0, N=2, kappa=1.0)
        ref_paths = sample_paths(spec, 400_000, seed=100)
        F_ref = np.asarray(ref_paths.Q.sum(axis=1), dtype=float)
        ref = estimate(F_ref, ref_paths, 2)
        V = variance_diagnostic(F_ref, ref_paths, 2)
        w = ref.weights()
        M = 2_000
        mses = []
        for rep in range(40):
            paths = sample_paths(spec, M, seed=200 + rep)
            F = np.asarray(paths.Q.sum(axis=1), dtype=float)
            est = estimate(F, paths, 2)
            mses.append((est.d0 - ref.d0) ** 2
                        + float(np.dot(w, (est.values - ref.values) ** 2)))
        ratio = np.mean(mses) / (V / M)
        assert 0.5 <= ratio <= 2.0

    def test_thread_count_is_invisible(self, small_paths):
        F = np.asarray(small_paths.Q.sum(axis=1), dtype=float)
        a = variance_diagnostic(F, small_paths, 2, threads=1)
        b = variance_diagnostic(F, small_paths, 2, threads=3)
        assert a == b

    def test_requires_two_samples(self, small_spec):
        paths = sample_paths(small_spec, 1, seed=0)
        with pytest.raises(ValueError):
            variance_diagnostic(np.ones(1), paths, 1)


class TestParseval:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_weighted_energy_below_second_moment(self, seed):
        spec = GridSpec(T=1.0, N=5, kappa=1.0)
        paths = sample_paths(spec, 10_000, seed=seed)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + 0.5 * paths.G[:, 2]
        coeffs = estimate(F, paths, 2)
        lhs = coeffs.d0 ** 2 + float(np.dot(coeffs.weights(), coeffs.values ** 2))
        rhs = float((F ** 2).mean()) * (1.0 + 10.0 / math.sqrt(paths.M))
        assert lhs <= rhs
