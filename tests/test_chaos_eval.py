"""Conditional expectation and Malliavin evaluators from chaos coefficients.

Single-path evaluators are checked against hand-computed values; the batch
grid evaluator must reproduce the single-path functions bit-for-bit on both
its dense (order <= 2) and generic (order >= 3) code paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosbsde import (
    GridSpec,
    enumerate_indices,
    MultiIndex,
    PathView,
    charlier_upto,
    coefficients_from_entries,
    conditional,
    conditional_at,
    estimate,
    evaluate_grid,
    hermite_upto,
    malliavin_b,
    malliavin_p,
    sample_paths,
)


def unit(N, slot, jump=False):
    nB = [0] * N
    nP = [0] * N
    (nP if jump else nB)[slot] = 1
    return MultiIndex(tuple(nB), tuple(nP))


@pytest.fixture(scope="module")
def spec3():
    return GridSpec(T=1.0, N=3, kappa=1.0)


@pytest.fixture(scope="module")
def view3():
    return PathView(G=np.array([0.7, -1.1, 0.4]), Q=np.array([1, 0, 2]))


class TestConditional:
    def test_constant_expansion(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, d0=2.0)
        for r in range(4):
            assert conditional(coeffs, view3, r) == 2.0

    def test_first_brownian_unit(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        assert conditional(coeffs, view3, 1) == pytest.approx(0.7, rel=1e-15)

    def test_support_beyond_r_is_silent(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 1): 1.0})
        assert conditional(coeffs, view3, 1) == 0.0
        assert conditional(coeffs, view3, 2) == pytest.approx(-1.1, rel=1e-15)

    def test_r_zero_is_d0(self, spec3, view3):
        coeffs = coefficients_from_entries(
            spec3, 2, d0=0.25, entries={unit(3, 0): 5.0, unit(3, 2, jump=True): -3.0})
        assert conditional(coeffs, view3, 0) == 0.25

    def test_full_reconstruction_at_final_time(self, spec3):
        paths = sample_paths(spec3, 300, seed=14)
        F = np.exp(0.3 * paths.G[:, 1]) + paths.Q[:, 2]
        coeffs = estimate(F, paths, 2)
        kh = spec3.jump_mean
        for m in (0, 17, 150):
            view = PathView.from_batch(paths, m)
            total = coeffs.d0
            for idx, value in coeffs.entries.items():
                prod = value
                for i in range(spec3.N):
                    prod *= hermite_upto(2, view.G[i])[idx.nB[i]]
                    prod *= charlier_upto(2, int(view.Q[i]), kh)[idx.nP[i]]
                total += prod
            got = conditional(coeffs, view, spec3.N)
            assert got == pytest.approx(total, rel=1e-12)


class TestMalliavinB:
    def test_unit_gives_inverse_root_h(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        want = 1.0 / math.sqrt(spec3.h)
        assert malliavin_b(coeffs, view3, 1) == pytest.approx(want, rel=1e-15)

    def test_constant_has_no_brownian_derivative(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, d0=9.0)
        for r in range(4):
            assert malliavin_b(coeffs, view3, r) == 0.0

    def test_second_degree_drops_to_first(self, spec3):
        # entry on nB = 2 e_1: derivative evaluates K_1(G_1) = G_1
        coeffs = coefficients_from_entries(
            spec3, 2, entries={MultiIndex((2, 0, 0), (0, 0, 0)): 1.0})
        view = PathView(G=np.array([0.5, 0.0, 0.0]), Q=np.zeros(3, dtype=int))
        want = 0.5 / math.sqrt(spec3.h)
        assert malliavin_b(coeffs, view, 1) == pytest.approx(want, rel=1e-15)

    def test_r_zero_shortcut(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 0.3})
        want = 0.3 / math.sqrt(spec3.h)
        assert malliavin_b(coeffs, view3, 0) == pytest.approx(want, rel=1e-15)


class TestMalliavinP:
    def test_unit_gives_one(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0, jump=True): 1.0})
        assert malliavin_p(coeffs, view3, 1) == pytest.approx(1.0, rel=1e-15)

    def test_brownian_unit_is_excluded(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        assert malliavin_p(coeffs, view3, 1) == 0.0

    def test_double_jump_index(self):
        # nP = 2 e_1, Q_1 = 1, kappa h = 0.05: 2 * C_1(1, 0.05) = 1.9
        spec = GridSpec(T=0.05, N=1, kappa=1.0)
        coeffs = coefficients_from_entries(
            spec, 2, entries={MultiIndex((0,), (2,)): 1.0})
        view = PathView(G=np.array([0.0]), Q=np.array([1]))
        assert malliavin_p(coeffs, view, 1) == pytest.approx(1.9, rel=1e-15)

    def test_r_zero_shortcut(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0, jump=True): 0.7})
        assert malliavin_p(coeffs, view3, 0) == pytest.approx(0.7, rel=1e-15)


class TestConditionalAt:
    def test_constant_everywhere(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, d0=5.0)
        y, z, u = conditional_at(coeffs, view3, 1, spec3.h / 3, dB=0.1, dN=0)
        assert (y, z, u) == (5.0, 0.0, 0.0)

    def test_partial_interval_brownian_unit(self, spec3, view3):
        # quarter of the interval elapsed: y = sqrt(1/4) K_1(dB / sqrt(h/4))
        coeffs = coefficients_from_entries(spec3, 2, entries={unit(3, 0): 1.0})
        t = spec3.h / 4
        y, z, u = conditional_at(coeffs, view3, 1, t, dB=0.2, dN=0)
        sh = math.sqrt(spec3.h)
        assert y == pytest.approx(0.2 / sh, rel=1e-13)
        assert z == pytest.approx(1.0 / sh, rel=1e-13)
        assert u == 0.0

    def test_endpoint_matches_grid_evaluators(self, spec3):
        paths = sample_paths(spec3, 200, seed=15)
        F = np.asarray(paths.Q.sum(axis=1), dtype=float) + paths.G[:, 0]
        coeffs = estimate(F, paths, 2)
        sh = math.sqrt(spec3.h)
        for m in (0, 3, 77):
            view = PathView.from_batch(paths, m)
            for r in range(1, spec3.N + 1):
                t = r * spec3.h
                y, z, u = conditional_at(coeffs, view, r, t,
                                         dB=sh * view.G[r - 1], dN=int(view.Q[r - 1]))
                assert y == pytest.approx(conditional(coeffs, view, r), rel=1e-12)
                assert z == pytest.approx(malliavin_b(coeffs, view, r),
                                          rel=1e-12, abs=1e-12)
                assert u == pytest.approx(malliavin_p(coeffs, view, r),
                                          rel=1e-12, abs=1e-12)

    def test_rejects_time_outside_interval(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        with pytest.raises(ValueError):
            conditional_at(coeffs, view3, 2, spec3.h * 0.5, dB=0.0, dN=0)
        with pytest.raises(ValueError):
            conditional_at(coeffs, view3, 1, spec3.h * 1.5, dB=0.0, dN=0)

    def test_rejects_negative_jump_count(self, spec3, view3):
        coeffs = coefficients_from_entries(spec3, 2, d0=1.0)
        with pytest.raises(ValueError):
            conditional_at(coeffs, view3, 1, spec3.h / 2, dB=0.0, dN=-1)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(r=st.integers(0, 3), tail=st.floats(-50, 50, allow_nan=False),
           jumps=st.integers(0, 9))
    def test_measurability_ignores_future_increments(self, spec3, r, tail, jumps):
        paths = sample_paths(spec3, 50, seed=16)
        F = np.asarray(paths.G[:, 0] + paths.Q[:, 1], dtype=float)
        coeffs = estimate(F, paths, 2)
        view = PathView.from_batch(paths, 7)
        G2, Q2 = view.G.copy(), view.Q.copy()
        G2[r:] = tail
        Q2[r:] = jumps
        mutated = PathView(G=G2, Q=Q2)
        assert conditional(coeffs, view, r) == conditional(coeffs, mutated, r)
        assert malliavin_b(coeffs, view, r) == malliavin_b(coeffs, mutated, r)
        assert malliavin_p(coeffs, view, r) == malliavin_p(coeffs, mutated, r)

    def test_linearity_in_coefficients(self, spec3, view3):
        e1 = unit(3, 0)
        e2 = MultiIndex((0, 1, 0), (1, 0, 0))
        ca = coefficients_from_entries(spec3, 2, d0=1.0, entries={e1: 2.0})
        cb = coefficients_from_entries(spec3, 2, d0=-0.5, entries={e2: 3.0})
        csum = coefficients_from_entries(spec3, 2, d0=1.0 + 2 * (-0.5),
                                         entries={e1: 2.0, e2: 2 * 3.0})
        for r in range(4):
            for fn in (conditional, malliavin_b, malliavin_p):
                assert fn(csum, view3, r) == pytest.approx(
                    fn(ca, view3, r) + 2 * fn(cb, view3, r), rel=1e-12, abs=1e-12)


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
            view = PathView.from_batch(paths, m)
            for r in range(spec.N + 1):
                assert Y[r, m] == pytest.approx(conditional(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)
                assert Z[r, m] == pytest.approx(malliavin_b(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)
                assert U[r, m] == pytest.approx(malliavin_p(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)

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
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2500, seed=40 + N)
        rng = np.random.default_rng(100 + N)
        indices = enumerate_indices(N, p)
        values = rng.uniform(0.5, 1.5, len(indices)) * rng.choice([-1.0, 1.0], len(indices))
        coeffs = coefficients_from_entries(spec, p, d0=0.3,
                                           entries=dict(zip(indices, values)))
        return paths, coeffs

    @pytest.mark.parametrize("N", [1, 2, 50])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_single_path_evaluators(self, N, p):
        paths, coeffs = self.case(N, p)
        Y, Z, U = evaluate_grid(coeffs, paths)
        # both sides of the first GEMM block boundary at N = 50, the start of
        # the second chunk, the last sample of the ragged chunk
        for m in (25, 26, 1024, 2499):
            view = PathView.from_batch(paths, m)
            for r in range(N + 1):
                assert Y[r, m] == pytest.approx(conditional(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)
                assert Z[r, m] == pytest.approx(malliavin_b(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)
                assert U[r, m] == pytest.approx(malliavin_p(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)

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
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2500, seed=50 + N)
        rng = np.random.default_rng(200 + N)
        indices = enumerate_indices(N, p)
        values = rng.uniform(0.5, 1.5, len(indices)) * rng.choice([-1.0, 1.0], len(indices))
        coeffs = coefficients_from_entries(spec, p, d0=0.3,
                                           entries=dict(zip(indices, values)))
        return paths, coeffs

    @pytest.mark.parametrize("N", [1, 2, 7])
    @pytest.mark.parametrize("p", [3, 4])
    def test_matches_single_path_evaluators(self, N, p):
        paths, coeffs = self.case(N, p)
        Y, Z, U = evaluate_grid(coeffs, paths)
        # first and last sample of the first chunk, the last of the ragged one
        for m in (0, 1023, 2499):
            view = PathView.from_batch(paths, m)
            for r in range(N + 1):
                assert Y[r, m] == pytest.approx(conditional(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)
                assert Z[r, m] == pytest.approx(malliavin_b(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)
                assert U[r, m] == pytest.approx(malliavin_p(coeffs, view, r),
                                                rel=1e-11, abs=1e-11)

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
