"""Grid and path generation: law checks at 4 sigma, determinism, validation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosbsde import (Example1Params, Example2Params, GridSpec, PathBatch,
                       TerminalFunctional, conditional_at, estimate, evaluate_grid,
                       example1_grid, example2_grid, sample_paths, terminal_samples,
                       variance_diagnostic)
from chaosbsde.stochastic_grid import _DRAW_BLOCK, MAX_POISSON_MEAN, _poisson_cdf


class TestGridSpec:
    def test_step_and_times(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        assert spec.h == 0.25
        times = spec.times()
        assert times[0] == 0.0
        assert times[-1] == spec.T
        assert np.all(np.diff(times) > 0)
        np.testing.assert_allclose(np.diff(times), spec.h, rtol=1e-15)

    def test_step_times_count_is_exact(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        # N*h must recover T to within one rounding unit
        assert math.isclose(spec.N * spec.h, spec.T, rel_tol=2e-16, abs_tol=0.0)
        assert spec.jump_mean == pytest.approx(0.12, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(T=0.0, N=4, kappa=1.0),
        dict(T=-1.0, N=4, kappa=1.0),
        dict(T=1.0, N=0, kappa=1.0),
        dict(T=1.0, N=4, kappa=0.0),
        dict(T=1.0, N=4, kappa=-2.0),
        dict(T=math.nan, N=4, kappa=1.0),
        dict(T=math.inf, N=4, kappa=1.0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            GridSpec(**kwargs)

    def test_rejects_non_integer_n(self):
        with pytest.raises(TypeError):
            GridSpec(T=1.0, N=2.5, kappa=1.0)

    @pytest.mark.parametrize("T", [0.1, 0.2, 0.3, 0.35, 0.7, 1.0, 1.1, 1.3, 2.0, 2.5, 3.0])
    def test_times_end_exactly_at_T(self, T):
        # N * (T/N) rounds above T for some N (T=0.1, N=11); the interior
        # points stay i * (T/N).
        for N in range(1, 200):
            times = GridSpec(T=T, N=N, kappa=1.0).times()
            assert times.shape == (N + 1,)
            assert times[0] == 0.0 and times[-1] == T
            np.testing.assert_array_equal(times[1:-1], np.arange(1, N) * (T / N))


class TestSamplePaths:
    def test_shapes_and_dtypes(self, small_spec):
        paths = sample_paths(small_spec, 17, seed=3)
        assert isinstance(paths, PathBatch)
        assert paths.G.shape == (17, small_spec.N)
        assert paths.Q.shape == (17, small_spec.N)
        assert paths.M == 17
        assert np.issubdtype(paths.Q.dtype, np.integer)
        assert np.all(paths.Q >= 0)

    def test_single_sample_single_interval(self):
        spec = GridSpec(T=1.0, N=1, kappa=1.0)
        paths = sample_paths(spec, 1, seed=99)
        assert paths.Q.shape == (1, 1)
        assert paths.Q[0, 0] >= 0

    def test_gaussian_columns_within_4_sigma(self):
        # |mean| <= 4/sqrt(M) = 0.1265..., variance in 1 +- 4*sqrt(2/M)
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        paths = sample_paths(spec, 1_000, seed=7)
        means = paths.G.mean(axis=0)
        variances = paths.G.var(axis=0, ddof=1)
        assert np.all(np.abs(means) <= 0.13)
        assert np.all((variances >= 0.85) & (variances <= 1.15))

    def test_poisson_column_means_within_4_sigma(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        paths = sample_paths(spec, 10_000, seed=1)
        mean = spec.jump_mean
        tol = 4.0 * math.sqrt(mean / 10_000)
        assert tol == pytest.approx(0.0139, abs=2e-4)
        col_means = paths.Q.mean(axis=0)
        assert np.all(np.abs(col_means - mean) <= tol)

    def test_poisson_zero_probability(self, small_spec, small_paths):
        # P(Q = 0) = exp(-kappa h), binomial 4-sigma band
        p0 = math.exp(-small_spec.jump_mean)
        tol = 4.0 * math.sqrt(p0 * (1 - p0) / small_paths.M)
        frac = (small_paths.Q == 0).mean(axis=0)
        assert np.all(np.abs(frac - p0) <= tol)

    def test_column_independence_proxy(self):
        spec = GridSpec(T=1.0, N=6, kappa=2.0)
        M = 20_000
        paths = sample_paths(spec, M, seed=5)
        bound = 4.0 / math.sqrt(M)
        gcorr = np.corrcoef(paths.G, rowvar=False)
        assert np.all(np.abs(gcorr - np.eye(spec.N)) <= bound)
        for i in range(spec.N):
            for j in range(spec.N):
                c = np.corrcoef(paths.G[:, i], paths.Q[:, j])[0, 1]
                assert abs(c) <= bound

    def test_determinism_bitwise(self, small_spec):
        a = sample_paths(small_spec, 500, seed=11)
        b = sample_paths(small_spec, 500, seed=11)
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.Q, b.Q)

    def test_golden_stream(self):
        # Pins the generated stream itself: a numpy generator change, or any
        # reordering of the draws, changes every seeded result downstream.
        paths = sample_paths(GridSpec(T=1.0, N=20, kappa=1.0), 1000, seed=7)
        digest = hashlib.sha256(paths.G.astype("<f8").tobytes()
                                + paths.Q.astype("<i4").tobytes()).hexdigest()
        assert digest == "11d8280542f9f92f33b729e7f1106514f67f2a9a7f352d9b31f37aee8849871d"

    @pytest.mark.parametrize("N, M, kappa", [
        (50, 3_000, 3.0),     # several uniform blocks, the last one partial
        (20, 7_000, 1.0),
        (10, 2_000, 1000.0),  # kappa*h = 100: every uniform is a hit
        (70_000, 2, 1.0),     # one row is more than a block
    ])
    def test_blocked_inversion_matches_one_draw(self, N, M, kappa):
        # Oracle: all M*N uniforms in one draw, every one inverted.
        spec = GridSpec(T=1.0, N=N, kappa=kappa)
        rng = np.random.Generator(np.random.Philox(3))
        G = rng.standard_normal((M, N))
        cdf = _poisson_cdf(spec.jump_mean)
        Q = np.searchsorted(cdf, rng.random((M, N)), side="right")
        paths = sample_paths(spec, M, seed=3)
        assert np.array_equal(paths.G, G)
        assert np.array_equal(paths.Q, Q)

    @pytest.mark.parametrize("N", [1, 7, 50])
    @pytest.mark.parametrize("extra", ["one", "rows-1", "rows", "rows+1", "3rows+5"])
    def test_block_draw_is_one_shot_draw_stored_time_major(self, N, extra):
        # The reproducibility contract under row-block drawing: every M
        # around the block size gives the one-shot stream bit for bit, all
        # Gaussians before all uniforms, in time-major storage.
        rows = _DRAW_BLOCK // N
        M = {"one": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "3rows+5": 3 * rows + 5}[extra]
        spec = GridSpec(T=1.0, N=N, kappa=3.0)
        rng = np.random.Generator(np.random.Philox(17))
        G = rng.standard_normal((M, N))
        Q = np.searchsorted(_poisson_cdf(spec.jump_mean), rng.random((M, N)),
                            side="right")
        paths = sample_paths(spec, M, seed=17)
        assert np.array_equal(paths.G, G)
        assert np.array_equal(paths.Q, Q)
        assert paths.G.dtype == np.float64 and paths.Q.dtype == np.int16
        assert paths.G.strides[0] == paths.G.itemsize
        assert paths.Q.strides[0] == paths.Q.itemsize
        assert paths.G.T.flags.c_contiguous and paths.Q.T.flags.c_contiguous
        half = paths.rows(M // 2, M)
        assert half.G.strides[0] == half.G.itemsize
        assert half.Q.strides[0] == half.Q.itemsize

    def test_counts_fit_int16_at_the_largest_jump_mean(self):
        # A count is at most the table length, and the table is longest at
        # the cap: int16 holds every count a batch can draw.
        assert len(_poisson_cdf(MAX_POISSON_MEAN)) <= np.iinfo(np.int16).max

    def test_int16_counts_are_the_int64_inversion_at_the_cap(self):
        # kappa*h = 600, the largest supported mean: the stored int16
        # counts equal the one-shot int64 inversion of the same uniforms.
        spec = GridSpec(T=1.0, N=1, kappa=MAX_POISSON_MEAN)
        M = 50_000
        rng = np.random.Generator(np.random.Philox(5))
        rng.standard_normal((M, 1))
        Q = np.searchsorted(_poisson_cdf(spec.jump_mean), rng.random((M, 1)),
                            side="right")
        paths = sample_paths(spec, M, seed=5)
        assert Q.dtype == np.int64 and paths.Q.dtype == np.int16
        assert np.array_equal(paths.Q, Q)
        assert Q.max() > 600

    def test_seed_changes_output(self, small_spec):
        a = sample_paths(small_spec, 500, seed=11)
        b = sample_paths(small_spec, 500, seed=12)
        assert not np.array_equal(a.G, b.G)

    def test_prefix_stability_under_m(self, small_spec):
        # growing the batch must not change earlier draws would be too strong;
        # but a fixed (spec, M, seed) triple is a complete key: check M enters it
        a = sample_paths(small_spec, 5, seed=11)
        b = sample_paths(small_spec, 9, seed=11)
        assert a.G.shape != b.G.shape

    @pytest.mark.parametrize("M", [0, -3])
    def test_rejects_bad_m(self, small_spec, M):
        with pytest.raises(ValueError):
            sample_paths(small_spec, M, seed=0)

    def test_rejects_negative_seed(self, small_spec):
        with pytest.raises(ValueError):
            sample_paths(small_spec, 10, seed=-1)

    def test_rejects_huge_jump_mean(self):
        spec = GridSpec(T=1000.0, N=1, kappa=1.0)
        with pytest.raises(ValueError):
            sample_paths(spec, 10, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(1, 64), seed=st.integers(0, 2**31))
    def test_determinism_property(self, M, seed):
        spec = GridSpec(T=0.5, N=3, kappa=2.0)
        a = sample_paths(spec, M, seed=seed)
        b = sample_paths(spec, M, seed=seed)
        assert np.array_equal(a.G, b.G) and np.array_equal(a.Q, b.Q)

    def test_rows_view(self, small_paths):
        part = small_paths.rows(10, 20)
        assert part.M == 10
        assert np.shares_memory(part.G, small_paths.G)
        assert np.array_equal(part.G, small_paths.G[10:20])

    @pytest.mark.parametrize("start, stop", [(5, 5), (6, 5), (-1, 3), (0, 4001)])
    def test_rows_refuses_an_empty_or_out_of_range_span(self, small_paths, start,
                                                         stop):
        with pytest.raises(ValueError, match=rf"invalid row range \[{start}, {stop}\)"):
            small_paths.rows(start, stop)


def with_entry(a, index, value):
    """Copy of array a with a[index] = value."""
    a = a.copy()
    a[index] = value
    return a


class TestPathBatch:
    """A batch holds what the kernels can use, or is refused when built:
    M an int >= 1, G finite, Q integer counts >= 0. The refusal is the same
    at every p, since no kernel sees the batch."""

    SPEC = GridSpec(T=1.0, N=3, kappa=2.0)
    # Each defect maps (M, G, Q) of a valid batch to a defective one, which
    # the constructor refuses with this error and message.
    DEFECTS = {
        "nan_in_G": (lambda M, G, Q: (M, with_entry(G, (7, 1), np.nan), Q), ValueError,
                     "^G has a non-finite value nan at sample 7, interval 1$"),
        "negative_count": (lambda M, G, Q: (M, G, with_entry(Q, (4, 2), -1)), ValueError,
                           "negative count at sample 4, interval 2: -1"),
        "fractional_counts": (lambda M, G, Q: (M, G, Q + 0.5), ValueError,
                              "integer counts, got dtype float64"),
        "no_samples": (lambda M, G, Q: (0, G[:0], Q[:0]), ValueError,
                       "M must be >= 1, got 0$"),
        "float_M": (lambda M, G, Q: (float(M), G, Q), TypeError,
                    "M must be an int, got float$"),
        "G_shape": (lambda M, G, Q: (M, G[:, :2], Q), ValueError,
                    r"G has shape \(40, 2\), expected \(40, 3\)"),
        "Q_shape": (lambda M, G, Q: (M, G, Q[:39]), ValueError,
                    r"Q has shape \(39, 3\), expected \(40, 3\)"),
    }

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_defect_refused_before_any_kernel(self, p, defect):
        paths = sample_paths(self.SPEC, 40, seed=11)
        coeffs = estimate(paths.G[:, 0] * paths.Q[:, 2], paths, p)
        make, error, match = self.DEFECTS[defect]
        M, G, Q = make(paths.M, paths.G, paths.Q)
        with pytest.raises(error, match=match):
            evaluate_grid(coeffs, PathBatch(self.SPEC, M, G, Q, seed=11))

    def test_rows_runs_the_same_check(self):
        paths = sample_paths(self.SPEC, 40, seed=11)
        paths.G[12, 0] = np.inf
        paths.rows(0, 12)
        with pytest.raises(ValueError,
                           match="^G has a non-finite value inf at sample 2, interval 0$"):
            paths.rows(10, 20)

    def test_first_bad_increment_in_sample_order_is_named(self):
        # On time-major storage (7, 1) comes before (3, 2) in memory; the
        # refusal still names the first bad sample.
        paths = sample_paths(self.SPEC, 40, seed=11)
        paths.G[7, 1] = np.nan
        paths.G[3, 2] = np.inf
        with pytest.raises(ValueError,
                           match="^G has a non-finite value inf at sample 3, interval 2$"):
            PathBatch(self.SPEC, paths.M, paths.G, paths.Q, seed=11)

    def test_sampled_batch_and_its_views_are_stored_as_given(self):
        paths = sample_paths(self.SPEC, 40, seed=11)
        again = PathBatch(self.SPEC, paths.M, paths.G, paths.Q, seed=11)
        assert again.G is paths.G and again.Q is paths.Q
        part = paths.rows(10, 20)
        assert part.G.base is paths.G.base and part.Q.base is paths.Q.base

    def test_hand_built_batch_is_copied_to_time_major_storage(self):
        # Sample-major (C-ordered) arrays are copied once; every result is
        # then that of the sampled batch, bit for bit.
        spec = GridSpec(T=1.0, N=4, kappa=2.0)
        paths = sample_paths(spec, 3000, seed=11)
        G, Q = np.ascontiguousarray(paths.G), np.ascontiguousarray(paths.Q)
        batch = PathBatch(spec, paths.M, G, Q, seed=11)
        for stored, given in ((batch.G, G), (batch.Q, Q)):
            assert stored.strides[0] == stored.itemsize
            assert not np.shares_memory(stored, given)
            assert np.array_equal(stored, given) and stored.dtype == given.dtype
        F = paths.Q.sum(axis=1) + paths.G[:, 0] * paths.G[:, 2]
        for p in (1, 2, 3):
            a, b = estimate(F, batch, p), estimate(F, paths, p)
            assert a.d0 == b.d0 and np.array_equal(a.values, b.values)
            for x, y in zip(evaluate_grid(a, batch), evaluate_grid(b, paths)):
                assert np.array_equal(x, y)
        xi = TerminalFunctional.exp_levy(-0.1, 0.1, 0.2)
        assert np.array_equal(terminal_samples(xi, batch), terminal_samples(xi, paths))

    @pytest.mark.parametrize("dtype", ["uint8", "uint16", "uint32", "uint64",
                                       "int8", "int16", "int32", "int64"])
    def test_any_integer_count_dtype_gives_the_sampled_count_results(self, dtype):
        # The count rule admits every integer dtype, and every reader of Q
        # widens it before arithmetic: each result is that of the sampled
        # (int16) counts. The Charlier factors of unsigned counts must not
        # wrap around in x - m.
        spec = GridSpec(T=1.0, N=4, kappa=2.0)
        paths = sample_paths(spec, 3000, seed=11)
        batch = PathBatch(spec, paths.M, paths.G, paths.Q.astype(dtype), seed=11)
        F = paths.Q.sum(axis=1) + paths.G[:, 0] * paths.G[:, 2]
        t, dB = spec.times()[2] - spec.h / 3, paths.G[:, 1] * math.sqrt(spec.h / 3)
        for p in (1, 2, 3, 4):
            a, b = estimate(F, batch, p), estimate(F, paths, p)
            assert a.d0 == b.d0 and np.array_equal(a.values, b.values)
            assert variance_diagnostic(F, batch, p) == variance_diagnostic(F, paths, p)
            for x, y in zip(evaluate_grid(b, batch), evaluate_grid(b, paths)):
                assert np.array_equal(x, y)
            for x, y in zip(conditional_at(b, batch, 2, t, dB, batch.Q[:, 1]),
                            conditional_at(b, paths, 2, t, dB, paths.Q[:, 1])):
                assert np.array_equal(x, y)
        for xi in (TerminalFunctional.poisson_count(),
                   TerminalFunctional.exp_levy(-0.1, 0.1, 0.2)):
            assert np.array_equal(terminal_samples(xi, batch), terminal_samples(xi, paths))
        ex2 = Example2Params(alpha=0.3, beta=0.3, gamma=0.2, a=-0.1, b=0.1, c=0.2,
                             kappa=spec.kappa, T=spec.T)
        ex1 = Example1Params(c=0.5, T=spec.T)
        paths1 = sample_paths(ex1.grid(spec.N), 3000, seed=11)
        batch1 = PathBatch(paths1.spec, paths1.M, paths1.G, paths1.Q.astype(dtype), seed=11)
        for a, b in ((example2_grid(ex2, batch), example2_grid(ex2, paths)),
                     (example1_grid(ex1, batch1), example1_grid(ex1, paths1))):
            for row_a, row_b in zip(a.rows(), b.rows(), strict=True):
                for x, y in zip(row_a, row_b, strict=True):
                    assert np.array_equal(x, y)
