"""Forward Picard iteration: fixed points, determinism, error reporting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chaosbsde import (
    Driver,
    GridSpec,
    PathBatch,
    SizingError,
    SolverConfig,
    TerminalFunctional,
    draw_paths,
    estimate,
    evaluate_grid,
    sample_paths,
    solve,
    terminal_samples,
)
from chaosbsde.benchmarks import Example1Params, Example2Params
from chaosbsde.picard_solver import _driver_sums
from test_chaos_eval import BAD_THREADS


@pytest.fixture(scope="module")
def spec5():
    return GridSpec(T=1.0, N=5, kappa=1.0)


class TestDriver:
    def test_linear_jump(self):
        f = Driver.linear_jump(0.5)
        assert f.eval(0.3, 10.0, -2.0, 4.0) == 2.0

    def test_linear(self):
        f = Driver.linear(0.3, 0.3, 0.2)
        assert f.eval(0.0, 1.0, 2.0, 3.0) == pytest.approx(0.3 + 0.6 + 0.6)

    def test_linear_matches_the_formula_bitwise(self):
        rng = np.random.default_rng(0)
        y, z, u = rng.standard_normal((3, 1000))
        alpha, beta, gamma = 0.3, -0.7, 0.2
        got = Driver.linear(alpha, beta, gamma).eval(0.5, y, z, u)
        assert np.array_equal(got, alpha * y + beta * z + gamma * u)
        for arg in (y, z, u):
            assert not np.shares_memory(got, arg)

    def test_zero(self):
        assert Driver.zero().eval(1.0, 5.0, 5.0, 5.0) == 0.0

    def test_custom(self):
        f = Driver.custom(lambda t, y, z, u: t + y * z - u)
        assert f.eval(1.0, 2.0, 3.0, 4.0) == 3.0


def one_path(spec, G, Q):
    """Hand-built batch holding the single path (G, Q)."""
    return PathBatch(spec, 1, np.array([G], dtype=np.float64),
                     np.array([Q], dtype=np.int32), seed=0)


class TestTerminalFunctional:
    def test_poisson_count_single_path(self):
        spec = GridSpec(T=1.0, N=3, kappa=1.0)
        paths = one_path(spec, np.zeros(3), [1, 0, 2])
        got = terminal_samples(TerminalFunctional.poisson_count(), paths)
        np.testing.assert_array_equal(got, [3.0])

    def test_exp_levy_degenerate_is_one(self, spec5):
        xi = TerminalFunctional.exp_levy(0.0, 0.0, 0.0)
        paths = sample_paths(spec5, 50, seed=22)
        np.testing.assert_array_equal(terminal_samples(xi, paths), np.ones(50))

    def test_exp_levy_value(self):
        # T=2, b*B_T = 0.1 * 1.0, c*N_T = 0.2 * 2: exp(-0.2 + 0.1 + 0.4)
        spec = GridSpec(T=2.0, N=4, kappa=1.0)
        xi = TerminalFunctional.exp_levy(-0.1, 0.1, 0.2)
        G = np.full(4, 1.0 / (4 * math.sqrt(spec.h)))
        (got,) = terminal_samples(xi, one_path(spec, G, [1, 0, 1, 0]))
        assert got == pytest.approx(math.exp(0.3), rel=1e-12)
        assert got == pytest.approx(1.3499, abs=2e-4)

    @pytest.mark.parametrize("N, M", [(1, 5), (7, 30_000), (50, 3_000)])
    def test_bit_identical_on_time_major_batch(self, N, M):
        # The golden rows hash these values: on time-major storage they must
        # be the sums numpy adds along a C-ordered row, over several row
        # blocks and at N where the order of the additions matters.
        spec = GridSpec(T=1.5, N=N, kappa=2.0)
        paths = sample_paths(spec, M, seed=31)
        assert paths.G.strides[0] == paths.G.itemsize
        a, b, c = -0.1, 0.3, 0.2
        G = np.ascontiguousarray(paths.G)
        Q = np.ascontiguousarray(paths.Q)
        want = np.exp(a * spec.T + b * math.sqrt(spec.h) * G.sum(axis=1)
                      + c * Q.sum(axis=1))
        got = terminal_samples(TerminalFunctional.exp_levy(a, b, c), paths)
        assert np.array_equal(got, want)
        got = terminal_samples(TerminalFunctional.poisson_count(), paths)
        assert np.array_equal(got, Q.sum(axis=1).astype(np.float64))

    def test_non_finite_terminal_reports_sample(self, spec5):
        paths = sample_paths(spec5, 20, seed=24)
        xi = TerminalFunctional.custom(
            lambda pb: np.where(pb.Q.sum(axis=1) == 0, math.inf, 1.0))
        first = int(np.argmax(paths.Q.sum(axis=1) == 0))
        assert paths.Q[first].sum() == 0
        with pytest.raises(ValueError, match=f"at sample {first}$"):
            terminal_samples(xi, paths)

    def test_overflowing_exp_levy_reports_sample(self, spec5):
        # exp(c * N_T) overflows where N_T >= 1 at c = 800.
        paths = sample_paths(spec5, 20, seed=24)
        first = int(np.argmax(paths.Q.sum(axis=1) > 0))
        with pytest.raises(ValueError,
                           match=f"non-finite value .*inf.* at sample {first}$"):
            terminal_samples(TerminalFunctional.exp_levy(0.0, 0.0, 800.0), paths)

    def test_non_finite_terminal_is_printed_as_a_float(self, spec5):
        paths = sample_paths(spec5, 20, seed=24)
        xi = TerminalFunctional.custom(lambda pb: np.full(pb.M, np.inf))
        with pytest.raises(ValueError, match="non-finite value inf at sample 0$"):
            terminal_samples(xi, paths)

    @pytest.mark.parametrize("fn", [
        lambda pb: np.ones((pb.M, 1)),
        lambda pb: 1.0,
    ], ids=["column", "scalar"])
    def test_wrong_shape_rejected(self, spec5, fn):
        paths = sample_paths(spec5, 20, seed=25)
        with pytest.raises(ValueError, match=r"expected \(20,\)"):
            terminal_samples(TerminalFunctional.custom(fn), paths)

    def test_one_field_each(self):
        assert [f.name for f in dataclasses.fields(TerminalFunctional)] == ["eval"]
        assert [f.name for f in dataclasses.fields(Driver)] == ["eval"]


class TestSolverConfig:
    def test_validation(self, spec5):
        with pytest.raises(ValueError, match="^p must be >= 0, got -1$"):
            SolverConfig(spec=spec5, p=-1, K_it=1, M=10, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=0, M=10, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=1, M=0, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=1, M=10, seed=-1)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=1, M=10, seed=0, sample_mode="half")

    @pytest.mark.parametrize("threads, error", BAD_THREADS)
    def test_threads_refused_before_drawing_paths(self, spec5, monkeypatch,
                                                  threads, error):
        import chaosbsde.picard_solver as ps

        def no_draw(*args, **kwargs):
            raise AssertionError("paths drawn before threads was checked")

        monkeypatch.setattr(ps, "sample_paths", no_draw)
        cfg = SolverConfig(spec=spec5, p=1, K_it=1, M=10, seed=0)
        with pytest.raises(error, match="threads"):
            solve(cfg, Driver.zero(), TerminalFunctional.poisson_count(),
                  threads=threads)

    @pytest.mark.parametrize("N, p, error, match", [
        (50, 4, SizingError, "N=50, p=4 with 1 worker"),
        (5, 61, ValueError, "p = 61 exceeds the degree cap 60"),
    ])
    def test_basis_refused_before_drawing_paths(self, monkeypatch, N, p, error, match):
        import chaosbsde.picard_solver as ps

        def no_draw(*args, **kwargs):
            raise AssertionError("paths drawn before the basis was checked")

        monkeypatch.setattr(ps, "sample_paths", no_draw)
        cfg = SolverConfig(spec=GridSpec(T=1.0, N=N, kappa=1.0), p=p, K_it=1,
                           M=1000, seed=0)
        with pytest.raises(error, match=match):
            draw_paths(cfg)
        with pytest.raises(error, match=match):
            solve(cfg, Driver.zero(), TerminalFunctional.poisson_count())
        # Supplied paths: refused before the terminal functional runs.
        paths = sample_paths(cfg.spec, cfg.M, seed=0)

        def no_terminal(pb):
            raise AssertionError("terminal functional evaluated first")

        with pytest.raises(error, match=match):
            solve(cfg, Driver.zero(), TerminalFunctional.custom(no_terminal),
                  paths=paths)

    def test_a_solve_admits_its_basis_once(self, monkeypatch, spec5):
        import chaosbsde.picard_solver as ps

        admit, admitted = ps._admit_basis, []

        def spy(N, p):
            admitted.append((N, p))
            return admit(N, p)

        monkeypatch.setattr(ps, "_admit_basis", spy)
        cfg = SolverConfig(spec=spec5, p=2, K_it=1, M=30, seed=0)
        for run in (lambda: draw_paths(cfg),
                    lambda: solve(cfg, Driver.zero(), TerminalFunctional.poisson_count()),
                    lambda: solve(cfg, Driver.zero(), TerminalFunctional.poisson_count(),
                                  paths=sample_paths(spec5, 30, seed=0))):
            admitted.clear()
            run()
            assert admitted == [(spec5.N, 2)]

    def test_draw_paths_independent_mode_doubles(self, spec5):
        reuse = draw_paths(SolverConfig(spec=spec5, p=1, K_it=1, M=30, seed=0))
        indep = draw_paths(SolverConfig(spec=spec5, p=1, K_it=1, M=30, seed=0,
                                        sample_mode="independent"))
        assert reuse.M == 30
        assert indep.M == 60
        # estimation half of the independent batch is the reuse batch
        np.testing.assert_array_equal(indep.G[:30], reuse.G)


class TestSolve:
    def test_constant_terminal_order_zero(self, spec5):
        """A constant terminal with f = 0 is order-0 chaos.

        Its mean is recovered exactly (row 0 equals the constant to the last
        bit) while the higher coefficients see pure Monte Carlo noise, which
        shows up in Y, Z, U away from time 0 and shrinks like 1/sqrt(M).
        """
        xi = TerminalFunctional.custom(lambda pb: np.full(pb.M, 7.5))
        noise = {}
        for M in (500, 50_000):
            cfg = SolverConfig(spec=spec5, p=2, K_it=1, M=M, seed=7)
            grid = solve(cfg, Driver.zero(), xi)
            assert np.all(grid.Y[0] == 7.5)
            assert np.all(grid.Z[0] == grid.coeffs_final.values[0] / math.sqrt(spec5.h))
            noise[M] = max(np.abs(grid.Z).max(), np.abs(grid.U).max())
        # 100x the samples: noise should drop by about 10, demand at least 3
        assert noise[50_000] <= noise[500] / 3.0

    def test_zero_driver_is_one_iteration_fixed_point(self, spec5):
        # with f = 0 the functional F never changes, so neither does the grid
        xi = TerminalFunctional.poisson_count()
        g1 = solve(SolverConfig(spec=spec5, p=2, K_it=1, M=2_000, seed=3),
                   Driver.zero(), xi)
        g4 = solve(SolverConfig(spec=spec5, p=2, K_it=4, M=2_000, seed=3),
                   Driver.zero(), xi)
        assert np.array_equal(g1.Y, g4.Y)
        assert np.array_equal(g1.Z, g4.Z)
        assert np.array_equal(g1.U, g4.U)

    def test_brownian_terminal_is_exact_at_order_one(self):
        # f = 0, xi = B_T: E_t(B_T) = B_t, Z = 1, U = 0 up to MC noise
        spec = GridSpec(T=1.0, N=8, kappa=1.0)
        xi = TerminalFunctional.custom(
            lambda pb: np.sqrt(pb.spec.h) * pb.G.sum(axis=1))
        cfg = SolverConfig(spec=spec, p=1, K_it=1, M=50_000, seed=5)
        grid = solve(cfg, Driver.zero(), xi)
        B = np.vstack([np.zeros(cfg.M),
                       np.cumsum(math.sqrt(spec.h) * grid.paths.G.T, axis=0)])
        assert np.abs(grid.Y - B).max() <= 0.2
        assert np.abs(grid.Z - 1.0).mean() <= 0.02
        assert np.abs(grid.U).mean() <= 0.02

    def test_row_zero_invariants(self, spec5):
        cfg = SolverConfig(spec=spec5, p=2, K_it=3, M=5_000, seed=6)
        grid = solve(cfg, Driver.linear_jump(0.5), TerminalFunctional.poisson_count())
        co = grid.coeffs_final
        assert np.all(grid.Y[0] == co.d0)
        assert np.all(grid.Z[0] == co.values[0] / math.sqrt(spec5.h))
        assert np.all(grid.U[0] == co.values[spec5.N])

    def test_determinism_across_runs_and_threads(self, spec5):
        cfg = SolverConfig(spec=spec5, p=2, K_it=3, M=4_000, seed=8)
        drv = Driver.linear(0.3, 0.3, 0.2)
        xi = TerminalFunctional.exp_levy(-0.1, 0.1, 0.2)
        a = solve(cfg, drv, xi, threads=1)
        b = solve(cfg, drv, xi, threads=1)
        c = solve(cfg, drv, xi, threads=4)
        for x, y in ((a, b), (a, c)):
            assert np.array_equal(x.Y, y.Y)
            assert np.array_equal(x.Z, y.Z)
            assert np.array_equal(x.U, y.U)

    def test_example1_converges_near_truth(self, spec5):
        spec = GridSpec(T=1.0, N=10, kappa=1.0)
        cfg = SolverConfig(spec=spec, p=2, K_it=5, M=30_000, seed=9)
        grid = solve(cfg, Driver.linear_jump(0.5), TerminalFunctional.poisson_count())
        assert grid.Y[0, 0] == pytest.approx(1.5, abs=0.15)
        assert grid.Z[0, 0] == pytest.approx(0.0, abs=0.15)
        assert grid.U[0, 0] == pytest.approx(1.0, abs=0.15)

    def test_independent_mode_shapes_and_determinism(self, spec5):
        cfg = SolverConfig(spec=spec5, p=2, K_it=2, M=3_000, seed=10,
                           sample_mode="independent")
        drv = Driver.linear_jump(0.5)
        xi = TerminalFunctional.poisson_count()
        a = solve(cfg, drv, xi)
        b = solve(cfg, drv, xi, threads=3)
        assert a.Y.shape == (spec5.N + 1, 3_000)
        assert a.paths.M == 3_000
        assert np.array_equal(a.Y, b.Y)
        assert np.all(a.Y[0] == a.coeffs_final.d0)

    def test_independent_mode_near_reuse_mode(self, spec5):
        drv = Driver.linear_jump(0.5)
        xi = TerminalFunctional.poisson_count()
        reuse = solve(SolverConfig(spec=spec5, p=2, K_it=4, M=40_000, seed=11),
                      drv, xi)
        indep = solve(SolverConfig(spec=spec5, p=2, K_it=4, M=40_000, seed=11,
                                   sample_mode="independent"), drv, xi)
        assert indep.Y[0, 0] == pytest.approx(reuse.Y[0, 0], abs=0.1)

    def test_iterate_k_is_the_final_iterate_of_a_k_iteration_solve(self, spec5,
                                                                    monkeypatch):
        import chaosbsde.picard_solver as ps

        cfg = SolverConfig(spec=spec5, p=2, K_it=4, M=2_000, seed=12)
        drv, xi = Driver.linear_jump(0.5), TerminalFunctional.poisson_count()
        paths = draw_paths(cfg)
        iterates = []

        def recorded(*args, **kwargs):
            iterates.append(estimate(*args, **kwargs))
            return iterates[-1]

        with monkeypatch.context() as m:
            m.setattr(ps, "estimate", recorded)
            solve(cfg, drv, xi, paths=paths)
        assert len(iterates) == cfg.K_it
        for k, it in enumerate(iterates, start=1):
            final = solve(dataclasses.replace(cfg, K_it=k), drv, xi,
                          paths=paths).coeffs_final
            assert it.d0 == final.d0
            assert np.array_equal(it.values, final.values)

    @pytest.mark.parametrize("K_it", [1, 3])
    def test_p0_solve_is_the_constant_expansion(self, K_it):
        # At p = 0 the driver sees Z = U = 0 and the sample mean of
        # xi + h * sum f, which example1's f = c*u makes xi's own.
        params = Example1Params(c=0.5, T=1.0)
        cfg = SolverConfig(spec=params.grid(10), p=0, K_it=K_it, M=3_000, seed=4)
        xi = TerminalFunctional.poisson_count()
        grid = solve(cfg, Driver.linear_jump(params.c), xi)
        assert not grid.Z.any() and not grid.U.any()
        d0 = estimate(terminal_samples(xi, grid.paths), grid.paths, 0).d0
        assert grid.coeffs_final.d0 == d0
        assert np.array_equal(grid.Y, np.full_like(grid.Y, d0))

    def test_supplied_paths_must_match_config(self, spec5):
        cfg = SolverConfig(spec=spec5, p=1, K_it=1, M=100, seed=0)
        wrong_m = sample_paths(spec5, 99, seed=0)
        with pytest.raises(ValueError):
            solve(cfg, Driver.zero(), TerminalFunctional.poisson_count(),
                  paths=wrong_m)
        wrong_spec = sample_paths(GridSpec(T=1.0, N=6, kappa=1.0), 100, seed=0)
        with pytest.raises(ValueError):
            solve(cfg, Driver.zero(), TerminalFunctional.poisson_count(),
                  paths=wrong_spec)

    def test_non_finite_driver_reports_iteration(self, spec5):
        cfg = SolverConfig(spec=spec5, p=1, K_it=2, M=50, seed=13)
        bad = Driver.custom(lambda t, y, z, u: math.nan if t > 0.5 else 0.0)
        with pytest.raises(ValueError, match="iteration"):
            solve(cfg, bad, TerminalFunctional.poisson_count())

    @pytest.mark.parametrize("mode", ["reuse", "independent"])
    def test_non_finite_driver_reports_grid_index_and_sample(self, spec5, mode):
        cfg = SolverConfig(spec=spec5, p=1, K_it=2, M=50, seed=13, sample_mode=mode)

        def bad(t, y, z, u):
            out = np.zeros_like(y)
            if t > 0.5:
                out[7] = math.inf
            return out

        with pytest.raises(ValueError,
                           match="^driver output at iteration 1 has a non-finite value "
                                 "inf at grid index 3, sample 7$"):
            solve(cfg, Driver.custom(bad), TerminalFunctional.poisson_count())

    def test_overflowing_driver_sum_reports_grid_index_and_sample(self, spec5):
        # Finite driver values whose running sum overflows on the evaluation
        # batch only: F stays finite, the last sum is not, and the rows are
        # walked back to the first that overflowed.
        cfg = SolverConfig(spec=spec5, p=1, K_it=1, M=50, seed=13,
                           sample_mode="independent")
        calls = []

        def huge_on_second_batch(t, y, z, u):
            calls.append(t)
            out = np.zeros_like(y)
            if len(calls) > spec5.N:
                out[7] = 1e308
            return out

        with pytest.raises(ValueError,
                           match="^running driver sum at iteration 1 has a non-finite "
                                 "value inf at grid index 2, sample 7$"):
            solve(cfg, Driver.custom(huge_on_second_batch),
                  TerminalFunctional.poisson_count())

    def test_overflowing_sum_of_the_drivers_own_rows(self):
        # A driver returning its y argument returns the row the sum is
        # written to; the check must still see the finite f_i.
        Y = np.zeros((4, 10))
        Y[1:3, 7] = 1e308
        times = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError,
                           match="^running driver sum at iteration 2 has a non-finite "
                                 "value inf at grid index 2, sample 7$"):
            _driver_sums(Driver.custom(lambda t, y, z, u: y), times, Y,
                         np.zeros_like(Y), np.zeros_like(Y), 1)

    def test_non_finite_final_grid_reports_grid_index_and_sample(self):
        # h = 2: a finite driver sum S on the evaluation batch passes the
        # driver check, but the offset h * S overflows in the evaluation, and
        # the final scan names the first non-finite Y entry, row by row.
        spec = GridSpec(T=10.0, N=5, kappa=1.0)
        cfg = SolverConfig(spec=spec, p=1, K_it=1, M=50, seed=13,
                           sample_mode="independent")
        calls = []

        def huge_once_on_second_batch(t, y, z, u):
            calls.append(t)
            out = np.zeros_like(y)
            if len(calls) == spec.N + 2:
                out[7] = 1e308
            return out

        with pytest.raises(ValueError,
                           match="^Y of iteration 1 has a non-finite value -inf at "
                                 "grid index 2, sample 7$"):
            solve(cfg, Driver.custom(huge_once_on_second_batch),
                  TerminalFunctional.poisson_count())

    def test_final_grid_scan_names_the_first_bad_row(self):
        # As above, but the driver sums of the evaluation batch are 1e308
        # only at row 2, sample 7 and at row 4, sample 3: the scan goes row
        # by row, so row 2 is named although its sample comes later.
        spec = GridSpec(T=10.0, N=5, kappa=1.0)
        cfg = SolverConfig(spec=spec, p=1, K_it=1, M=50, seed=13,
                           sample_mode="independent")
        calls = []

        def spikes_on_second_batch(t, y, z, u):
            calls.append(t)
            out = np.zeros_like(y)
            i = len(calls) - spec.N  # grid index on the evaluation batch
            for row, m in ((2, 7), (4, 3)):
                if i in (row, row + 1):
                    out[m] = 1e308 if i == row else -1e308
            return out

        with pytest.raises(ValueError,
                           match="^Y of iteration 1 has a non-finite value -inf at "
                                 "grid index 2, sample 7$"):
            solve(cfg, Driver.custom(spikes_on_second_batch),
                  TerminalFunctional.poisson_count())

    def test_overflowing_functional_reports_iteration_and_sample(self):
        # h = 4: the driver sum 1e308 is finite, but h times it is not.
        spec = GridSpec(T=4.0, N=1, kappa=1.0)
        cfg = SolverConfig(spec=spec, p=1, K_it=2, M=20, seed=13)

        def huge_from_sample_3(t, y, z, u):
            out = np.zeros_like(y)
            out[3:] = 1e308
            return out

        with pytest.raises(ValueError,
                           match="^F at iteration 1 has a non-finite value inf at "
                                 "sample 3$"):
            solve(cfg, Driver.custom(huge_from_sample_3),
                  TerminalFunctional.poisson_count())

    def test_iterations_reuse_the_driver_row_buffer(self):
        # Each iteration writes its driver sums into the rows of Y, so more
        # iterations add no N x M allocation to the peak.
        spec = GridSpec(T=1.0, N=20, kappa=1.0)
        M = 20_000

        def peak(q):
            cfg = SolverConfig(spec=spec, p=2, K_it=q, M=M, seed=15)
            paths = draw_paths(cfg)
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                solve(cfg, Driver.linear_jump(0.5), TerminalFunctional.poisson_count(),
                      paths=paths)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top - base

        assert peak(3) - peak(1) < spec.N * M * 4

    def test_peak_is_three_grids_and_less_than_one_more_array(self):
        # Y, Z and U are the only (N+1) x M arrays: the driver sums live in
        # Y's rows, and the final finiteness scan reads a row at a time.
        spec = GridSpec(T=1.0, N=50, kappa=1.0)
        cfg = SolverConfig(spec=spec, p=2, K_it=2, M=20_000, seed=16)
        paths = draw_paths(cfg)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            solve(cfg, Driver.linear_jump(0.5), TerminalFunctional.poisson_count(),
                  paths=paths)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid = (spec.N + 1) * cfg.M * 8
        assert top - base < 3 * grid + spec.N * cfg.M * 8

    @pytest.mark.parametrize("fn, shape", [
        (lambda t, y, z, u: y[:, None], r"\(50, 1\)"),
        (lambda t, y, z, u: y[1:], r"\(49,\)"),
    ], ids=["column", "short"])
    def test_wrong_driver_shape_rejected(self, spec5, fn, shape):
        cfg = SolverConfig(spec=spec5, p=1, K_it=2, M=50, seed=13)
        with pytest.raises(ValueError,
                           match=rf"driver returned shape {shape} at iteration 1, "
                                 r"grid index 1, expected a scalar or \(50,\)"):
            solve(cfg, Driver.custom(fn), TerminalFunctional.poisson_count())

    def test_driver_sees_right_endpoint_times(self, spec5):
        seen = []

        def recording(t, y, z, u):
            seen.append(t)
            return 0.0 * y

        cfg = SolverConfig(spec=spec5, p=1, K_it=1, M=20, seed=14)
        solve(cfg, Driver.custom(recording), TerminalFunctional.poisson_count())
        times = sorted(set(seen))
        grid_times = [(i + 1) * spec5.h for i in range(spec5.N)]
        assert times == pytest.approx(grid_times, rel=1e-15)
        assert 0.0 not in times

    def test_last_driver_time_is_exactly_T(self):
        # 11 * (0.1 / 11) rounds to just above 0.1.
        spec = GridSpec(T=0.1, N=11, kappa=1.0)
        seen = []

        def recording(t, y, z, u):
            seen.append(t)
            return 0.0 * y

        cfg = SolverConfig(spec=spec, p=1, K_it=1, M=20, seed=15)
        solve(cfg, Driver.custom(recording), TerminalFunctional.poisson_count())
        assert max(seen) == spec.T


class TestAgainstHandRunScheme:
    """``solve`` byte for byte against the scheme run by hand from the public
    layers: the driver sums are np.cumsum's (additions in row order), F adds
    the last one to xi, and Y subtracts each from the evaluated rows."""

    DRIVERS = {
        "affine": lambda t, y, z, u: 0.1 + 0.3 * y - 0.2 * z + 0.4 * u,
        # A view of the very grid row the solver overwrites with the sums.
        "own_y": lambda t, y, z, u: y,
        "scalar": lambda t, y, z, u: 0.5 * t,
    }

    @staticmethod
    def hand_run(cfg, driver, xi):
        paths = draw_paths(cfg)
        M, N, h = cfg.M, cfg.spec.N, cfg.spec.h
        if cfg.sample_mode == "independent":
            batches = [paths.rows(0, M), paths.rows(M, 2 * M)]
        else:
            batches = [paths]
        times = cfg.spec.times()
        grids = [[np.zeros((N + 1, M)) for _ in range(3)] for _ in batches]
        for _ in range(cfg.K_it):
            sums = [np.cumsum([np.broadcast_to(
                        driver.eval(float(times[i]), Y[i], Z[i], U[i]), (M,))
                        for i in range(1, N + 1)], axis=0)
                    for Y, Z, U in grids]
            F = terminal_samples(xi, batches[0]) + h * sums[0][-1]
            coeffs = estimate(F, batches[0], cfg.p)
            for k, batch in enumerate(batches):
                grids[k] = list(evaluate_grid(coeffs, batch))
                grids[k][0][1:] -= h * sums[k]
        return grids[-1]

    def check(self, cfg, fn, threads=1):
        calls = []

        def f(t, y, z, u):
            calls.append(t)
            return fn(t, y, z, u)

        xi = TerminalFunctional.exp_levy(-0.1, 0.3, 0.2)
        grid = solve(cfg, Driver.custom(f), xi, threads=threads)
        batches = 2 if cfg.sample_mode == "independent" else 1
        assert len(calls) == cfg.K_it * cfg.spec.N * batches
        for got, want in zip((grid.Y, grid.Z, grid.U),
                             self.hand_run(cfg, Driver.custom(fn), xi)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", [1, 2500])
    @pytest.mark.parametrize("mode", ["reuse", "independent"])
    def test_bytes_match(self, mode, M):
        # M = 1: numpy sums an (N, 1) array along axis 0 pairwise, so F must
        # come from the running sums, never from a separate reduction.
        cfg = SolverConfig(spec=GridSpec(T=1.0, N=10, kappa=2.0), p=2, K_it=2, M=M,
                           seed=31, sample_mode=mode)
        self.check(cfg, self.DRIVERS["affine"])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("drv", sorted(DRIVERS))
    @pytest.mark.parametrize("mode", ["reuse", "independent"])
    def test_bytes_match_per_family_driver_and_threads(self, mode, drv, p, threads):
        # p = 2 runs the pair kernel family, p = 3 the prefix one; M spans
        # three chunks, the last one partial.
        cfg = SolverConfig(spec=GridSpec(T=1.0, N=10, kappa=2.0), p=p, K_it=2,
                           M=2500, seed=32, sample_mode=mode)
        self.check(cfg, self.DRIVERS[drv], threads)


@pytest.mark.worker_rule
class TestSharedSolvesUnderTheShippedRule:
    """The two production paths that run two workers at the smallest sizes
    the shipped rule allows them: the pair evaluation of example2 just above
    N = 20, and the p = 3 estimate and evaluate_grid of example1 at N = 14,
    the smallest N at which both share. Threads 2 starts a thread there, and
    the grids are byte for byte those of threads 1."""

    EX1 = Example1Params(c=0.5, T=1.0)
    EX2 = Example2Params(alpha=0.3, beta=0.3, gamma=0.2,
                         a=-0.1, b=0.1, c=0.2, kappa=3.0, T=2.0)
    CASES = {
        "example2": (SolverConfig(spec=EX2.grid(21), p=2, K_it=2, M=4 * 1024 + 452,
                                  seed=5),
                     Driver.linear(EX2.alpha, EX2.beta, EX2.gamma),
                     TerminalFunctional.exp_levy(EX2.a, EX2.b, EX2.c),
                     {"evaluate_grid"}),
        "example1": (SolverConfig(spec=EX1.grid(14), p=3, K_it=2, M=3000, seed=6),
                     Driver.linear_jump(EX1.c), TerminalFunctional.poisson_count(),
                     {"estimate", "evaluate_grid"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_two_workers_start_a_thread_and_match_one(self, monkeypatch,
                                                      started_threads, case):
        from chaosbsde import chaos_core

        cfg, driver, xi, sharing = self.CASES[case]
        grants = []
        workers = chaos_core._workers

        def spy(threads, M, iset, call):
            got = workers(threads, M, iset, call)
            grants.append((call, got))
            return got

        monkeypatch.setattr(chaos_core, "_workers", spy)
        one = solve(cfg, driver, xi, threads=1)
        assert not started_threads
        two = solve(cfg, driver, xi, threads=2)
        assert started_threads
        assert {call for call, got in grants if got == 2} == sharing
        for a, b in zip((one.Y, one.Z, one.U), (two.Y, two.Z, two.U)):
            assert a.tobytes() == b.tobytes()
