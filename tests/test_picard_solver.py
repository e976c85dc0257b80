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
    SolverConfig,
    TerminalFunctional,
    draw_paths,
    estimate,
    evaluate_grid,
    sample_paths,
    solve,
    terminal_samples,
)


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

    def test_non_finite_terminal_reports_sample(self, spec5):
        paths = sample_paths(spec5, 20, seed=24)
        xi = TerminalFunctional.custom(
            lambda pb: np.where(pb.Q.sum(axis=1) == 0, math.inf, 1.0))
        first = int(np.argmax(paths.Q.sum(axis=1) == 0))
        assert paths.Q[first].sum() == 0
        with pytest.raises(ValueError, match=f"at sample {first}$"):
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
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=0, K_it=1, M=10, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=0, M=10, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=1, M=0, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=1, M=10, seed=-1)
        with pytest.raises(ValueError):
            SolverConfig(spec=spec5, p=1, K_it=1, M=10, seed=0, sample_mode="half")

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

    def test_history_retention(self, spec5):
        cfg = SolverConfig(spec=spec5, p=2, K_it=4, M=2_000, seed=12,
                           keep_history=True)
        grid = solve(cfg, Driver.linear_jump(0.5), TerminalFunctional.poisson_count())
        assert grid.history is not None
        assert len(grid.history) == 4
        last = grid.history[-1]
        assert last.d0 == grid.coeffs_final.d0
        assert np.array_equal(last.values, grid.coeffs_final.values)
        no_hist = solve(SolverConfig(spec=spec5, p=2, K_it=4, M=2_000, seed=12),
                        Driver.linear_jump(0.5), TerminalFunctional.poisson_count())
        assert no_hist.history is None

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
                           match="iteration 1, grid index 3, sample 7"):
            solve(cfg, Driver.custom(bad), TerminalFunctional.poisson_count())

    def test_iterations_reuse_the_driver_row_buffer(self):
        # Each iteration refills one (N, M) driver-row buffer, so more
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
            sums = [np.cumsum([driver.eval(float(times[i]), Y[i], Z[i], U[i])
                               for i in range(1, N + 1)], axis=0)
                    for Y, Z, U in grids]
            F = terminal_samples(xi, batches[0]) + h * sums[0][-1]
            coeffs = estimate(F, batches[0], cfg.p)
            for k, batch in enumerate(batches):
                grids[k] = list(evaluate_grid(coeffs, batch))
                grids[k][0][1:] -= h * sums[k]
        return grids[-1]

    @pytest.mark.parametrize("M", [1, 2500])
    @pytest.mark.parametrize("mode", ["reuse", "independent"])
    def test_bytes_match(self, mode, M):
        # M = 1: numpy sums an (N, 1) array along axis 0 pairwise, so F must
        # come from the running sums, never from a separate reduction.
        cfg = SolverConfig(spec=GridSpec(T=1.0, N=10, kappa=2.0), p=2, K_it=2, M=M,
                           seed=31, sample_mode=mode)
        calls = []

        def f(t, y, z, u):
            calls.append(t)
            return 0.1 + 0.3 * y - 0.2 * z + 0.4 * u

        xi = TerminalFunctional.exp_levy(-0.1, 0.3, 0.2)
        grid = solve(cfg, Driver.custom(f), xi)
        batches = 2 if mode == "independent" else 1
        assert len(calls) == cfg.K_it * cfg.spec.N * batches
        for got, want in zip((grid.Y, grid.Z, grid.U),
                             self.hand_run(cfg, Driver.custom(f), xi)):
            assert got.tobytes() == want.tobytes()
