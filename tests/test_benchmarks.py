"""Closed-form reference solutions and the discretized error norm."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosbsde import (
    Driver,
    Example1Params,
    Example2Params,
    GridSpec,
    SolutionGrid,
    SolverConfig,
    TerminalFunctional,
    error_norm,
    example1_exact,
    example1_grid,
    example2_exact,
    example2_grid,
    sample_paths,
    solve,
)

PAPER2 = Example2Params(alpha=0.3, beta=0.3, gamma=0.2, a=-0.1, b=0.1, c=0.2,
                        kappa=3.0, T=2.0)


# Oracles: the exact grids and the error norm materialized as whole
# (N+1) x M matrices, the form the library computed before it streamed
# rows. The streamed forms must match them bit for bit, since each row is
# built and each sum is added in the same order.

def oracle_example1_grid(params, paths):
    spec = paths.spec
    N, M = spec.N, paths.M
    counts = np.cumsum(paths.Q, axis=1, dtype=np.float64).T  # (N, M)
    times = spec.times()
    Y = np.empty((N + 1, M))
    Y[0] = (1.0 + params.c) * params.T
    Y[1:] = counts + ((1.0 + params.c) * (params.T - times[1:]))[:, None]
    Z = np.zeros((N + 1, M))
    U = np.ones((N + 1, M))
    return SolutionGrid(Y=Y, Z=Z, U=U, coeffs_final=None, paths=paths)


def oracle_example2_grid(params, paths):
    spec = paths.spec
    N, M = spec.N, paths.M
    times = spec.times()
    B = math.sqrt(spec.h) * np.cumsum(paths.G, axis=1).T   # (N, M)
    counts = np.cumsum(paths.Q, axis=1, dtype=np.float64).T
    Y = np.empty((N + 1, M))
    y0, _, _ = example2_exact(params, 0.0, 0.0, 0)
    Y[0] = y0
    yr, _, _ = example2_exact(params, times[1:][:, None], B, counts)
    Y[1:] = yr
    Z = params.b * Y
    U = (math.exp(params.c) - 1.0) * Y
    return SolutionGrid(Y=Y, Z=Z, U=U, coeffs_final=None, paths=paths)


def oracle_error_norm(approx, exact, spec):
    dY = approx.Y - exact.Y
    dZ = approx.Z - exact.Z
    dU = approx.U - exact.U
    errY = float(np.mean(np.max(dY * dY, axis=0)))
    errZ = float(spec.h * np.mean(np.sum(dZ[1:] * dZ[1:], axis=0)))
    errU = float(spec.kappa * spec.h * np.mean(np.sum(dU[1:] * dU[1:], axis=0)))
    return errY, errZ, errU


def stacked(exact):
    """An exact grid's row stream stacked into a SolutionGrid."""
    Y, Z, U = (np.stack(rows) for rows in zip(*exact.rows()))
    return SolutionGrid(Y=Y, Z=Z, U=U, coeffs_final=None, paths=exact.paths)


class TestExample1Exact:
    def test_initial_value(self):
        y, z, u = example1_exact(Example1Params(c=0.5, T=1.0), 0.0, 0)
        assert (y, z, u) == (1.5, 0.0, 1.0)

    def test_terminal_identity(self):
        y, z, u = example1_exact(Example1Params(c=0.5, T=1.0), 1.0, 4)
        assert (y, z, u) == (4.0, 0.0, 1.0)

    def test_midpoint(self):
        y, z, u = example1_exact(Example1Params(c=0.0, T=1.0), 0.5, 2)
        assert (y, z, u) == (2.5, 0.0, 1.0)

    def test_array_arguments(self):
        params = Example1Params(c=0.5, T=1.0)
        t = np.array([0.0, 0.5, 1.0])
        n = np.array([0, 1, 2])
        y, z, u = example1_exact(params, t, n)
        np.testing.assert_allclose(y, [1.5, 1.75, 2.0])
        assert np.all(z == 0.0) and np.all(u == 1.0)

    def test_kappa_pinned_to_one(self):
        with pytest.raises(ValueError):
            Example1Params(c=0.5, T=1.0, kappa=2.0)


class TestExample2Exact:
    def test_paper_parameters_initial_value(self):
        y, z, u = example2_exact(PAPER2, 0.0, 0.0, 0)
        assert y == pytest.approx(6.599, abs=5e-4)
        assert z == pytest.approx(0.66, abs=5e-4)
        assert u == pytest.approx(1.4612, abs=5e-4)

    def test_terminal_state_value(self):
        y, z, u = example2_exact(PAPER2, 2.0, 0.0, 0)
        assert y == pytest.approx(math.exp(-0.2), rel=1e-12)
        assert z == pytest.approx(0.08187, abs=5e-6)
        assert u == pytest.approx(0.1813, abs=5e-5)

    def test_no_noise_exposure(self):
        params = Example2Params(alpha=0.4, beta=0.1, gamma=0.7, a=-0.1, b=0.0,
                                c=0.0, kappa=2.0, T=1.5)
        for t in (0.0, 0.6, 1.5):
            y, z, u = example2_exact(params, t, 1.2, 3)
            assert y == pytest.approx(math.exp(-0.15 + 0.4 * (1.5 - t)), rel=1e-12)
            assert z == 0.0 and u == 0.0

    @settings(max_examples=40, deadline=None)
    @given(bt=st.floats(-3, 3, allow_nan=False), nt=st.integers(0, 12))
    def test_terminal_condition_identity(self, bt, nt):
        y, _, _ = example2_exact(PAPER2, PAPER2.T, bt, nt)
        xi = math.exp(-0.1 * 2.0 + 0.1 * bt + 0.2 * nt)
        assert y == pytest.approx(xi, rel=1e-12)

    def test_z_u_proportional_to_y(self):
        y, z, u = example2_exact(PAPER2, 0.7, -0.4, 2)
        assert z == pytest.approx(0.1 * y, rel=1e-12)
        assert u == pytest.approx((math.exp(0.2) - 1.0) * y, rel=1e-12)


EX1 = Example1Params(c=0.5, T=1.0)
OTHER_PATHS = sample_paths(GridSpec(T=2.0, N=4, kappa=1.0), 5, seed=0)

# Each refusal of the params and the closed forms -> (call, message).
REFUSALS = {
    "example1_c": (lambda: Example1Params(c=math.nan, T=1.0), "c must be finite, got nan"),
    "example1_T": (lambda: Example1Params(c=0.5, T=-1.0),
                   r"T must be finite and > 0, got -1\.0"),
    "example1_c_overflow": (lambda: Example1Params(c=10**400, T=1.0),
                            "c must be finite, got a number beyond the float range"),
    "example1_T_overflow": (lambda: Example1Params(c=0.5, T=10**400),
                            "T must be finite and > 0, got a number beyond the float range"),
    "example2_param": (lambda: dataclasses.replace(PAPER2, gamma=math.inf),
                       "gamma must be finite, got inf"),
    "example2_param_overflow": (lambda: dataclasses.replace(PAPER2, alpha=-10**400),
                                "alpha must be finite, got a number beyond the float range"),
    "example2_T": (lambda: dataclasses.replace(PAPER2, T=0.0),
                   r"T must be finite and > 0, got 0\.0"),
    "example2_kappa": (lambda: dataclasses.replace(PAPER2, kappa=-3.0),
                       r"kappa must be finite and > 0, got -3\.0"),
    "example1_time": (lambda: example1_exact(EX1, 1.5, 0), r"t must lie in \[0, T\]"),
    "example1_count": (lambda: example1_exact(EX1, 0.5, -1), "N_t must be nonnegative"),
    "example2_time": (lambda: example2_exact(PAPER2, -0.1, 0.0, 0),
                      r"t must lie in \[0, T\]"),
    # A non-finite t, N_t or B_t is refused by the one rule, before the
    # range and sign checks, naming its first such entry.
    "example1_time_nan": (lambda: example1_exact(EX1, math.nan, 0),
                          "^t has a non-finite value nan$"),
    "example1_count_nan": (lambda: example1_exact(EX1, 0.5, [1.0, math.nan]),
                           "^N_t has a non-finite value nan at entry 1$"),
    "example2_time_nan": (lambda: example2_exact(PAPER2, math.nan, 0.0, 0),
                          "^t has a non-finite value nan$"),
    "example2_brownian_nan": (lambda: example2_exact(PAPER2, 0.5, math.nan, 0),
                              "^B_t has a non-finite value nan$"),
    "example2_brownian_inf": (lambda: example2_exact(PAPER2, 0.5, [0.0, -math.inf], 0),
                              "^B_t has a non-finite value -inf at entry 1$"),
    "example2_count_nan": (lambda: example2_exact(PAPER2, 0.5, 0.0, math.nan),
                           "^N_t has a non-finite value nan$"),
    "example2_count": (lambda: example2_exact(PAPER2, 0.5, 0.0, -1), "N_t must be nonnegative"),
    "example1_count_inf": (lambda: example1_exact(EX1, 0.5, math.inf),
                           "^N_t has a non-finite value inf$"),
    "example2_count_inf": (lambda: example2_exact(PAPER2, 0.5, 0.0, [0.0, math.inf]),
                           "^N_t has a non-finite value inf at entry 1$"),
    # -inf is refused as non-finite, not as negative; an inf after finite
    # entries, or at an int t, is still refused.
    "example1_count_neg_inf": (lambda: example1_exact(EX1, 0.5, -math.inf),
                               "^N_t has a non-finite value -inf$"),
    "example1_count_inf_entry": (lambda: example1_exact(EX1, [0.0, 0.5, 1], [1, 2, math.inf]),
                                 "^N_t has a non-finite value inf at entry 2$"),
    "example2_count_inf_scalar": (lambda: example2_exact(PAPER2, 0, 0.0, math.inf),
                                  "^N_t has a non-finite value inf$"),
    # exp overflows at B_t = 1e4: refused, not returned as inf with a warning.
    "example2_overflow": (lambda: example2_exact(PAPER2, 1.0, 1e4, 0),
                          "^Y_t has a non-finite value inf$"),
    "example2_overflow_entry": (lambda: example2_exact(PAPER2, 1.0, [0.0, 1e4, 2e4], 0),
                                "^Y_t has a non-finite value inf at entry 1$"),
    "example1_grid": (lambda: example1_grid(EX1, OTHER_PATHS),
                      r"^path batch grid GridSpec\(T=2\.0, N=4, kappa=1\.0\) does not "
                      r"match the params grid GridSpec\(T=1\.0, N=4, kappa=1\.0\)$"),
    "example2_grid": (lambda: example2_grid(PAPER2, OTHER_PATHS),
                      r"^path batch grid GridSpec\(T=2\.0, N=4, kappa=1\.0\) does not "
                      r"match the params grid GridSpec\(T=2\.0, N=4, kappa=3\.0\)$"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_the_problem(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


class TestExactGrids:
    def test_example1_grid_entries(self):
        params = Example1Params(c=0.5, T=1.0)
        spec = params.grid(4)
        paths = sample_paths(spec, 50, seed=30)
        grid = stacked(example1_grid(params, paths))
        assert grid.Y.shape == (5, 50)
        counts = np.vstack([np.zeros(50, dtype=np.int64),
                            np.cumsum(paths.Q.T, axis=0)])
        for r in range(5):
            t = r * spec.h
            want = counts[r] + 1.5 * (1.0 - t)
            np.testing.assert_allclose(grid.Y[r], want, rtol=1e-12)
        assert np.all(grid.Z == 0.0)
        assert np.all(grid.U == 1.0)

    def test_example2_grid_entries(self):
        spec = PAPER2.grid(5)
        paths = sample_paths(spec, 40, seed=31)
        grid = stacked(example2_grid(PAPER2, paths))
        B = np.vstack([np.zeros(40),
                       np.cumsum(math.sqrt(spec.h) * paths.G.T, axis=0)])
        counts = np.vstack([np.zeros(40, dtype=np.int64),
                            np.cumsum(paths.Q.T, axis=0)])
        for r in (0, 2, 5):
            t = r * spec.h
            for m in (0, 17):
                y, z, u = example2_exact(PAPER2, t, B[r, m], int(counts[r, m]))
                assert grid.Y[r, m] == pytest.approx(y, rel=1e-12)
                assert grid.Z[r, m] == pytest.approx(z, rel=1e-12)
                assert grid.U[r, m] == pytest.approx(u, rel=1e-12)

    def test_example1_martingale_drift(self):
        # E(Y_t - Y_0) = (kappa - (1 + c)) t; kappa = 1, c = 0.5: slope -0.5
        params = Example1Params(c=0.5, T=1.0)
        spec = params.grid(4)
        paths = sample_paths(spec, 40_000, seed=32)
        grid = stacked(example1_grid(params, paths))
        drift = grid.Y.mean(axis=1) - grid.Y[0].mean()
        tol = 4.0 * math.sqrt(1.0 / paths.M) * np.sqrt(np.arange(5) * spec.h + 1e-12)
        for r in range(1, 5):
            t = r * spec.h
            assert abs(drift[r] - (-0.5 * t)) <= tol[r] + 1e-12


class TestErrorNorm:
    def make_solution(self, spec, seed=33, M=25):
        paths = sample_paths(spec, M, seed=seed)
        if spec.kappa == 1.0:
            return stacked(example1_grid(Example1Params(c=0.5, T=spec.T), paths))
        params = Example2Params(alpha=0.3, beta=0.3, gamma=0.2, a=-0.1, b=0.1,
                                c=0.2, kappa=spec.kappa, T=spec.T)
        return stacked(example2_grid(params, paths))

    def test_zero_on_equal_grids(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        grid = self.make_solution(spec)
        assert error_norm(grid, grid, spec) == (0.0, 0.0, 0.0)

    def test_unit_y_offset(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        grid = self.make_solution(spec)
        shifted = dataclasses.replace(grid, Y=grid.Y + 1.0)
        errY, errZ, errU = error_norm(shifted, grid, spec)
        assert errY == pytest.approx(1.0, rel=1e-12)
        assert errZ == 0.0 and errU == 0.0

    def test_unit_z_offset_paper_grid(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        grid = self.make_solution(spec)
        shifted = dataclasses.replace(grid, Z=grid.Z + 1.0)
        _, errZ, _ = error_norm(shifted, grid, spec)
        assert errZ == pytest.approx(2.0, rel=1e-12)

    def test_unit_u_offset_scales_with_intensity(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        grid = self.make_solution(spec)
        shifted = dataclasses.replace(grid, U=grid.U + 1.0)
        _, _, errU = error_norm(shifted, grid, spec)
        assert errU == pytest.approx(spec.kappa * spec.T, rel=1e-12)

    def test_quadratic_homogeneity(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        grid = self.make_solution(spec)
        rng = np.random.default_rng(0)
        dY = rng.standard_normal(grid.Y.shape)
        dZ = rng.standard_normal(grid.Z.shape)
        dU = rng.standard_normal(grid.U.shape)
        one = error_norm(dataclasses.replace(grid, Y=grid.Y + dY, Z=grid.Z + dZ,
                                             U=grid.U + dU), grid, spec)
        three = error_norm(dataclasses.replace(grid, Y=grid.Y + 3 * dY,
                                               Z=grid.Z + 3 * dZ,
                                               U=grid.U + 3 * dU), grid, spec)
        for a, b in zip(three, one):
            assert a == pytest.approx(9.0 * b, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        grid = self.make_solution(spec)
        other = self.make_solution(spec, M=26)
        with pytest.raises(ValueError):
            error_norm(grid, other, spec)

    def test_solver_error_decreases_with_m(self):
        # method error against the closed form shrinks as M grows
        params = Example1Params(c=0.5, T=1.0)
        spec = params.grid(5)
        errs = []
        for M in (500, 50_000):
            cfg = SolverConfig(spec=spec, p=2, K_it=4, M=M, seed=34)
            grid = solve(cfg, Driver.linear_jump(params.c),
                         TerminalFunctional.poisson_count())
            exact = example1_grid(params, grid.paths)
            errs.append(error_norm(grid, exact, spec))
        assert errs[1][0] < errs[0][0]
        assert errs[1][1] < errs[0][1]
        assert errs[1][2] < errs[0][2]

    def test_spec_must_match_the_grids_paths(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        grid = self.make_solution(spec)
        for wrong in (GridSpec(T=1.0, N=50, kappa=3.0),
                      GridSpec(T=2.0, N=50, kappa=1.5)):
            with pytest.raises(ValueError, match="does not match"):
                error_norm(grid, grid, wrong)

    def test_spec_check_skipped_without_paths(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        grid = dataclasses.replace(self.make_solution(spec), paths=None)
        other = GridSpec(T=3.0, N=4, kappa=2.0)
        assert error_norm(grid, grid, other) == (0.0, 0.0, 0.0)

    def test_row_count_mismatch_rejected(self):
        spec = GridSpec(T=1.0, N=4, kappa=1.0)
        grid = dataclasses.replace(self.make_solution(spec), paths=None)
        short = dataclasses.replace(grid, Z=grid.Z[:-1])
        for a, b in ((short, grid), (grid, short)):
            with pytest.raises(ValueError, match="N\\+1 = 5 rows"):
                error_norm(a, b, spec)
        with pytest.raises(ValueError, match="N\\+1 = 4 rows"):
            error_norm(grid, grid, GridSpec(T=1.0, N=3, kappa=1.0))


def _example(name, T):
    if name == "example1":
        return Example1Params(c=0.5, T=T), example1_grid, oracle_example1_grid
    return (dataclasses.replace(PAPER2, T=T), example2_grid, oracle_example2_grid)


class TestStreamedAgainstOracle:
    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("M", [1, 25, 20_000])
    @pytest.mark.parametrize("N", [1, 4, 50])
    def test_rows_and_errors_bit_identical(self, example, N, M):
        params, grid_fn, oracle_fn = _example(example, T=2.0 if N == 50 else 1.0)
        spec = params.grid(N)
        paths = sample_paths(spec, M, seed=40 + N)
        want = oracle_fn(params, paths)
        got = stacked(grid_fn(params, paths))
        for a, b in ((got.Y, want.Y), (got.Z, want.Z), (got.U, want.U)):
            assert np.array_equal(a, b)
        rng = np.random.default_rng(N * M)
        approx = dataclasses.replace(
            want, Y=want.Y + rng.standard_normal(want.Y.shape),
            Z=want.Z + 0.5 * rng.standard_normal(want.Z.shape),
            U=want.U - 2.0 * rng.standard_normal(want.U.shape))
        got_err = error_norm(approx, grid_fn(params, paths), spec)
        want_err = oracle_error_norm(approx, want, spec)
        if M > 1 or N < 8:
            assert got_err == want_err
        else:
            # With one path the oracle's (N, 1) time sums reduce along a
            # contiguous axis, which numpy sums pairwise once N >= 8; the
            # stream adds rows in order. The max is order-free.
            assert got_err[0] == want_err[0]
            np.testing.assert_allclose(got_err[1:], want_err[1:],
                                       rtol=N * np.finfo(np.float64).eps, atol=0)

    def test_last_grid_time_never_passes_the_horizon(self):
        # 11 * (0.1 / 11) rounds to just above 0.1, but the last grid time
        # is T and the last row the terminal value exp(a*T + b*B_T + c*N_T).
        params = dataclasses.replace(PAPER2, T=0.1)
        spec = params.grid(11)
        paths = sample_paths(spec, 30, seed=44)
        assert spec.N * spec.h > spec.T
        assert spec.times()[-1] == spec.T
        y_T, _, _ = list(example2_grid(params, paths).rows())[-1]
        B_T = math.sqrt(spec.h) * paths.G.sum(axis=1)
        xi = np.exp(params.a * params.T + params.b * B_T + params.c * paths.Q.sum(axis=1))
        np.testing.assert_allclose(y_T, xi, rtol=1e-12)

    def test_report_working_set_is_a_few_rows(self):
        # The parent's materializing report peaked near 55 MiB at this size.
        params = PAPER2
        spec = params.grid(50)
        paths = sample_paths(spec, 20_000, seed=45)
        grid = oracle_example2_grid(params, paths)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            error_norm(grid, example2_grid(params, grid.paths), spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * 2**20
