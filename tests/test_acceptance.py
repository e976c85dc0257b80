"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` to get the per-criterion
record. Numbers in test names key the criteria; each docstring restates the
check and its tolerance. Seeds are pinned where a criterion fixes a single
run; spread checks draw their own seed ranges.
"""

import math
import time

import numpy as np
import numpy.polynomial.hermite_e as herme
import pytest

from chaosbsde import (
    Driver,
    GridSpec,
    SolverConfig,
    TerminalFunctional,
    estimate,
    sample_paths,
    solve,
    terminal_samples,
    variance_diagnostic,
)
from chaosbsde.benchmarks import Example1Params, Example2Params
from chaosbsde.cli import main, parse_config, run
from chaosbsde.orthopoly import charlier_batch, hermite_batch

EX1 = Example1Params(c=0.5, T=1.0)
EX2 = Example2Params(alpha=0.3, beta=0.3, gamma=0.2,
                     a=-0.1, b=0.1, c=0.2, kappa=3.0, T=2.0)


def brownian_terminal():
    return TerminalFunctional.custom(
        lambda paths: math.sqrt(paths.spec.h) * paths.G.sum(axis=1))


def test_01_counting_benchmark_reproduction():
    """Counting terminal, c=0.5: Y0 within 0.05 of 1.5, Z0 within 0.05 of 0,
    U0 within 0.05 of 1 at p=2, N=20, q=5, M=2e5, reuse sampling."""
    config = SolverConfig(spec=EX1.grid(20), p=2, K_it=5, M=200_000, seed=0)
    start = time.perf_counter()
    grid = solve(config, Driver.linear_jump(EX1.c),
                 TerminalFunctional.poisson_count(), threads=4)
    wall = time.perf_counter() - start
    y0, z0, u0 = grid.Y[0, 0], grid.Z[0, 0], grid.U[0, 0]
    assert abs(y0 - 1.5) <= 0.05, f"Y0 = {y0}"
    assert abs(z0) <= 0.05, f"Z0 = {z0}"
    assert abs(u0 - 1.0) <= 0.05, f"U0 = {u0}"
    assert wall < 180.0, f"solve took {wall:.1f}s"


def test_02_exponential_levy_reproduction():
    """Exponential-Levy terminal with linear driver: Y0 in [6.40, 6.72],
    Z0 in [0.40, 0.75], U0 in [1.15, 1.45] at p=2, N=50, q=10, M=4e5."""
    config = SolverConfig(spec=EX2.grid(50), p=2, K_it=10, M=400_000, seed=3)
    grid = solve(config, Driver.linear(EX2.alpha, EX2.beta, EX2.gamma),
                 TerminalFunctional.exp_levy(EX2.a, EX2.b, EX2.c), threads=4)
    y0, z0, u0 = grid.Y[0, 0], grid.Z[0, 0], grid.U[0, 0]
    assert 6.40 <= y0 <= 6.72, f"Y0 = {y0}"
    assert 0.40 <= z0 <= 0.75, f"Z0 = {z0}"
    assert 1.15 <= u0 <= 1.45, f"U0 = {u0}"


def test_03_order_one_terminal_recovered_exactly():
    """f = 0 with terminal B_T at p=1, N=10, M=1e5: |Y0| <= 0.01,
    grid-mean |Z - 1| <= 0.02, grid-mean |U| <= 0.02."""
    config = SolverConfig(spec=GridSpec(T=1.0, N=10, kappa=1.0),
                          p=1, K_it=1, M=100_000, seed=0)
    grid = solve(config, Driver.zero(), brownian_terminal(), threads=4)
    assert abs(grid.Y[0, 0]) <= 0.01, f"Y0 = {grid.Y[0, 0]}"
    z_err = float(np.mean(np.abs(grid.Z - 1.0)))
    u_err = float(np.mean(np.abs(grid.U)))
    assert z_err <= 0.02, f"mean |Z - 1| = {z_err}"
    assert u_err <= 0.02, f"mean |U| = {u_err}"


def test_04_monte_carlo_rate_in_sample_count():
    """Y0 spread over 20 seeds shrinks like 1/sqrt(M): the std ratio between
    M=1e3 and M=1e4 lies in [2.2, 4.5]."""
    driver = Driver.linear_jump(EX1.c)
    xi = TerminalFunctional.poisson_count()
    spread = {}
    for M in (1_000, 10_000):
        y0s = []
        for seed in range(20):
            config = SolverConfig(spec=EX1.grid(20), p=2, K_it=5, M=M, seed=seed)
            y0s.append(solve(config, driver, xi, threads=4).Y[0, 0])
        spread[M] = float(np.std(y0s, ddof=1))
    ratio = spread[1_000] / spread[10_000]
    assert 2.2 <= ratio <= 4.5, f"std ratio = {ratio}"


def test_05_iteration_distance_to_fixed_point_non_increasing():
    """|Y0 after iteration q - Y0 after iteration 10| is non-increasing over
    q = 1..5 on the exponential-Levy benchmark at M=1e5."""
    config = SolverConfig(spec=EX2.grid(50), p=2, K_it=10, M=100_000, seed=0,
                          keep_history=True)
    grid = solve(config, Driver.linear(EX2.alpha, EX2.beta, EX2.gamma),
                 TerminalFunctional.exp_levy(EX2.a, EX2.b, EX2.c), threads=4)
    y0 = [co.d0 for co in grid.history]
    gaps = [abs(y0[q - 1] - y0[9]) for q in range(1, 6)]
    assert all(gaps[i] >= gaps[i + 1] for i in range(4)), f"gaps = {gaps}"


def test_06_coefficient_mse_matches_variance_diagnostic():
    """Across 50 replications at M=1e4, the weighted coefficient MSE against
    an M=1e6 reference stays within a factor [0.5, 2] of the predicted
    variance_diagnostic(F)/M."""
    spec = EX1.grid(10)
    xi = TerminalFunctional.poisson_count()
    ref_paths = sample_paths(spec, 1_000_000, seed=1000)
    F_ref = terminal_samples(xi, ref_paths)
    ref = estimate(F_ref, ref_paths, 2, threads=4)
    predicted = variance_diagnostic(F_ref, ref_paths, 2, threads=4) / 10_000
    w = ref.weights()
    mse = []
    for rep in range(50):
        paths = sample_paths(spec, 10_000, seed=2000 + rep)
        co = estimate(terminal_samples(xi, paths), paths, 2, threads=4)
        mse.append((co.d0 - ref.d0) ** 2
                   + float(np.sum(w * (co.values - ref.values) ** 2)))
    ratio = float(np.mean(mse)) / predicted
    assert 0.5 <= ratio <= 2.0, f"MSE / prediction = {ratio}"


def test_07_weighted_coefficient_energy_bounded_by_second_moment():
    """d0^2 + sum of w(n) d_n^2 is at most (1 + 10/sqrt(M)) times the sample
    second moment of F, at M=1e5 on the counting terminal."""
    M = 100_000
    paths = sample_paths(EX1.grid(20), M, seed=0)
    F = terminal_samples(TerminalFunctional.poisson_count(), paths)
    co = estimate(F, paths, 2, threads=4)
    lhs = co.d0 ** 2 + float(np.sum(co.weights() * co.values ** 2))
    rhs = (1.0 + 10.0 / math.sqrt(M)) * float(np.mean(F ** 2))
    assert lhs <= rhs, f"{lhs} > {rhs}"


def test_08_polynomial_orthonormality():
    """Gauss quadrature: sqrt(m! n!) E[K_m K_n] = delta_mn to 1e-8 for
    m, n <= 6; truncated Poisson summation: sum of C_m C_n against the
    Poisson(t) weights equals delta_mn m! t^m to 1e-8 for t in
    {0.05, 0.12, 1.0}."""
    nodes, weights = herme.hermegauss(60)
    weights = weights / math.sqrt(2.0 * math.pi)
    K = hermite_batch(6, nodes)
    for m in range(7):
        for n in range(7):
            inner = float(np.sum(weights * K[m] * K[n]))
            scaled = math.sqrt(math.factorial(m) * math.factorial(n)) * inner
            target = 1.0 if m == n else 0.0
            assert abs(scaled - target) <= 1e-8, (m, n, scaled)
    x = np.arange(81, dtype=float)
    for t in (0.05, 0.12, 1.0):
        log_pmf = -t + x * math.log(t) - np.array(
            [math.lgamma(k + 1.0) for k in x])
        pmf = np.exp(log_pmf)
        C = charlier_batch(6, x, t)
        for m in range(7):
            for n in range(7):
                s = float(np.sum(pmf * C[m] * C[n]))
                target = math.factorial(m) * t ** m if m == n else 0.0
                assert abs(s - target) <= 1e-8, (t, m, n, s)


def test_09_wall_time_scales_linearly_in_sample_count(tmp_path):
    """Runner wall time grows about linearly in M: the M=1e4 / M=1e3 wall
    ratio lies in [5, 15] (median of three runs, after a warm-up solve)."""
    warm = SolverConfig(spec=EX1.grid(20), p=2, K_it=5, M=10_000, seed=0)
    solve(warm, Driver.linear_jump(EX1.c), TerminalFunctional.poisson_count())
    out = tmp_path / "timing.csv"
    cfg_path = tmp_path / "timing.cfg"
    cfg_path.write_text(
        f"example = example1\nN = 20\nq = 5\nout = {out}\n"
        f"sweep_axis = M\nsweep_values = 1000, 10000\n", encoding="utf-8")
    cfg = parse_config(str(cfg_path))
    ratios = []
    for _ in range(3):
        assert run(cfg) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        walls = [float(line.split(",")[-1]) for line in rows]
        ratios.append(walls[1] / walls[0])
    ratio = sorted(ratios)[1]
    assert 5.0 <= ratio <= 15.0, f"wall ratios = {ratios}"


def test_10_thread_count_leaves_results_byte_identical(tmp_path):
    """The same config run with --threads 1 and --threads 8 writes CSVs whose
    result columns are byte-identical (wall_ms, a measured duration, is
    excluded from the comparison)."""
    texts = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}.csv"
        cfg_path = tmp_path / f"t{threads}.cfg"
        cfg_path.write_text(
            f"example = example1\nN = 10\nM = 5000\nq = 3\nout = {out}\n",
            encoding="utf-8")
        assert main(["--config", str(cfg_path), "--threads", str(threads)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",")[-1] == "wall_ms"
        texts[threads] = "\n".join(",".join(line.split(",")[:-1])
                                   for line in lines)
    assert texts[1] == texts[8]
