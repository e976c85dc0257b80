"""The package's public surface: exactly the names below, each resolvable,
and none of the removed per-path, scalar-table or per-index names; and the
input rules every public integer, real and real-array argument follows."""

import re
import warnings

import numpy as np
import pytest

import chaosbsde
from chaosbsde import (ChaosCoefficients, Driver, Example1Params, Example2Params,
                       GridSpec, PathBatch, SolverConfig, TerminalFunctional,
                       chaos_core, chaos_eval, charlier_batch,
                       coefficients_from_entries, conditional_at, estimate,
                       evaluate_grid, example1_exact, example2_exact,
                       hermite_batch, orthopoly, sample_paths, solve,
                       terminal_samples, variance_diagnostic)

PUBLIC = {
    "GridSpec", "PathBatch", "sample_paths",
    "hermite_batch", "charlier_batch", "MAX_DEGREE",
    "ChaosCoefficients", "SizingError",
    "estimate", "variance_diagnostic", "coefficients_from_entries",
    "evaluate_grid", "conditional_at",
    "Driver", "TerminalFunctional", "SolverConfig", "SolutionGrid",
    "terminal_samples", "draw_paths", "solve",
    "Example1Params", "Example2Params", "example1_exact", "example2_exact",
    "ExactGrid", "example1_grid", "example2_grid", "error_norm",
    "__version__",
}

REMOVED = ["PathView", "conditional", "malliavin_b", "malliavin_p",
           "PolyTable", "hermite_upto", "charlier_upto",
           "MultiIndex", "enumerate_indices", "weight"]


def test_all_is_the_public_set():
    assert len(chaosbsde.__all__) == len(set(chaosbsde.__all__))
    assert set(chaosbsde.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in chaosbsde.__all__:
        assert getattr(chaosbsde, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(chaosbsde, name)
    assert not hasattr(chaos_core, name)
    assert not hasattr(chaos_eval, name)
    assert not hasattr(orthopoly, name)


def test_coefficients_have_only_the_array_form():
    coeffs = coefficients_from_entries(GridSpec(T=1.0, N=3, kappa=1.0), 2)
    assert not hasattr(chaosbsde.ChaosCoefficients, "entries")
    assert not hasattr(coeffs, "entries")
    # The degree arrays are the basis every later solve at (N, p) shares.
    for arr in (coeffs.degB, coeffs.degP):
        with pytest.raises(ValueError):
            arr[0, 0] = 5
    assert coeffs.degB[0, 0] == 1


SPEC = GridSpec(T=1.0, N=3, kappa=1.0)
PATHS = sample_paths(SPEC, 40, seed=1)
COEFFS = coefficients_from_entries(SPEC, 2, entries={((2, 0, 0), (0, 0, 0)): 5.0})
F = PATHS.G[:, 0] * PATHS.Q[:, 1]


def _config(**counts):
    return SolverConfig(**{"spec": SPEC, "p": 2, "K_it": 1, "M": 4, "seed": 0, **counts})


# Public integer argument -> (call with a count n, the name refusals give
# it, the least n it takes).
COUNTS = {
    "GridSpec.N": (lambda n: GridSpec(T=1.0, N=n, kappa=1.0).N, "N", 1),
    "sample_paths.M": (lambda n: sample_paths(SPEC, n, 0).M, "M", 1),
    "sample_paths.seed": (lambda n: sample_paths(SPEC, 4, n).seed, "seed", 0),
    "PathBatch.M": (lambda n: PathBatch(SPEC, n, PATHS.G[:2], PATHS.Q[:2], 0).M,
                    "M", 1),
    "PathBatch.rows.start": (lambda n: PATHS.rows(n, 4).M, "start", 0),
    "PathBatch.rows.stop": (lambda n: PATHS.rows(0, n).M, "stop", 1),
    "SolverConfig.p": (lambda n: _config(p=n).p, "p", 0),
    "SolverConfig.K_it": (lambda n: _config(K_it=n).K_it, "K_it", 1),
    "SolverConfig.M": (lambda n: _config(M=n).M, "M", 1),
    "SolverConfig.seed": (lambda n: _config(seed=n).seed, "seed", 0),
    "estimate.p": (lambda n: estimate(F, PATHS, n).p, "p", 0),
    "variance_diagnostic.p": (lambda n: variance_diagnostic(F, PATHS, n), "p", 0),
    "coefficients_from_entries.p": (lambda n: coefficients_from_entries(SPEC, n).p,
                                    "p", 0),
    "ChaosCoefficients.p": (lambda n: ChaosCoefficients(
        d0=0.0, values=np.zeros(27), p=n, spec=SPEC).p, "p", 0),
    "ChaosCoefficients.entry": (lambda n: COEFFS.entry(((n, 0, 0), (0, 0, 0))),
                                "degree", 0),
    "hermite_batch.m_max": (lambda n: hermite_batch(n, 0.5), "m_max", 0),
    "charlier_batch.m_max": (lambda n: charlier_batch(n, 3, 1.0), "m_max", 0),
    "conditional_at.r": (lambda n: conditional_at(
        COEFFS, PATHS, n, SPEC.times()[2], PATHS.G[:, 1], PATHS.Q[:, 1])[0], "r", 1),
    "estimate.threads": (lambda n: estimate(F, PATHS, 2, threads=n).values,
                         "threads", 1),
    "variance_diagnostic.threads": (lambda n: variance_diagnostic(F, PATHS, 2, threads=n),
                                    "threads", 1),
    "evaluate_grid.threads": (lambda n: evaluate_grid(COEFFS, PATHS, threads=n)[0],
                              "threads", 1),
    "solve.threads": (lambda n: solve(_config(), Driver.linear_jump(0.5),
                                      TerminalFunctional.poisson_count(),
                                      threads=n).Y, "threads", 1),
}


@pytest.mark.parametrize("name", COUNTS)
def test_every_integer_argument_follows_the_count_rule(name):
    # Any int is taken, numpy integers as Python ints; a non-int, a bool
    # included, is a TypeError naming the argument, and an int below the
    # least it takes a ValueError (the row range names both bounds).
    call, arg, least = COUNTS[name]
    want = call(2)
    for n in (np.int64(2), np.int32(2), np.uint8(2)):
        got = call(n)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want and type(got) is type(want)
    for bad in (True, np.True_, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError, match=f"^{arg} must be an int, got "):
            call(bad)
    below = ("invalid row range" if name.startswith("PathBatch.rows")
             else f"^{arg} must be >= {least}, got {least - 1}$")
    with pytest.raises(ValueError, match=below):
        call(least - 1)


def _example2(**reals):
    return Example2Params(**{"alpha": 0.3, "beta": 0.3, "gamma": 0.2, "a": -0.1,
                             "b": 0.1, "c": 0.2, "kappa": 3.0, "T": 2.0, **reals})


# Entry point -> (call with a real x, returning what it stored; whether x
# must be > 0 as well as finite).
REALS = {
    "GridSpec.T": (lambda x: GridSpec(T=x, N=4, kappa=1.0).T, True),
    "GridSpec.kappa": (lambda x: GridSpec(T=1.0, N=4, kappa=x).kappa, True),
    "Example1Params.T": (lambda x: Example1Params(c=0.5, T=x).T, True),
    "Example1Params.grid": (lambda x: Example1Params(c=0.5, T=x).grid(20).T, True),
    "Example1Params.c": (lambda x: Example1Params(c=x, T=1.0).c, False),
    "Example2Params.T": (lambda x: _example2(T=x).T, True),
    "Example2Params.kappa": (lambda x: _example2(kappa=x).kappa, True),
    "Example2Params.grid": (lambda x: _example2(kappa=x).grid(20).kappa, True),
    **{f"Example2Params.{name}": ((lambda name: lambda x: getattr(
        _example2(**{name: x}), name))(name), False)
       for name in ("alpha", "beta", "gamma", "a", "b", "c")},
}


@pytest.mark.parametrize("name", REALS)
def test_numpy_reals_are_accepted_as_python_floats(name):
    call, positive = REALS[name]
    for x in (1.0, 1, np.float32(1.0), np.float64(1.0), np.int64(1)):
        got = call(x)
        assert got == 1.0 and type(got) is float
    for bad in (True, np.True_, "1.0"):
        with pytest.raises(TypeError, match="must be a real number"):
            call(bad)
    rule = "must be finite and > 0" if positive else "must be finite"
    # An int beyond the float range is refused, not an OverflowError.
    for bad in (np.float32(np.inf), np.nan, 10**400, -10**400):
        with pytest.raises(ValueError, match=rule):
            call(bad)
    if positive:
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=rule):
                call(bad)
    else:
        for x in (0.0, -1.5, np.float32(-0.5)):
            got = call(x)
            assert got == float(x) and type(got) is float


def test_numpy_real_grid_matches_the_float_grid():
    spec = GridSpec(T=np.int64(2), N=4, kappa=np.float32(1.5))
    assert spec == GridSpec(T=2.0, N=4, kappa=1.5)
    assert type(spec.T) is float and type(spec.kappa) is float
    assert Example1Params(c=0.5, T=np.float32(1.0)).grid(20) == GridSpec(
        T=1.0, N=20, kappa=1.0)


# Real arrays: whole numbers that int64, uint8 and float32 hold exactly.
WHOLE = (PATHS.Q[:, 1] + PATHS.Q[:, 2]).astype(np.float64)
EX1 = Example1Params(c=0.5, T=1.0)
EX2 = _example2()
KEY = ((2, 0, 0), (0, 0, 0))  # rank 6


def _estimated(coeffs):
    return coeffs.d0, coeffs.values


# Public real-array argument -> (call with an array x, the name refusals
# give it, a float64 x of whole numbers).
ARRAYS = {
    "estimate.F": (lambda x: _estimated(estimate(x, PATHS, 2)), "F", WHOLE),
    "variance_diagnostic.F": (lambda x: variance_diagnostic(x, PATHS, 2), "F", WHOLE),
    "ChaosCoefficients.values": (lambda x: ChaosCoefficients(
        d0=0.0, values=x, p=2, spec=SPEC).values, "values", np.arange(27.0) % 5),
    "conditional_at.dB": (lambda x: conditional_at(
        COEFFS, PATHS, 2, SPEC.times()[2], x, PATHS.Q[:, 1]), "dB", WHOLE),
    "terminal_samples": (lambda x: terminal_samples(
        TerminalFunctional.custom(lambda paths: x), PATHS), "terminal functional", WHOLE),
    "solve.driver": (lambda x: solve(_config(), Driver.custom(lambda t, y, z, u: x),
                                     TerminalFunctional.poisson_count()).Y,
                     "driver output at iteration 1, grid index 1",
                     np.array([0.0, 1.0, 2.0, 1.0])),
    "hermite_batch.x": (lambda x: hermite_batch(3, x), "x", np.array([0.0, 1.0, 2.0, 3.0])),
    "charlier_batch.x": (lambda x: charlier_batch(3, x, 1.0), "x",
                         np.array([0.0, 1.0, 2.0, 3.0])),
    "PathBatch.G": (lambda x: _estimated(estimate(WHOLE, PathBatch(SPEC, 40, x, PATHS.Q, 0), 2)),
                    "G", (PATHS.Q + 1.0)),
    "example1_exact.t": (lambda x: example1_exact(EX1, x, 1), "t", np.array([0.0, 1.0, 1.0])),
    "example1_exact.N_t": (lambda x: example1_exact(EX1, 0.5, x), "N_t",
                           np.array([0.0, 3.0, 1.0])),
    "example2_exact.t": (lambda x: example2_exact(EX2, x, 0.5, 1), "t",
                         np.array([0.0, 1.0, 2.0])),
    "example2_exact.B_t": (lambda x: example2_exact(EX2, 1.0, x, 1), "B_t",
                           np.array([0.0, 1.0, 2.0])),
    "example2_exact.N_t": (lambda x: example2_exact(EX2, 1.0, 0.5, x), "N_t",
                           np.array([0.0, 1.0, 4.0])),
}


def _same(got, want):
    """Bit for bit: equal values of one dtype, through tuples."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ARRAYS)
def test_every_real_array_follows_the_real_rule(name):
    # Ints of any width, unsigned included, and other floats give the
    # float64 results bit for bit; a complex, str, object or bool array is a
    # TypeError naming the argument and its dtype, under any warnings filter
    # (numpy's ComplexWarning or a parsed string never gets through).
    call, arg, x = ARRAYS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = call(x)
        for dtype in (np.int64, np.uint8, np.float32):
            assert _same(call(x.astype(dtype)), want), dtype
        for dtype in (np.complex128, str, object, bool):
            bad = x.astype(dtype)
            with pytest.raises(TypeError, match=f"^{re.escape(arg)} must be real, "
                                                f"got dtype {re.escape(str(bad.dtype))}$"):
                call(bad)


def _with(a, at, value):
    """A float64 copy of ``a`` with ``value`` at index ``at``."""
    a = np.array(a, dtype=np.float64)
    a[at] = value
    return a


def _batch(spec, G, Q=None):
    """A hand-built batch of the increments G and the counts Q (0 if None)."""
    G = np.asarray(G, dtype=np.float64)
    Q = np.zeros(G.shape, dtype=np.int64) if Q is None else Q
    return PathBatch(spec, G.shape[0], G, Q, 0)


def _entry(spec, p, key, value):
    return coefficients_from_entries(spec, p, entries={key: value})


def _solve(driver, **config):
    return solve(_config(**config), Driver.custom(driver), TerminalFunctional.poisson_count())


def _blow_up(driver):
    return solve(_config(spec=GridSpec(T=1.0, N=4, kappa=1.0), K_it=3, seed=1), driver,
                 TerminalFunctional.custom(
                     lambda pb: 3e306 * np.tanh(pb.G[:, 0] * pb.G[:, 1] + pb.G[:, 2])))


BLOW_UP = "Y of iteration 2 has a non-finite value inf at grid index 4, sample 3"


def _at_sample(m, value):
    """Driver whose every row is 0 but ``value`` at sample m of 4."""
    return lambda t, y, z, u: _with(np.zeros(4), m, value)


# Evaluation overflows: G[2, 0] = 5 times 1e308 on the first Brownian unit
# (Y at grid index 1); G[2, 0] = 1.5 times 1e308 on G_1 * G_3 (Z at grid
# index 3); 1.5e308 on C_2 at slot 3 with kappa*h = 1 and no jumps (U = -3e308
# at grid index 3).
SPEC3 = GridSpec(T=1.0, N=3, kappa=3.0)
Y_OVERFLOW = (_entry(SPEC, 1, ((1, 0, 0), (0, 0, 0)), 1e308),
              _batch(SPEC, _with(np.zeros((4, 3)), (2, 0), 5.0)))
Z_OVERFLOW = (_entry(SPEC, 2, ((1, 0, 1), (0, 0, 0)), 1e308),
              _batch(SPEC, _with(np.zeros((4, 3)), (2, 0), 1.5)))
U_OVERFLOW = (_entry(SPEC3, 3, ((0, 0, 0), (0, 0, 2)), 1.5e308), _batch(SPEC3, np.zeros((4, 3))))
FIRST_JUMP = int(np.argmax(PATHS.Q.sum(axis=1) > 0))
WIDE = sample_paths(GridSpec(T=1.0, N=4, kappa=1.0), 2000, seed=1)

# Every place a non-finite value is refused -> (call, the message). One rule
# words them all: "<name> has a non-finite value <v> at <axis> <i>, ...", with
# the index along the caller's axes, or its entry, and no index for a scalar.
NON_FINITE = {
    "estimate.F": (lambda: estimate(_with(F, 12, np.inf), PATHS, 2),
                   "F has a non-finite value inf at sample 12"),
    "variance_diagnostic.F": (lambda: variance_diagnostic(_with(F, 5, np.nan), PATHS, 2),
                              "F has a non-finite value nan at sample 5"),
    "conditional_at.dB": (lambda: conditional_at(
        COEFFS, PATHS, 2, SPEC.times()[2], _with(np.zeros(40), 9, -np.inf), PATHS.Q[:, 1]),
        "dB has a non-finite value -inf at sample 9"),
    "ChaosCoefficients.values": (lambda: ChaosCoefficients(
        0.0, _with(np.zeros(27), 17, np.inf), 2, SPEC), "values has a non-finite value inf "
                                                        "at rank 17"),
    "PathBatch.G": (lambda: _batch(SPEC, _with(PATHS.G, (7, 1), np.nan), PATHS.Q),
                    "G has a non-finite value nan at sample 7, interval 1"),
    "hermite_batch.x": (lambda: hermite_batch(3, [[0.5, 1.0], [-np.inf, 2.0]]),
                        "x has a non-finite value -inf at entry 1, 0"),
    "charlier_batch.x": (lambda: charlier_batch(3, np.nan, 1.0),
                         "x has a non-finite value nan"),
    "example1_exact.t": (lambda: example1_exact(EX1, [0.5, np.nan], 1),
                         "t has a non-finite value nan at entry 1"),
    "example1_exact.N_t": (lambda: example1_exact(EX1, [0.0, 0.5, 1], [1, 2, np.inf]),
                           "N_t has a non-finite value inf at entry 2"),
    "example2_exact.B_t": (lambda: example2_exact(EX2, 0.5, [0.0, -np.inf], 0),
                           "B_t has a non-finite value -inf at entry 1"),
    "example2_exact.y": (lambda: example2_exact(EX2, 1.0, [0.0, 1e4, 2e4], 0),
                         "Y_t has a non-finite value inf at entry 1"),
    "terminal_samples": (lambda: terminal_samples(TerminalFunctional.exp_levy(0, 0, 800), PATHS),
                         f"terminal functional has a non-finite value inf at sample {FIRST_JUMP}"),
    "estimate.d0": (lambda: estimate(np.full(40, 1e308), PATHS, 1),
                    "estimate's d0 has a non-finite value inf"),
    # Sums of 1e305 * (G_1 * G_2)**2 over 2000 samples.
    "estimate.sum": (lambda: estimate(1e305 * WIDE.G[:, 0] * WIDE.G[:, 1], WIDE, 2),
                     "estimate's sum has a non-finite value inf at rank 9"),
    "estimate.coefficient": (lambda: estimate(np.full(2, 1e306), _batch(
        GridSpec(T=1.0, N=1, kappa=1e-3), np.zeros((2, 1)), np.array([[1], [0]])), 1),
        "estimate's coefficient has a non-finite value inf at rank 1"),
    "variance_diagnostic.Var(F)": (lambda: variance_diagnostic(np.full(40, 1e200), PATHS, 2),
                                   "variance_diagnostic's Var(F) has a non-finite value nan"),
    "variance_diagnostic.V": (lambda: variance_diagnostic(
        [3e153, 1e153], _batch(SPEC, [[0.3, -0.2, 0.1], [-0.3, 0.5, 0.2]],
                               np.array([[1, 0, 2], [0, 1, 0]])), 2),
        "variance_diagnostic's V has a non-finite value nan"),
    "evaluate_grid.Y": (lambda: evaluate_grid(*Y_OVERFLOW),
                        "evaluate_grid's Y has a non-finite value inf at grid index 1, sample 2"),
    "evaluate_grid.Z": (lambda: evaluate_grid(*Z_OVERFLOW),
                        "evaluate_grid's Z has a non-finite value inf at grid index 3, sample 2"),
    "evaluate_grid.U": (lambda: evaluate_grid(*U_OVERFLOW),
                        "evaluate_grid's U has a non-finite value -inf at grid index 3, "
                        "sample 0"),
    "conditional_at.Y": (lambda: conditional_at(
        *Y_OVERFLOW, 1, SPEC.times()[1], _with(np.zeros(4), 2, 5.0 * np.sqrt(SPEC.h)),
        np.zeros(4, int)),
        "conditional_at's Y has a non-finite value inf at grid index 1, sample 2"),
    "conditional_at.Z": (lambda: conditional_at(
        *Z_OVERFLOW, 3, SPEC.times()[3] - 0.1, np.zeros(4), np.zeros(4, int)),
        "conditional_at's Z has a non-finite value inf at grid index 3, sample 2"),
    "conditional_at.U": (lambda: conditional_at(
        *U_OVERFLOW, 3, SPEC3.times()[3] - 0.1, np.zeros(4), np.zeros(4, int)),
        "conditional_at's U has a non-finite value -inf at grid index 3, sample 0"),
    # Inside a solve (N = 3, M = 4, K_it = 1 unless given).
    "solve.driver": (lambda: _solve(lambda t, y, z, u: _with(y, 2, np.inf if t > 0.5 else 0)),
                     "driver output at iteration 1 has a non-finite value inf at grid index 2, "
                     "sample 2"),
    "solve.running_sum": (lambda: _solve(_at_sample(3, 1e308)),
                          "running driver sum at iteration 1 has a non-finite value inf at "
                          "grid index 2, sample 3"),
    # h = 4: the driver sum 1e308 is finite, h times it is not.
    "solve.F": (lambda: _solve(_at_sample(1, 1e308), spec=GridSpec(T=4.0, N=1, kappa=1.0)),
                "F at iteration 1 has a non-finite value inf at sample 1"),
    # Iteration 2's evaluation makes Y inf (a solve's evaluations do not scan
    # their chunks). Iteration 3's driver row there is NaN (0 * inf) or inf,
    # and the iterate is named, not the driver.
    "solve.iterate.zero_times_inf": (lambda: _blow_up(Driver.linear(0, 1, 0)), BLOW_UP),
    "solve.iterate.all_terms": (lambda: _blow_up(Driver.linear(0.3, 0.3, 0.2)), BLOW_UP),
    # h = 2: sums of 1e308 at grid index 2 and 0 after it keep F finite, and
    # Y[2] = cond - 2e308 is not.
    "solve.final_grid": (lambda: _solve(
        lambda t, y, z, u: _with(np.zeros(4), 3, {4.0: 1e308, 6.0: -1e308}.get(t, 0.0)),
        spec=GridSpec(T=10.0, N=5, kappa=1.0)),
        "Y of iteration 1 has a non-finite value -inf at grid index 2, sample 3"),
}


@pytest.mark.parametrize("name", NON_FINITE)
def test_every_non_finite_value_follows_the_one_rule(name):
    # The one wording, naming the value and its place, and a ValueError
    # under any warnings filter: no RuntimeWarning from the arithmetic that
    # made the value gets through first.
    call, message = NON_FINITE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.float32])
def test_a_path_batch_stores_its_increments_as_float64(dtype):
    # Converted in their layout: a time-major G stays time-major.
    G = PATHS.Q.astype(dtype)
    batch = PathBatch(SPEC, 40, G, PATHS.Q, 0)
    assert batch.G.dtype == np.float64 and batch.G.strides[0] == 8
    assert np.array_equal(batch.G, G)
    assert PathBatch(SPEC, 40, PATHS.G, PATHS.Q, 0).G is PATHS.G


# Public real scalar that the coefficient containers take -> (call with x,
# the name refusals give it).
SCALARS = {
    "ChaosCoefficients.d0": (lambda x: ChaosCoefficients(
        d0=x, values=np.zeros(27), p=2, spec=SPEC).d0, "d0"),
    "coefficients_from_entries.d0": (lambda x: coefficients_from_entries(
        SPEC, 2, d0=x).d0, "d0"),
    "coefficients_from_entries.entries": (lambda x: coefficients_from_entries(
        SPEC, 2, entries={KEY: x}).entry(KEY), "entries value at rank 6"),
}


@pytest.mark.parametrize("name", SCALARS)
def test_coefficient_scalars_follow_the_real_rule(name):
    call, arg = SCALARS[name]
    for x in (1.5, np.float32(1.5), np.float64(1.5)):
        got = call(x)
        assert got == 1.5 and type(got) is float
    assert call(np.int64(2)) == call(2) == 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ("1.5", True, np.True_, 1.5 + 0j, np.complex128(1.5)):
            with pytest.raises(TypeError, match=f"^{re.escape(arg)} must be a real "
                                                f"number, got {type(bad).__name__}$"):
                call(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} must be finite, got nan$"):
        call(np.nan)
