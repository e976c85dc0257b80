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
