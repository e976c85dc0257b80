"""The package's public surface: exactly the names below, each resolvable,
and none of the removed per-path, scalar-table or per-index names."""

import numpy as np
import pytest

import chaosbsde
from chaosbsde import (Example1Params, Example2Params, GridSpec, PathBatch,
                       SolverConfig, chaos_core, chaos_eval, charlier_batch,
                       coefficients_from_entries, estimate, hermite_batch,
                       orthopoly, sample_paths)

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


def _config(**counts):
    return SolverConfig(**{"spec": SPEC, "p": 2, "K_it": 1, "M": 4, "seed": 0, **counts})


# Entry point -> (call with a count n, exception for a non-integer n).
COUNTS = {
    "GridSpec.N": (lambda n: GridSpec(T=1.0, N=n, kappa=1.0).N, TypeError),
    "sample_paths.M": (lambda n: sample_paths(SPEC, n, 0).M, TypeError),
    "sample_paths.seed": (lambda n: sample_paths(SPEC, 4, n).seed, TypeError),
    "PathBatch.M": (lambda n: PathBatch(SPEC, n, PATHS.G[:2], PATHS.Q[:2], 0).M,
                    ValueError),
    "SolverConfig.p": (lambda n: _config(p=n).p, TypeError),
    "SolverConfig.K_it": (lambda n: _config(K_it=n).K_it, TypeError),
    "SolverConfig.M": (lambda n: _config(M=n).M, TypeError),
    "SolverConfig.seed": (lambda n: _config(seed=n).seed, TypeError),
    "estimate.p": (lambda n: estimate(PATHS.G[:, 0], PATHS, n).p, ValueError),
    "coefficients_from_entries.p": (lambda n: coefficients_from_entries(SPEC, n).p,
                                    ValueError),
    "hermite_batch.m_max": (lambda n: hermite_batch(n, 0.5), TypeError),
    "charlier_batch.m_max": (lambda n: charlier_batch(n, 3, 1.0), TypeError),
}


@pytest.mark.parametrize("name", COUNTS)
def test_numpy_integer_counts_are_accepted_as_python_ints(name):
    call, error = COUNTS[name]
    want = call(2)
    for n in (np.int64(2), np.int32(2), np.uint8(2)):
        got = call(n)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want and type(got) is int
    for bad in (True, np.True_, 2.0, np.float64(2.0)):
        with pytest.raises(error):
            call(bad)


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
