"""The package's public surface: exactly the names below, each resolvable,
and none of the removed per-path, scalar-table or per-index names."""

import pytest

import chaosbsde
from chaosbsde import GridSpec, chaos_core, chaos_eval, coefficients_from_entries, orthopoly

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
