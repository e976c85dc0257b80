"""The package's public surface: exactly the names below, each resolvable,
and none of the removed per-path or scalar-table names."""

import pytest

import chaosbsde
from chaosbsde import chaos_eval, orthopoly

PUBLIC = {
    "GridSpec", "PathBatch", "sample_paths",
    "hermite_batch", "charlier_batch", "MAX_DEGREE",
    "MultiIndex", "ChaosCoefficients", "SizingError", "enumerate_indices",
    "weight", "estimate", "variance_diagnostic", "coefficients_from_entries",
    "evaluate_grid", "conditional_at",
    "Driver", "TerminalFunctional", "SolverConfig", "SolutionGrid",
    "terminal_samples", "draw_paths", "solve",
    "Example1Params", "Example2Params", "example1_exact", "example2_exact",
    "ExactGrid", "example1_grid", "example2_grid", "error_norm",
    "__version__",
}

REMOVED = ["PathView", "conditional", "malliavin_b", "malliavin_p",
           "PolyTable", "hermite_upto", "charlier_upto"]


def test_all_is_the_public_set():
    assert len(chaosbsde.__all__) == len(set(chaosbsde.__all__))
    assert set(chaosbsde.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in chaosbsde.__all__:
        assert getattr(chaosbsde, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(chaosbsde, name)
    assert not hasattr(chaos_eval, name)
    assert not hasattr(orthopoly, name)
