"""Chaos-expansion solver for backward SDEs driven by Brownian motion and a
compensated Poisson process.

The pipeline, bottom to top:

* :mod:`~chaosbsde.stochastic_grid` draws reproducible batches of
  standardized Brownian and Poisson increments on a regular grid.
* :mod:`~chaosbsde.orthopoly` tabulates the Hermite and Charlier families,
  in the normalization the basis uses, at every entry of an array.
* :mod:`~chaosbsde.chaos_core` ranks the truncated multi-index basis
  and estimates chaos coefficients of a functional by Monte Carlo.
* :mod:`~chaosbsde.chaos_eval` turns coefficients into conditional
  expectations and the two derivative evaluators on every path of a
  batch, at grid times or inside an interval.
* :mod:`~chaosbsde.picard_solver` iterates the forward Picard scheme to
  solve the backward equation on the grid.
* :mod:`~chaosbsde.benchmarks` provides two closed-form reference problems
  and the discretized error norm.
* :mod:`~chaosbsde.cli` runs configured experiments and writes CSV results
  (``chaosbsde --config experiment.cfg``).

Quick start::

    from chaosbsde import (GridSpec, SolverConfig, Driver,
                           TerminalFunctional, solve)

    spec = GridSpec(T=1.0, N=20, kappa=1.0)
    config = SolverConfig(spec=spec, p=2, K_it=5, M=100_000, seed=1)
    grid = solve(config, Driver.linear_jump(0.5),
                 TerminalFunctional.poisson_count())
    print(grid.Y[0, 0])   # time-0 value
"""

from .stochastic_grid import GridSpec, PathBatch, sample_paths
from .orthopoly import MAX_DEGREE, charlier_batch, hermite_batch
from .chaos_core import (
    ChaosCoefficients,
    SizingError,
    coefficients_from_entries,
    estimate,
    variance_diagnostic,
)
from .chaos_eval import conditional_at, evaluate_grid
from .picard_solver import (
    Driver,
    SolutionGrid,
    SolverConfig,
    TerminalFunctional,
    draw_paths,
    solve,
    terminal_samples,
)
from .benchmarks import (
    Example1Params,
    Example2Params,
    ExactGrid,
    error_norm,
    example1_exact,
    example1_grid,
    example2_exact,
    example2_grid,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "PathBatch", "sample_paths",
    "hermite_batch", "charlier_batch", "MAX_DEGREE",
    "ChaosCoefficients", "SizingError", "estimate", "variance_diagnostic",
    "coefficients_from_entries",
    "evaluate_grid", "conditional_at",
    "Driver", "TerminalFunctional", "SolverConfig", "SolutionGrid",
    "terminal_samples", "draw_paths", "solve",
    "Example1Params", "Example2Params", "example1_exact", "example2_exact",
    "ExactGrid", "example1_grid", "example2_grid", "error_norm",
    "__version__",
]
