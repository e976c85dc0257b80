"""The benchmark's workloads: CLI configs generated from a seed.

Each workload is a ``chaosbsde --config`` file plus the thread count it runs
at, the per-solve call counts its traced run must see, and the relative
tolerance its time-0 value must meet against the closed form.

Sizes follow the ROADMAP Baseline rows (N, p, M) so per-call layer times
compare with that table. The Picard count q is cut where it only repeats
identical iterations, so that a run fits the benchmark's time budget:

* ``ex2_n50_p2`` runs q=5 instead of the acceptance test's q=10. The Picard
  partial sum then misses 0.1% of Y0, far below the sampling bias; every
  iteration has the same kernel shapes, so per-call numbers are unchanged.
* ``ex1_n10_p3`` runs q=2: example1's iteration reaches its fixed point after
  two steps (U = 1 from the first, Y from the second); later steps repeat
  the second at sampling noise.

Tolerances come from ``calibrate.py`` (evidence in README.md): the mean
relative error over solver seeds 1-12 at the workload's own size plus six sample
standard deviations, rounded up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SWEEP_POINTS = 4  # seed sweep length of the independent-sampling workload


@dataclass(frozen=True)
class Workload:
    name: str
    example: str
    N: int
    p: int
    q: int
    M: int
    sample_mode: str
    threads: int
    seed_sweep: bool
    y0_rel_tol: float

    @property
    def independent(self) -> bool:
        return self.sample_mode == "independent"

    def point_seeds(self, seed: int) -> list[int]:
        """Solver seeds of the sweep points for benchmark seed ``seed``."""
        if self.seed_sweep:
            return [SWEEP_POINTS * seed + k for k in range(1, SWEEP_POINTS + 1)]
        return [seed]

    def config_text(self, seed: int, out: str) -> str:
        """CLI config for benchmark seed ``seed`` writing its CSV to ``out``."""
        return self.sweep_text(self.point_seeds(seed), out)

    def sweep_text(self, seeds: list[int], out: str) -> str:
        """CLI config solving one point per solver seed in ``seeds``."""
        lines = [f"example = {self.example}", f"N = {self.N}", f"p = {self.p}",
                 f"q = {self.q}", f"M = {self.M}",
                 f"sample_mode = {self.sample_mode}", f"out = {out}"]
        if self.example == "example2":
            lines.append("kappa = 3.0")
        if len(seeds) > 1:
            lines += ["sweep_axis = seed",
                      "sweep_values = " + ", ".join(str(s) for s in seeds)]
        else:
            lines.append(f"seed = {seeds[0]}")
        return "\n".join(lines) + "\n"

    def expected_calls(self) -> dict[str, int]:
        """Calls per solve that the traced run must record for each layer.

        Independent mode evaluates on both batches and builds driver rows for
        both, so it doubles the evaluate and driver counts.
        """
        twice = 2 if self.independent else 1
        return {
            "stochastic_grid.sample_paths": 1,
            "picard_solver.terminal_samples": 1,
            "picard_solver.driver": twice * self.q * self.N,
            "chaos_core.estimate": self.q,
            "chaos_eval.evaluate_grid": twice * self.q,
        }

    def exact_y0(self) -> float:
        """Closed-form time-0 value, computed here independently of the
        package (formulas from the benchmarks module docstring, CLI
        default parameters)."""
        if self.example == "example1":
            c, T = 0.5, 1.0
            return (1.0 + c) * T
        alpha, beta, gamma, a, b, c, kappa, T = 0.3, 0.3, 0.2, -0.1, 0.1, 0.2, 3.0, 2.0
        rate = (alpha + ((b + beta) ** 2 - beta ** 2) / 2.0
                + (math.exp(c) - 1.0) * (kappa + gamma))
        return math.exp(a * T + rate * T)


# What each workload stresses, and why: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ex2_n50_p2", example="example2", N=50, p=2, q=5, M=100_000,
        sample_mode="reuse", threads=2, seed_sweep=False, y0_rel_tol=0.07),
    Workload(
        name="ex1_n10_p3", example="example1", N=10, p=3, q=2, M=20_000,
        sample_mode="reuse", threads=1, seed_sweep=False, y0_rel_tol=0.042),
    Workload(
        name="ex1_n20_indep", example="example1", N=20, p=2, q=5, M=100_000,
        sample_mode="independent", threads=2, seed_sweep=True, y0_rel_tol=0.046),
)}
