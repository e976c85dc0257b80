"""
Solving a backward equation with a known answer
===============================================

Benchmark: terminal value N_T and driver f = c u. The solution triple is
known in closed form, Y_t = N_t + (1 + c)(T - t), Z = 0, U = 1, which
makes it a sharp end-to-end check of the whole pipeline.
"""

import dataclasses

import numpy as np

from chaosbsde import (
    Driver,
    Example1Params,
    SolverConfig,
    TerminalFunctional,
    draw_paths,
    error_norm,
    example1_exact,
    example1_grid,
    solve,
)

params = Example1Params(c=0.5, T=1.0)
config = SolverConfig(spec=params.grid(20), p=2, K_it=5, M=100_000, seed=1)
driver, xi = Driver.linear_jump(params.c), TerminalFunctional.poisson_count()

paths = draw_paths(config)
grid = solve(config, driver, xi, paths=paths, threads=4)

# Time-0 values are deterministic numbers (row 0 of each matrix).
y_ex, z_ex, u_ex = example1_exact(params, 0.0, 0)
print("Y0 = %.4f   exact %.4f" % (grid.Y[0, 0], y_ex))
print("Z0 = %+.4f  exact %+.4f" % (grid.Z[0, 0], z_ex))
print("U0 = %.4f   exact %.4f" % (grid.U[0, 0], u_ex))

# Whole-grid accuracy against the closed form on the same paths: the
# pathwise sup of |dY|^2 and the time-integrated squares of dZ and dU,
# averaged over paths. The exact grid is a row stream rather than a
# matrix; error_norm reads it next to the solver's rows one grid time at a
# time, so no exact (N+1) x M array is ever built.
exact = example1_grid(params, grid.paths)
eY, eZ, eU = error_norm(grid, exact, config.spec)
print("grid errors: Y %.4f  Z %.4f  U %.4f" % (eY, eZ, eU))

# The last row of each stream is the terminal time T on every path.
*_, (y_T, _, _) = grid.rows()
*_, (x_T, _, _) = exact.rows()
print("Y_T - exact on paths 0-4:", np.round(y_T[:5] - x_T[:5], 4))

# The iteration converges geometrically; successive time-0 values
# stabilize within a few rounds. A solve of q iterations on the same paths
# ends at iterate q of the solve above, bit for bit.
print("\nY0 by iteration:")
for q in range(1, config.K_it + 1):
    g_q = solve(dataclasses.replace(config, K_it=q), driver, xi, paths=paths,
                threads=4)
    print("  q = %d: %.6f" % (q, g_q.Y[0, 0]))

# Doubling M shrinks the statistical part of the error.
for M in (10_000, 40_000, 160_000):
    c2 = SolverConfig(spec=params.grid(20), p=2, K_it=5, M=M, seed=1)
    g2 = solve(c2, driver, xi, threads=4)
    ex2 = example1_grid(params, g2.paths)
    eY, eZ, eU = error_norm(g2, ex2, c2.spec)
    print("M = %6d: |Y0 - exact| = %.4f   grid error Y %.4f"
          % (M, abs(g2.Y[0, 0] - y_ex), eY))
