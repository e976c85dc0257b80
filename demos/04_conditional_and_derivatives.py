"""
Conditional expectations and the two derivative evaluators
==========================================================

Once a functional's coefficients are known, conditioning on the first r
intervals is free: drop every basis element that touches an interval
after r. The same truncation gives closed forms for the two Malliavin
derivatives, which the solver reads as Z and U.
"""

import math

import numpy as np

from chaosbsde import GridSpec, conditional_at, estimate, evaluate_grid, sample_paths

spec = GridSpec(T=1.0, N=8, kappa=1.0)
M = 400_000
paths = sample_paths(spec, M, seed=3)

# Expand F = B_T. Its chaos expansion is exactly first order with a
# coefficient sqrt(h) on every Brownian unit index.
F = math.sqrt(spec.h) * paths.G.sum(axis=1)
coeffs = estimate(F, paths, p=1)

# Walk one concrete path: evaluate_grid on a one-path batch gives the
# value (Y) and the two derivative evaluators (Z, U) at every grid time.
path = paths.rows(0, 1)
B = np.concatenate([[0.0], np.sqrt(spec.h) * np.cumsum(path.G[0])])
Y1, Z1, U1 = evaluate_grid(coeffs, path)

# Conditioning recovers the martingale property E_r[B_T] = B_r.
print(" r   E_r[F]      B_r")
for r in (0, 2, 5, 8):
    print("%2d  %+.4f   %+.4f" % (r, Y1[r, 0], B[r]))

# The Brownian derivative of B_T is 1 at every time; the jump derivative
# is 0. The evaluators recover both up to Monte Carlo noise.
print("Z at r=4: %+.4f  (target 1)" % Z1[4, 0])
print("U at r=4: %+.4f  (target 0)" % U1[4, 0])

# conditional_at extends all three evaluations to a time inside interval
# r, given each path's partial increments (dB, dN) accrued since the
# interval started at t_{r-1}: one entry per path of the batch.
y, z, u = conditional_at(coeffs, path, r=5, t=4.5 * spec.h, dB=[0.1], dN=[0])
print("mid-interval: y %+.4f  z %+.4f  u %+.4f" % (y[0], z[0], u[0]))
# For a first-order expansion the value is linear in the running Brownian
# increment with slope exactly z.
y0, _, _ = conditional_at(coeffs, path, r=5, t=4.5 * spec.h, dB=[0.0], dN=[0])
print("value moved by dB * z:",
      math.isclose(y[0] - y0[0], 0.1 * z[0], rel_tol=0, abs_tol=1e-12))

# evaluate_grid does all paths and all grid times at once; a path's column
# matches its one-path evaluation.
Y, Z, U = evaluate_grid(coeffs, paths.rows(0, 1000))
print("grid row matches single-path evaluator:", math.isclose(Y[4, 0], Y1[4, 0]))
print("mean Z over grid: %.4f   mean |U|: %.4f"
      % (float(Z.mean()), float(np.abs(U).mean())))
