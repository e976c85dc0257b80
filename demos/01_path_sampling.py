"""
Drawing reproducible path batches
=================================

Every quantity in this package is built from one matrix of standardized
Brownian increments G and one matrix of Poisson interval counts Q, drawn
on a regular time grid. This script shows what a batch looks like and why
two draws with the same seed agree bit for bit.
"""

import numpy as np

from chaosbsde import GridSpec, sample_paths

# A grid is (horizon, number of intervals, jump intensity). Step h = T/N.
spec = GridSpec(T=2.0, N=50, kappa=3.0)
print("step h =", spec.h)
print("expected jumps per interval =", spec.jump_mean)
print("grid times:", spec.times()[:4], "...", spec.times()[-1])

# M paths: G is M x N standard normal, Q is M x N Poisson(kappa h) counts.
paths = sample_paths(spec, M=100_000, seed=7)
print("G shape", paths.G.shape, paths.G.dtype)
print("Q shape", paths.Q.shape, paths.Q.dtype)
# Both are views of time-major storage: one contiguous row per interval.
print("time-major storage:", paths.G.T.flags.c_contiguous and paths.Q.T.flags.c_contiguous)

# The columns are standardized: each G column is unit normal, each Q
# column has mean kappa h.
print("col 0 of G: mean %.4f  var %.4f" % (paths.G[:, 0].mean(),
                                           paths.G[:, 0].var()))
print("col 0 of Q: mean %.4f  (kappa h = %.4f)" % (paths.Q[:, 0].mean(),
                                                   spec.jump_mean))

# Brownian motion and the counting process are cumulative sums.
B = np.sqrt(spec.h) * np.cumsum(paths.G, axis=1)
N_t = np.cumsum(paths.Q, axis=1)
print("B_T: mean %.4f  var %.4f  (target 0, %.1f)" % (
    B[:, -1].mean(), B[:, -1].var(), spec.T))
print("N_T: mean %.4f  (target kappa T = %.1f)" % (
    N_t[:, -1].mean(), spec.kappa * spec.T))

# Counter-based generation: the same (spec, M, seed) always reproduces the
# identical batch, regardless of platform or how many draws came before.
again = sample_paths(spec, M=100_000, seed=7)
print("bitwise identical redraw:", np.array_equal(paths.G, again.G)
      and np.array_equal(paths.Q, again.Q))

other = sample_paths(spec, M=100_000, seed=8)
print("different seed differs:", not np.array_equal(paths.G, other.G))

# rows() gives a zero-copy window, handy for splitting a batch in two.
head = paths.rows(0, 50_000)
print("first half shares memory:", np.shares_memory(head.G, paths.G))
