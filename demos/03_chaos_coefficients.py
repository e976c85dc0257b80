"""
Estimating chaos coefficients by Monte Carlo
============================================

A square-integrable functional F of the paths decomposes over the product
basis Phi_n. Coefficients are plain sample means: d0 = mean(F) and
d_n = mean(F Phi_n) / w(n), with w(n) the basis element's squared norm.
This script estimates the expansion of F = N_T, the total jump count.
"""

import numpy as np

from chaosbsde import GridSpec, estimate, sample_paths, variance_diagnostic

spec = GridSpec(T=1.0, N=10, kappa=1.0)
M = 200_000
paths = sample_paths(spec, M, seed=11)
F = paths.Q.sum(axis=1).astype(float)

# Truncation order p = 2 keeps all multi-indices of total degree <= 2.
# values[j] is the coefficient of the index of rank j, whose degree vectors
# are coeffs.degB[j] and coeffs.degP[j].
coeffs = estimate(F, paths, p=2)
print("basis size at N=10, p=2:", coeffs.values.size)

# N_T has an exact one-term-per-interval expansion: d0 = kappa T and a
# unit coefficient on each first-order Charlier index. Everything else
# is Monte Carlo noise of size about 1/sqrt(M w(n)).
print("d0 = %.4f   (target kappa T = %.1f)" % (coeffs.d0, spec.kappa * spec.T))
unit_p = tuple(1 if i == 0 else 0 for i in range(spec.N))
zeros = (0,) * spec.N
print("first jump-unit coefficient = %.4f   (target 1)"
      % coeffs.entry((zeros, unit_p)))

values = coeffs.values
weights = coeffs.weights()
big = np.argsort(-np.abs(values))[:12]
print("largest |d_n|:", np.round(np.abs(values[big]), 3))

# Energy check: the weighted coefficient mass never exceeds mean(F^2)
# by more than sampling error.
energy = coeffs.d0 ** 2 + float(np.sum(weights * values ** 2))
print("weighted energy %.4f  vs  mean F^2 = %.4f" % (energy,
                                                     float(np.mean(F ** 2))))

# The variance diagnostic predicts the aggregate mean-square error of all
# estimated coefficients at a given sample count: MSE ~ V/M.
V = variance_diagnostic(F, paths, p=2)
print("variance diagnostic V = %.3f" % V)
for m_small in (1_000, 10_000):
    errs = []
    for rep in range(30):
        pb = sample_paths(spec, m_small, seed=500 + rep)
        cb = estimate(pb.Q.sum(axis=1).astype(float), pb, p=2)
        errs.append((cb.d0 - coeffs.d0) ** 2
                    + float(np.sum(weights * (cb.values - values) ** 2)))
    print("M = %6d: observed MSE %.4f   predicted V/M %.4f"
          % (m_small, float(np.mean(errs)), V / m_small))
