"""
The two polynomial families behind the basis
============================================

The expansion basis multiplies Hermite polynomials of the Brownian
increments with Charlier polynomials of the jump counts. Both families
are tabulated by their three-term recurrences, every degree at every
entry of an array at once; this script checks them against quadrature
and direct summation.
"""

import math

import numpy as np
import numpy.polynomial.hermite_e as herme

from chaosbsde import charlier_batch, hermite_batch

# --- Hermite, normalized so the generating function is exp(x s - s^2/2).
# K_0 = 1, K_1 = x, and (m+1) K_{m+1} = x K_m - K_{m-1}.
x = 1.3
K = hermite_batch(6, x)
print("K_m(1.3) for m = 0..6:", K.round(6).tolist())
print("recurrence check m=3:", math.isclose(4 * K[4], x * K[3] - K[2]))

# sqrt(m!) K_m is orthonormal under the standard normal law. Verify with
# Gauss quadrature for the weight exp(-x^2/2).
nodes, w = herme.hermegauss(40)
w = w / math.sqrt(2 * math.pi)
tables = hermite_batch(4, nodes).T  # one row of K_0..K_4 per node
for m, n in [(2, 2), (4, 4), (1, 3), (0, 2)]:
    s = sum(wi * tb[m] * tb[n] for wi, tb in zip(w, tables))
    s *= math.sqrt(math.factorial(m) * math.factorial(n))
    print(f"<K_{m}, K_{n}> scaled = {s:+.2e}  (target {1.0 if m == n else 0.0})")

# --- Charlier, orthogonal for the Poisson(t) law on 0, 1, 2, ...
# C_0 = 1, C_1 = x - t, and C_{m+1} = (x - m - t) C_m - m t C_{m-1}.
t = 0.12
C = charlier_batch(5, 2.0, t)
print("\nC_m(2, 0.12) for m = 0..5:", C.round(6).tolist())
print("recurrence check m=2:",
      math.isclose(C[3], (2.0 - 2 - t) * C[2] - 2 * t * C[1]))

# Orthogonality: sum over the Poisson pmf gives delta_mn m! t^m.
xs = np.arange(60)
pmf = np.exp(-t) * np.array([t ** k / math.factorial(k) for k in xs])
tabs = charlier_batch(4, xs, t).T
for m, n in [(3, 3), (2, 4), (0, 1)]:
    s = sum(p * tb[m] * tb[n] for p, tb in zip(pmf, tabs))
    target = math.factorial(m) * t ** m if m == n else 0.0
    print(f"<C_{m}, C_{n}>_Poisson = {s:+.3e}  (target {target:.3e})")
