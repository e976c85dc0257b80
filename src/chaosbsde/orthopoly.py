"""Hermite and Charlier polynomials in the chaos-basis normalization.

The continuous (Brownian) factor uses the Hermite family K_m defined by the
generating function

    exp(x*t - t**2 / 2) = sum_m K_m(x) * t**m,

so K_m equals the probabilists' Hermite polynomial He_m divided by m!, and
sqrt(m!) * K_m(X) is orthonormal when X is standard normal. Substituting
K_m = He_m/m! into He_{m+1}(x) = x*He_m(x) - m*He_{m-1}(x) and dividing by
(m+1)! gives the recurrence actually implemented:

    K_0(x) = 1,  K_1(x) = x,  K_{m+1}(x) = (x*K_m(x) - K_{m-1}(x)) / (m+1).

A useful byproduct of this normalization is K_m'(x) = K_{m-1}(x).

The discrete (Poisson) factor uses the Charlier family C_m(., t), t >= 0:

    C_0 = 1,  C_1(x, t) = x - t,
    C_{m+1}(x, t) = (x - m - t) * C_m(x, t) - m * t * C_{m-1}(x, t),

and C_m(X, t) / sqrt(m! * t**m) is orthonormal when X is Poisson(t).

Both tables are vectorized: ``hermite_batch(m_max, x)`` and
``charlier_batch(m_max, x, t)`` return every degree 0..m_max at every entry
of x, with the degree as the leading axis. A scalar x gives a vector of
m_max + 1 values. x may hold ints or floats of any dtype, computed in
float64; a complex, str, object or bool x is refused with TypeError, and a
non-finite entry, or one where a degree overflows float64, with ValueError.

Degrees are capped at MAX_DEGREE = 60: beyond that the factorial weights
over/underflow float64 long before the values are of any statistical use.
"""

from __future__ import annotations

import numpy as np

from .stochastic_grid import (_count, _finite_real, _first_non_finite, _real_array,
                             _refuse_non_finite)

__all__ = ["hermite_batch", "charlier_batch", "MAX_DEGREE"]

MAX_DEGREE = 60


def _degree(name: str, value) -> int:
    """``value`` as a count >= 0 (``_count``), ValueError above MAX_DEGREE."""
    value = _count(name, value, 0)
    if value > MAX_DEGREE:
        raise ValueError(f"{name} = {value} exceeds the degree cap {MAX_DEGREE}")
    return value


def _checked(m_max: int, x) -> tuple[int, np.ndarray]:
    """``m_max`` as a degree (:func:`_degree`) and x as float64
    (``_real_array``): TypeError unless x is real, ValueError for a
    non-finite x."""
    m_max = _degree("m_max", m_max)
    x = _real_array("x", x)
    _refuse_non_finite("x", x)
    return m_max, x


def hermite_batch(m_max: int, x: np.ndarray) -> np.ndarray:
    """Hermite values K_0..K_{m_max} at every entry of x.

    Returns an array of shape (m_max+1,) + x.shape; x is real (TypeError
    otherwise, bools included) and finite, and no value may overflow
    float64 (ValueError naming the degree and the entry). Examples:
    hermite_batch(1, 3.5) is [1, 3.5]; hermite_batch(2, 3.0) is [1, 3, 4]
    since K_2(3) = (9 - 1)/2; hermite_batch(3, 2.0) is [1, 2, 1.5, 1/3]
    since K_3(2) = (8 - 6)/6.
    """
    m_max, x = _checked(m_max, x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _hermite_rows(m_max, x, np.empty((m_max + 1,) + x.shape))
        # x*K_m can overflow where K_{m+1} fits: each non-finite K_{m+1} is
        # recomputed as (x/(m+1))*K_m - K_{m-1}/(m+1) where the product
        # overflows, else by the recurrence, so every finite value keeps its
        # bits and a mended degree carries on to the next.
        for m in range(1, m_max):
            bad = ~np.isfinite(out[m + 1, ...])
            if bad.any():
                xs, k, k0 = x[bad], out[m][bad], out[m - 1][bad]
                prod = xs * k
                out[m + 1, ...][bad] = np.where(np.isfinite(prod), (prod - k0) / (m + 1),
                                                xs / (m + 1) * k - k0 / (m + 1))
    return _refuse_overflow("K", out, x)


def charlier_batch(m_max: int, x: np.ndarray, t: float) -> np.ndarray:
    """Charlier values C_0..C_{m_max}(x, t) at every entry of x.

    Returns an array of shape (m_max+1,) + x.shape; x is real (TypeError
    otherwise, bools included) and finite, and no value may overflow
    float64 (ValueError naming the degree and the entry). Examples:
    charlier_batch(1, 4, 1.0) is [1, 3]; charlier_batch(2, 3, 1.0) is
    [1, 2, 1] and charlier_batch(2, 2, 1.0) is [1, 1, -1] by the
    three-term recurrence. ``t`` is a real number (TypeError otherwise,
    bools included), finite and >= 0 (ValueError otherwise).
    """
    m_max, x = _checked(m_max, x)
    t = _finite_real("t", t)
    if t < 0.0:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _charlier_rows(m_max, x, t, np.empty((m_max + 1,) + x.shape),
                             np.empty(x.shape))
    return _refuse_overflow("C", out, x)


def _refuse_overflow(family: str, out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out``, the table at x, or ValueError naming the lowest degree that
    overflows float64 there and its first such entry of x."""
    bad = _first_non_finite(out)
    if bad is not None:
        at = f" at entry {', '.join(map(str, bad[1:]))}" if bad[1:] else ""
        raise ValueError(f"{family}_{bad[0]}(x) overflows float64 at "
                         f"x = {float(x[bad[1:]])!r}{at}")
    return out


# The recurrences themselves, unchecked: the kernels call them on paths a
# PathBatch has already checked. They write every degree in place, in the
# operation order of the formulas above, so each value is bit for bit the
# same for any ``out`` and ``tmp``. ``out[m, ...]`` is a view even for a
# scalar x, where ``out[m]`` would be a copy.

def _hermite_rows(m_max: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K_0..K_{m_max} at float x into ``out``, shape (m_max+1,) + x.shape."""
    out[0] = 1.0
    if m_max >= 1:
        out[1] = x
    for m in range(1, m_max):
        nxt = out[m + 1, ...]
        np.multiply(x, out[m], out=nxt)
        nxt -= out[m - 1]
        nxt /= m + 1
    return out


def _charlier_rows(m_max: int, x: np.ndarray, t: float, out: np.ndarray,
                   tmp: np.ndarray) -> np.ndarray:
    """C_0..C_{m_max}(x, t) at int or float x into ``out``; ``tmp`` is
    float64 scratch of x's shape."""
    out[0] = 1.0
    if m_max >= 1:
        np.subtract(x, t, out=out[1, ...])
    for m in range(1, m_max):
        nxt = out[m + 1, ...]
        # (x - m) - t, as the formula groups it, in float64: unsigned x wraps.
        np.subtract(x, m, out=nxt, dtype=np.float64)
        nxt -= t
        nxt *= out[m]
        nxt -= np.multiply(m * t, out[m - 1], out=tmp)
    return out
