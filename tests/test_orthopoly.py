"""Polynomial tables against closed-form series oracles and orthonormality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

from chaosbsde import MAX_DEGREE, charlier_batch, hermite_batch

finite_x = st.floats(min_value=-30.0, max_value=30.0,
                     allow_nan=False, allow_infinity=False)


def hermite_series_oracle(m, x):
    """K_m(x) = sum_j x^(m-2j) (-1/2)^j / ((m-2j)! j!), from the generating function."""
    total = 0.0
    for j in range(m // 2 + 1):
        total += x ** (m - 2 * j) * (-0.5) ** j / (
            math.factorial(m - 2 * j) * math.factorial(j))
    return total


def charlier_sum_oracle(m, x, t):
    """C_m(x, t) = sum_k binom(m, k) (-t)^(m-k) x_(k) with x_(k) falling factorial."""
    total = 0.0
    for k in range(m + 1):
        falling = 1.0
        for i in range(k):
            falling *= x - i
        total += math.comb(m, k) * (-t) ** (m - k) * falling
    return total


class TestHermite:
    def test_degree_one(self):
        assert list(hermite_batch(1, 3.5)) == [1.0, 3.5]

    def test_degree_two(self):
        np.testing.assert_allclose(hermite_batch(2, 3.0), [1, 3, 4], rtol=1e-15)

    def test_degree_three(self):
        np.testing.assert_allclose(hermite_batch(3, 2.0),
                                   [1, 2, 1.5, 1 / 3], rtol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(min_value=-8, max_value=8, allow_nan=False), m=st.integers(0, 8))
    def test_matches_series_oracle(self, x, m):
        got = hermite_batch(m, x)[m]
        want = hermite_series_oracle(m, x)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(x=finite_x, m=st.integers(2, 10))
    def test_recurrence_identity(self, x, m):
        # (m+1) K_{m+1} = x K_m - K_{m-1}
        table = hermite_batch(m + 1, x)
        assert (m + 1) * table[m + 1] == pytest.approx(
            x * table[m] - table[m - 1], rel=1e-12, abs=1e-300)

    def test_derivative_is_previous_degree(self):
        # K'_m = K_{m-1}, checked by central differences at O(eps^2)
        eps = 1e-6
        for x in (-1.7, 0.3, 2.9):
            up = hermite_batch(6, x + eps)
            dn = hermite_batch(6, x - eps)
            mid = hermite_batch(6, x)
            for m in range(1, 7):
                deriv = (up[m] - dn[m]) / (2 * eps)
                assert deriv == pytest.approx(mid[m - 1], rel=1e-7, abs=1e-7)

    def test_orthonormality_gauss_quadrature(self):
        # E[m! K_m(G)^2] = 1 and cross moments vanish, G standard normal
        nodes, weights = hermegauss(60)
        weights = weights / weights.sum()
        tables = hermite_batch(6, nodes).T
        for m in range(7):
            for n in range(7):
                moment = float(np.dot(weights, tables[:, m] * tables[:, n]))
                scaled = math.factorial(m) * moment if m == n else moment
                want = 1.0 if m == n else 0.0
                assert scaled == pytest.approx(want, abs=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hermite_batch(3, math.nan)
        with pytest.raises(ValueError):
            hermite_batch(3, math.inf)
        with pytest.raises(ValueError, match="finite"):
            hermite_batch(3, np.array([[0.5, 1.0], [-math.inf, 2.0]]))

    @pytest.mark.parametrize("m, x, error", [
        (2, 1e200, r"^K_2\(x\) overflows float64 at x = 1e\+200$"),
        (3, np.array([[0.5, 1.0], [2.0, 1e120]]),
         r"^K_3\(x\) overflows float64 at x = 1e\+120 at entry 1, 1$"),
        (3, -1e200, r"^K_2\(x\) overflows float64 at x = -1e\+200$"),
        # K_45(1e8) is about 8.4e303, and K_46(1e8) about 1e310.
        (60, 1e8, r"^K_46\(x\) overflows float64 at x = 100000000\.0$"),
        # K_54(1e7) is about 4.3e306 though 1e7 * K_53(1e7) overflows.
        (60, 1e7, r"^K_55\(x\) overflows float64 at x = 10000000\.0$"),
        # The lowest degree first, then the first entry in row order.
        (3, np.array([[0.5, 1e120], [1e200, 2.0]]),
         r"^K_2\(x\) overflows float64 at x = 1e\+200 at entry 1, 0$"),
    ], ids=["scalar", "entry", "negative", "high_degree", "product_overflow",
            "lowest_degree_first"])
    def test_refuses_an_overflow_naming_degree_and_entry(self, m, x, error):
        with pytest.raises(ValueError, match=error):
            hermite_batch(m, x)

    def test_a_degree_that_fits_where_the_product_overflows(self):
        # 1e7 * K_53(1e7) overflows float64, K_54(1e7) does not; the other
        # entry takes the plain recurrence, bit for bit.
        x = Fraction(10**7)
        exact = [Fraction(1), x]
        for m in range(1, 54):
            exact.append((x * exact[m] - exact[m - 1]) / (m + 1))
        table = hermite_batch(54, np.array([1e7, 2.5]))
        assert float(exact[54]) == pytest.approx(4.3319e306, rel=1e-4)
        assert table[54, 0] == pytest.approx(float(exact[54]), rel=1e-12)
        assert np.array_equal(table[:, 1], hermite_batch(54, 2.5))

    def test_rejects_above_degree_cap(self):
        hermite_batch(MAX_DEGREE, 0.5)
        with pytest.raises(ValueError):
            hermite_batch(MAX_DEGREE + 1, 0.5)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            hermite_batch(-1, 0.5)


class TestCharlier:
    def test_degree_one(self):
        assert list(charlier_batch(1, 5, 2.0)) == [1.0, 3.0]

    def test_degree_two_cases(self):
        np.testing.assert_allclose(charlier_batch(2, 3, 1.0), [1, 2, 1], rtol=1e-15)
        np.testing.assert_allclose(charlier_batch(2, 2, 1.0), [1, 1, -1], rtol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(x=st.integers(0, 40), t=st.floats(min_value=0, max_value=5,
                                             allow_nan=False), m=st.integers(0, 8))
    def test_matches_falling_factorial_oracle(self, x, t, m):
        got = charlier_batch(m, x, t)[m]
        want = charlier_sum_oracle(m, float(x), t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=0, max_value=40, allow_nan=False),
           t=st.floats(min_value=0, max_value=5, allow_nan=False),
           m=st.integers(1, 10))
    def test_recurrence_identity(self, x, t, m):
        table = charlier_batch(m + 1, x, t)
        want = (x - m - t) * table[m] - m * t * table[m - 1]
        assert table[m + 1] == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("t", [0.05, 0.12, 1.0])
    def test_orthogonality_poisson_summation(self, t):
        # sum_x C_m C_n Pois_t(x) = delta_mn m! t^m, truncated far into the tail
        x_max = 80
        pmf = np.array([math.exp(-t) * t ** x / math.factorial(x)
                        for x in range(x_max + 1)])
        tables = charlier_batch(6, np.arange(x_max + 1), t).T
        for m in range(7):
            for n in range(7):
                got = float(np.dot(pmf, tables[:, m] * tables[:, n]))
                want = math.factorial(m) * t ** m if m == n else 0.0
                scale = max(abs(want), 1.0)
                assert abs(got - want) <= 1e-8 * scale

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            charlier_batch(3, 1, -0.1)

    @pytest.mark.parametrize("t", [True, np.True_, "1.0", None, 1j])
    def test_rejects_t_that_is_not_real(self, t):
        # True would otherwise pass as t = 1.
        with pytest.raises(TypeError, match="t must be a real number"):
            charlier_batch(2, 3, t)

    @pytest.mark.parametrize("t", [10**400, -10**400, math.inf, math.nan, -1])
    def test_rejects_t_that_is_not_finite_and_nonnegative(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            charlier_batch(2, 3, t)

    @pytest.mark.parametrize("t", [0, 0.0, np.int64(0), np.float32(0.5), 2])
    def test_accepts_real_t_from_zero(self, t):
        # C_1(3, t) = 3 - t and C_2(3, t) = (2 - t)(3 - t) - t.
        x = float(t)
        assert list(charlier_batch(2, 3, t)) == [1.0, 3.0 - x, (2.0 - x) * (3.0 - x) - x]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            charlier_batch(3, math.nan, 1.0)
        with pytest.raises(ValueError, match="finite"):
            charlier_batch(3, np.array([0.0, math.inf]), 1.0)

    @pytest.mark.parametrize("m, x, error", [
        (3, 1e200, r"^C_2\(x\) overflows float64 at x = 1e\+200$"),
        (4, np.array([3.0, 2e80]), r"^C_4\(x\) overflows float64 at x = 2e\+80 at entry 1$"),
        (3, -1e200, r"^C_2\(x\) overflows float64 at x = -1e\+200$"),
        # C_m(x, 1) is about x**m: 1e308 at m = 44, 1e315 at m = 45.
        (60, 1e7, r"^C_45\(x\) overflows float64 at x = 10000000\.0$"),
        (3, np.array([[0.5, 1e120], [1e200, 2.0]]),
         r"^C_2\(x\) overflows float64 at x = 1e\+200 at entry 1, 0$"),
    ], ids=["scalar", "entry", "negative", "high_degree", "lowest_degree_first"])
    def test_refuses_an_overflow_naming_degree_and_entry(self, m, x, error):
        with pytest.raises(ValueError, match=error):
            charlier_batch(m, x, 1.0)

    def test_rejects_above_degree_cap(self):
        charlier_batch(MAX_DEGREE, 2, 0.5)
        with pytest.raises(ValueError):
            charlier_batch(MAX_DEGREE + 1, 2, 0.5)


class TestTables:
    def test_leading_entry_is_one(self):
        assert hermite_batch(0, 1.23)[0] == 1.0
        assert charlier_batch(0, 3, 0.7)[0] == 1.0

    def test_shape_is_degrees_then_x(self):
        assert hermite_batch(4, 0.5).shape == (5,)
        assert charlier_batch(4, 2, 0.5).shape == (5,)
        x = np.zeros((2, 3))
        assert hermite_batch(4, x).shape == (5, 2, 3)
        assert charlier_batch(4, x, 0.5).shape == (5, 2, 3)
