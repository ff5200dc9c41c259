"""Special-function kernel tests.

Oracles: exact factorials, integer recurrences, closed antiderivatives and
scipy's independent implementations.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special as sp

from expunbias.errors import DomainError, RangeError
from expunbias.special import (_stirling_remainder, gamma_ratio, log_gamma,
                              lower_incomplete_gamma_int)


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_factorial_oracle(self):
        # Gamma(k) = (k-1)! exactly, for every k where the factorial is exact
        for k in range(2, 171):
            expected = math.lgamma(k)  # cross-library
            exact = math.log(math.factorial(k - 1)) if k <= 30 else expected
            assert log_gamma(float(k)) == pytest.approx(exact, rel=1e-13)

    def test_spec_point_ten(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    @pytest.mark.parametrize("x", np.geomspace(0.5, 100.0, 41).tolist())
    def test_recurrence(self, x):
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_against_scipy_wide_range(self):
        xs = np.geomspace(1e-3, 1e6, 400)
        mine = log_gamma(xs)
        ref = sp.gammaln(xs)
        err = np.abs(mine - ref) / np.maximum(np.abs(ref), 1.0)
        assert float(np.max(err)) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    # ints and floats take a scalar path that skips numpy's 0-d arrays
    _SCALARS = [1, 7, 171, 0.5, 1e-300, 3.7, 10.0, 1e6, 2.5e300, np.float64(12.5)]

    @pytest.mark.parametrize("x", _SCALARS)
    def test_scalar_path_matches_array_path(self, x):
        got = log_gamma(x)
        assert type(got) is float
        assert got.hex() == float(log_gamma(np.array([x], dtype=float))[0]).hex()
        assert got.hex() == log_gamma(np.asarray(float(x))).hex()

    @pytest.mark.parametrize("bad", [0, -3, 0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_scalar_domain_errors_match_array_path(self, bad):
        with pytest.raises(DomainError) as scalar:
            log_gamma(bad)
        with pytest.raises(DomainError) as array:
            log_gamma(np.array([bad], dtype=float))
        assert str(scalar.value) == str(array.value)


class TestStirlingRemainder:
    @pytest.mark.parametrize("x", [10, 11, 200, 20_000, 10.0, 10.5, 1e3 + 0.25, 1e8, 1e150,
                                   math.inf, np.float64(37.5)])
    def test_scalar_series_matches_array_path(self, x):
        got = _stirling_remainder(x)
        assert type(got) is float
        assert got.hex() == float(_stirling_remainder(np.array([x], dtype=float))[0]).hex()

    @pytest.mark.parametrize("x", [0.5, 1, 9.999, 3.0])
    def test_below_ten_is_the_array_path(self, x):
        assert float(_stirling_remainder(x)) == float(_stirling_remainder(np.array([x]))[0])

    def test_matches_log_gamma(self):
        for x in (0.5, 3.0, 10.0, 57.25):
            stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi)
            assert _stirling_remainder(x) == pytest.approx(log_gamma(x) - stirling,
                                                           rel=1e-9, abs=1e-12)


class TestGammaRatio:
    @pytest.mark.parametrize("a,b,expected", [(5.0, 4.0, 4.0), (1.0, 1.0, 1.0)])
    def test_trivial(self, a, b, expected):
        assert gamma_ratio(a, b) == pytest.approx(expected, rel=1e-13)

    def test_integer_recurrence_oracle(self):
        # Gamma(30)/Gamma(28) = 29 * 28
        assert gamma_ratio(30.0, 28.0) == pytest.approx(812.0, rel=1e-12)

    def test_no_intermediate_overflow(self):
        # Gamma(1e6)/Gamma(1e6 - 2) = (1e6 - 1)(1e6 - 2); both gammas overflow
        got = gamma_ratio(1e6, 1e6 - 2.0)
        assert got == pytest.approx((1e6 - 1.0) * (1e6 - 2.0), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ratio(-1.0, 2.0)
        with pytest.raises(DomainError):
            gamma_ratio(2.0, 0.0)


class TestLowerIncompleteGamma:
    @pytest.mark.parametrize("x", [-5.0, -0.3, 1e-12, 0.2, 1.0, 7.0, 50.0])
    def test_order_one_closed_form(self, x):
        # gamma(1, x) = 1 - e^{-x}, i.e. -expm1(-x)
        assert lower_incomplete_gamma_int(1, x) == pytest.approx(
            -math.expm1(-x), rel=1e-13)

    def test_quadrature_oracle_2_1(self):
        # integral_0^1 t e^{-t} dt = 1 - 2/e, frozen from direct quadrature
        assert lower_incomplete_gamma_int(2, 1.0) == pytest.approx(
            0.26424111765711533, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_zero_argument(self, n):
        assert lower_incomplete_gamma_int(n, 0.0) == 0.0

    @pytest.mark.parametrize("n", list(range(1, 41, 3)))
    @pytest.mark.parametrize("x", [0.1, 0.7, 3.0, 11.0, 50.0])
    def test_recurrence(self, n, x):
        # gamma(n+1, x) = n gamma(n, x) - x^n e^{-x}
        lhs = lower_incomplete_gamma_int(n + 1, x)
        rhs = n * lower_incomplete_gamma_int(n, x) - x ** n * math.exp(-x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 5, 12, 20])
    def test_saturates_to_gamma(self, n):
        got = lower_incomplete_gamma_int(n, 700.0)
        assert got == pytest.approx(math.factorial(n - 1), rel=1e-12)

    def test_negative_argument_antiderivative_oracle(self):
        # integral_0^{-1} t e^{-t} dt = 1 (from -(t+1)e^{-t})
        assert lower_incomplete_gamma_int(2, -1.0) == pytest.approx(1.0, rel=1e-12)
        # integral_0^{-2} t^2 e^{-t} dt = 2 - 2 e^2 (from -(t^2+2t+2)e^{-t})
        assert lower_incomplete_gamma_int(3, -2.0) == pytest.approx(
            2.0 - 2.0 * math.e ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 15])
    @pytest.mark.parametrize("x", [-20.0, -3.0, -0.5, 0.4, 2.5, 30.0])
    def test_against_independent_oracles(self, n, x):
        # scipy's regularized gammainc covers x >= 0; for negative x use
        # direct 40-digit quadrature of the defining integral
        if x >= 0:
            ref = sp.gammainc(n, x) * math.gamma(n)
        else:
            import mpmath as mp
            with mp.workdps(40):
                ref = float(mp.quad(lambda t: t ** (n - 1) * mp.exp(-t), [0, x]))
        assert lower_incomplete_gamma_int(n, x) == pytest.approx(ref, rel=1e-10)

    def test_small_x_large_n_keeps_precision(self):
        # the naive closed sum returns 0.0 here; the series branch must not
        got = lower_incomplete_gamma_int(40, 0.1)
        ref = 0.1 ** 40 * math.exp(-0.1) / 40.0  # leading series term
        assert got == pytest.approx(ref, rel=1e-2)
        assert got > 0.0

    def test_array_input(self):
        xs = np.array([0.5, 1.0, 2.0])
        out = lower_incomplete_gamma_int(3, xs)
        assert out.shape == xs.shape
        for xi, oi in zip(xs, out):
            assert oi == pytest.approx(lower_incomplete_gamma_int(3, float(xi)))

    def test_range_errors(self):
        with pytest.raises(RangeError):
            lower_incomplete_gamma_int(0, 1.0)
        with pytest.raises(RangeError):
            lower_incomplete_gamma_int(2, 701.0)
        with pytest.raises(RangeError):
            lower_incomplete_gamma_int(2, -701.0)
        with pytest.raises(RangeError):
            # e^{|x|} * |S| overflows for n=3, x=-700
            lower_incomplete_gamma_int(3, -700.0)

    def test_non_integer_order_rejected(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma_int(2.5, 1.0)


class TestOverflowIsTyped:
    # (n-1)! leaves double range at n = 172 (closed-sum branch, |x| >= n);
    # x^n e^{-x} does at n = 200, x = 60 (series branch, |x| < n)
    @pytest.mark.parametrize("n,x", [(172, 206.4), (200, 60.0)])
    def test_range_error_without_warning(self, n, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                lower_incomplete_gamma_int(n, x)

    def test_just_below_the_limit_is_finite(self):
        got = lower_incomplete_gamma_int(171, 206.4)
        assert got == pytest.approx(sp.gammainc(171, 206.4) * math.gamma(171), rel=1e-10)
