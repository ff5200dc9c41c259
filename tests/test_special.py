"""Special-function kernel tests.

Oracles: exact factorials, integer recurrences and scipy's independent
implementations.
"""

import math

import numpy as np
import pytest
from scipy import special as sp

from expunbias.errors import DomainError
from expunbias.special import _log_gamma_ratio, _stirling_remainder, log_gamma


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


class TestLogGammaRatio:
    # exp of ln Gamma(b + d)/Gamma(b), the ratio the estimators' coefficients use
    @pytest.mark.parametrize("b,d,expected", [(4.0, 1.0, 4.0), (1.0, 0.0, 1.0)])
    def test_trivial(self, b, d, expected):
        assert math.exp(_log_gamma_ratio(b, d)) == pytest.approx(expected, rel=1e-13)

    def test_integer_recurrence_oracle(self):
        # Gamma(30)/Gamma(28) = 29 * 28
        assert math.exp(_log_gamma_ratio(28.0, 2.0)) == pytest.approx(812.0, rel=1e-12)

    def test_no_intermediate_overflow(self):
        # Gamma(1e6)/Gamma(1e6 - 2) = (1e6 - 1)(1e6 - 2); both gammas overflow
        got = math.exp(_log_gamma_ratio(1e6 - 2.0, 2.0))
        assert got == pytest.approx((1e6 - 1.0) * (1e6 - 2.0), rel=1e-8)
