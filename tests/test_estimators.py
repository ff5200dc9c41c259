"""Closed-form estimator catalogue tests.

Expected values are frozen from independent arithmetic (exact fractions,
factorials, antiderivatives); oracle-based unbiasedness lives in
test_oracle.py and the acceptance suite.
"""

import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from expunbias.errors import DomainError, RangeError, SpecError
from expunbias.estimators import (_BERNOULLI_EVEN, EstimateResult, Family, FunctionalSpec,
                                  Kind, Sample, _built_xi, _estimator, _xi_of,
                                  closed_form_variance_mle,
                                  closed_form_variance_unbiased, estimate,
                                  expected_shortfall, max_cdf_power,
                                  mean_past_lifetime, mgf, min_survival,
                                  mle_estimate, moment, pdf_at, phi_function,
                                  quantile, rate_power, survival,
                                  target_value, tate_phi_function)
from expunbias.laplace import TransferFunction
from expunbias.oracle import gamma_mean_density, tate_estimate
from expunbias.special import log_gamma


class TestSample:
    def test_basic(self):
        s = Sample([1.5, 2.5, 2.0])
        assert s.n == 3
        assert s.mean == pytest.approx(2.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Sample([1.0, 0.0])
        with pytest.raises(DomainError):
            Sample([1.0, -2.0])
        with pytest.raises(DomainError):
            Sample([])
        with pytest.raises(DomainError):
            Sample([1.0, math.inf])

    def test_mean_accumulation_accuracy(self):
        rng = np.random.default_rng(0)
        obs = rng.random(10001) + 0.5
        s = Sample(obs.tolist())
        assert s.mean == pytest.approx(math.fsum(obs) / len(obs), rel=1e-12)

    def test_mean_is_numpys_mean_bit_for_bit(self):
        rng = np.random.default_rng(30)
        for n in range(1, 301):
            for scale in (1.0, 1e300, 1e-300):
                obs = (rng.exponential(1.0, n) * scale).tolist()
                if min(obs) > 0.0:
                    assert Sample(obs).mean.hex() == float(np.mean(np.array(obs))).hex()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("obs,error,message", [
        ([], DomainError, "a sample needs at least one observation"),
        *(([1.0, bad], DomainError, "observations must be finite and strictly positive")
          for bad in (0.0, -1.0, math.nan, math.inf, -math.inf)),
        ([1.0, "x"], ValueError, "could not convert string to float: 'x'"),
        ([1e308, 1e308], RangeError, "the mean leaves double range"),
    ])
    def test_errors(self, obs, error, message):
        with pytest.raises(Exception) as info:
            Sample(obs)
        assert type(info.value) is error and str(info.value) == message


class TestXiOf:
    """Each built-in spec's xi is built once; equal specs share it."""

    def test_equal_specs_share_one_xi(self):
        a = FunctionalSpec(Kind.RATE_POWER, p=2)
        b = FunctionalSpec(Kind.RATE_POWER, p=2.0)
        assert _xi_of(a) is _xi_of(b)
        assert _xi_of(a)(1.7).hex() == (1.7 ** 2.0).hex()
        assert target_value(a, 1.7) == target_value(b, 1.7)

    def test_custom_spec_is_built_per_call_and_not_cached(self):
        spec = FunctionalSpec(Kind.CUSTOM, custom_transform=TransferFunction(
            eval_real=lambda lam: lam / (lam + 1.0)))
        before = _built_xi.cache_info()
        first, second = _xi_of(spec), _xi_of(spec)
        assert first is not second and first(1.0) == 0.5
        assert _built_xi.cache_info() == before

    def test_unhashable_parameter_is_built_per_call(self):
        spec = FunctionalSpec(Kind.MOMENT, p=np.array(2.0))
        assert _xi_of(spec) is not _xi_of(spec)
        assert target_value(spec, 1.5) == target_value(FunctionalSpec(Kind.MOMENT, p=2.0), 1.5)

    def test_a_build_that_raises_is_not_kept(self):
        spec = FunctionalSpec(Kind.MOMENT, p=200.0)  # Gamma(201) leaves double range
        misses = _built_xi.cache_info().misses
        for _ in range(2):
            with pytest.raises(RangeError, match="moment target coefficient"):
                target_value(spec, 1.0)
        assert _built_xi.cache_info().misses == misses + 2


class TestFunctionalSpec:
    def test_requires_exact_parameters(self):
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.QUANTILE)  # missing q
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.QUANTILE, q=0.5, t=1.0)  # stray t
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.SURVIVAL, t=-1.0)
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.QUANTILE, q=1.0)
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=1.0)
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.MOMENT, p=-1.0)
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=0)

    def test_rate_power_negative_integer_gate(self):
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.RATE_POWER, p=-1.0)
        spec = FunctionalSpec(Kind.RATE_POWER, p=-1.0, allow_negative_integer_p=True)
        assert spec.p == -1.0
        with pytest.raises(SpecError):
            FunctionalSpec(Kind.RATE_POWER, p=0.0)


class TestTargetValue:
    def test_quantile(self):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        assert target_value(spec, 2.0) == pytest.approx(-math.log(0.5) / 2.0, rel=1e-14)

    def test_rate_power_identity(self):
        assert target_value(FunctionalSpec(Kind.RATE_POWER, p=1.0), 2.0) == 2.0

    def test_mean_past_lifetime_value(self):
        # t/(1 - e^{-lam t}) - 1/lam at t = lam = 1, frozen by evaluation
        spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=1.0)
        assert target_value(spec, 1.0) == pytest.approx(0.5819767068693265, rel=1e-12)

    def test_mgf_domain(self):
        spec = FunctionalSpec(Kind.MGF, t=2.0)
        with pytest.raises(DomainError):
            target_value(spec, 1.0)
        assert target_value(spec, 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_mean_past_lifetime_small_rate_against_mpmath(self):
        # t/(1 - e^{-u}) - 1/lam cancels as u = lam t -> 0; scalar and array
        # paths must both keep full precision across the cutoff
        t = 0.7
        spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=t)
        lams = np.geomspace(1e-12, 50.0, 181) / t
        vec = target_value(spec, lams)
        with mp.workdps(40):
            for lam, v in zip(lams, vec):
                lm = mp.mpf(float(lam))
                ref = float(t / (1 - mp.exp(-lm * t)) - 1 / lm)
                scalar = target_value(spec, float(lam))
                assert type(scalar) is float
                assert scalar == pytest.approx(ref, rel=1e-13, abs=0.0)
                assert v == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestRatePower:
    def test_unit_case(self):
        # Gamma(2)/(2 Gamma(1)) = 1/2
        assert rate_power(1.0, 2, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_negative_integer_exponent_collapses_to_mean(self):
        # p = -1: Gamma(5) * 5 / Gamma(6) = 1, so the estimate is the mean
        assert rate_power(3.0, 5, -1.0) == pytest.approx(3.0, rel=1e-13)

    def test_indicator_p_lt_n(self):
        with pytest.raises(DomainError):
            rate_power(1.0, 10, 10.0)
        with pytest.raises(DomainError):
            rate_power(1.0, 2, 3.0)
        with pytest.raises(DomainError):
            rate_power(1.0, 5, 0.0)
        # a non-finite exponent is rejected, not carried into a nan estimate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (math.nan, -math.inf):
                with pytest.raises(SpecError):
                    rate_power(1.3, 5, p)


class TestQuantile:
    def test_unit_coefficient_level(self):
        q = 1.0 - math.exp(-1.0)
        assert quantile(3.7, q) == pytest.approx(3.7, rel=1e-13)

    def test_median(self):
        assert quantile(2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.4])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            quantile(1.0, q)


class TestMoment:
    def test_p_one_is_mean(self):
        for n in (1, 4, 25):
            assert moment(2.5, n, 1.0) == pytest.approx(2.5, rel=1e-13)

    def test_frozen_case(self):
        # Gamma(3)Gamma(2) 4 / Gamma(4) = 8/6
        assert moment(1.0, 2, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_p_zero_constant(self):
        assert moment(9.0, 7, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment(1.0, 3, -1.0)

    @pytest.mark.filterwarnings("error")
    def test_coefficient_overflow_is_range_error(self):
        # Gamma(p+1) n^p Gamma(n)/Gamma(n+p) overflowed as an OverflowError
        with pytest.raises(RangeError, match="coefficient"):
            moment(1.0, 5, 1000.0)


class TestIndicatorFamilies:
    def test_survival_n1_is_indicator(self):
        assert survival(2.0, 1, 1.0) == 1.0
        assert survival(0.5, 1, 1.0) == 0.0
        assert survival(1.0, 1, 1.0) == 1.0  # boundary uses >=

    def test_survival_frozen(self):
        assert survival(1.0, 10, 1.0) == pytest.approx(0.387420489, rel=1e-12)

    def test_survival_dead_zone(self):
        assert survival(0.05, 10, 1.0) == 0.0

    def test_max_cdf_power_frozen(self):
        # 1 - 2*0.9^9 + 0.8^9, exact decimal arithmetic
        assert max_cdf_power(1.0, 10, 1.0, 2) == pytest.approx(0.35937675, rel=1e-12)

    def test_max_cdf_power_reductions(self):
        xb, n, t = 1.3, 7, 0.9
        assert max_cdf_power(xb, n, t, 1) == pytest.approx(
            1.0 - survival(xb, n, t), rel=1e-13)
        assert max_cdf_power(0.01, 10, 1.0, 3) == 1.0  # all indicators off

    def test_min_survival(self):
        assert min_survival(1.0, 10, 1.0, 2) == pytest.approx(0.134217728, rel=1e-12)
        xb, n, t = 0.8, 5, 0.6
        assert min_survival(xb, n, t, 1) == pytest.approx(survival(xb, n, t), rel=1e-14)
        assert min_survival(0.1, 10, 1.0, 2) == 0.0

    def test_pdf(self):
        assert pdf_at(1.0, 2, 0.5) == pytest.approx(0.5, rel=1e-13)  # 1/(2 mean)
        assert pdf_at(1.0, 10, 1.0) == pytest.approx(0.9 ** 9, rel=1e-12)
        assert pdf_at(0.05, 10, 1.0) == 0.0
        with pytest.raises(DomainError):
            pdf_at(1.0, 1, 1.0)

    @pytest.mark.parametrize("n", [2, 5, 30])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_bounds_on_grid(self, n, t):
        xs = np.linspace(0.01, 6.0, 500)
        s = survival(xs, n, t)
        assert np.all((s >= 0.0) & (s <= 1.0))
        for m in (1, 2, 3):
            mn = min_survival(xs, n, t, m)
            assert np.all((mn >= 0.0) & (mn <= 1.0))
            mx = max_cdf_power(xs, n, t, m)
            assert np.all(mx <= 1.0 + 1e-12)
            if m <= 2:
                # 1 - 2b1 + b2 >= (1 - b1)^2 >= 0 since b2 <= b1^2
                assert np.all(mx >= -1e-12)
            else:
                # unbiased estimators of bounded targets may leave the
                # bounds: at n=2, m=3, mean ~ t the estimate hits -1/2.
                # Flag where it happens instead of asserting the bound.
                violations = xs[mx < -1e-12]
                if violations.size:
                    assert n == 2
                    assert np.all((violations > t / 2) & (violations < 3 * t / 2))

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_continuity_at_boundary(self, n):
        t = 1.0
        a = t / n
        eps = 1e-9
        assert survival(a + eps, n, t) < 1e-7
        assert survival(a - eps, n, t) == 0.0
        assert min_survival(2 * a + eps, n, t, 2) < 1e-7
        if n >= 3:
            # the density estimator is continuous at the kink only for n >= 3
            # (its exponent n-2 vanishes at n = 2, leaving a genuine jump)
            assert pdf_at(a + eps, n, t) < 1e-6


@pytest.mark.parametrize("call,expected", [
    (lambda: mean_past_lifetime(np.array([0.5, 1.0]), 1, 0.5), [0.5, 0.5]),
    (lambda: mean_past_lifetime(0.25, 2, 0.5), 0.25),
    (lambda: pdf_at(np.array([0.25, 0.1]), 2, 0.5), [2.0, 0.0]),
    (lambda: survival(0.5, 1, 0.5), 1.0),
    (lambda: max_cdf_power(0.5, 2, 0.5, 2), 0.0),
    # the 1959 max-CDF power has exponent n - 2 = 0 at n = 2
    (lambda: tate_estimate(FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2), 0.5, 2).value, 0.0),
    (lambda: tate_estimate(FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2), 0.25, 2).value, -1.0),
], ids=["mpl-n1", "mpl-n2", "pdf-n2", "survival-n1", "max-cdf-n2", "tate-n2-top", "tate-n2-mid"])
def test_exact_kinks_with_exponent_zero(call, expected):
    # a mean on a kink a, where the indicator power is 1{x >= a} (1 - a/x)^e:
    # exponent 0 leaves the bare indicator, exponent > 0 a zero, and no
    # division by zero or 0 * inf on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(call(), expected)


def _mean_past_lifetime_reference(x, n, t):
    """The mean-past-lifetime estimator at the double mean x, in 40-digit
    mpmath.

    The defining sum term by term, the indicator x >= tk/n in double as
    stated, wherever it has at most about 3000 terms.  Past that (n >= 2 and
    x/t > 30) the terminating Euler-Maclaurin form, with mpmath's own
    Bernoulli numbers and polynomials; on the grids below, which reach the
    sum at every n up to x/t = 30, the estimator matches both."""
    with mp.workdps(40):
        xm, tm = mp.mpf(x), mp.mpf(t)
        if n == 1 or min(n, 100) * x / t <= 3000:
            total = mp.mpf(0)
            k = 0
            while x >= t * k / n:
                term = (1 - tm * k / (n * xm)) ** (n - 1)
                total += term
                if n > 1 and term < mp.mpf(10) ** -38 * total:
                    break
                k += 1
            return float(tm * total - xm)

        def em(z):
            c = tm / (n * z)
            ratio = 1 / c
            bracket = mp.mpf(0.5)
            for j in range(1, n // 2 + 1):
                term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.ff(n - 1, 2 * j - 1) * c ** (2 * j - 1)
                bracket += term
                if abs(term) < mp.mpf(10) ** -45:
                    break
            if n <= 40:  # past it, at x/t > 30, below 1e-60 of the value
                bracket -= c ** (n - 1) * mp.bernpoly(n, ratio - mp.floor(ratio)) / n
            return tm * bracket
        return float(em(xm))


class TestMeanPastLifetime:
    def test_small_mean_leaves_only_constant_term(self):
        # mean < t/n: only k = 0 survives, value is t - mean
        assert mean_past_lifetime(0.05, 10, 1.0) == pytest.approx(0.95, rel=1e-13)

    def test_n1_step_sum(self):
        # n = 1, t = 1, mean = 2.5: K = 2, three unit terms
        assert mean_past_lifetime(2.5, 1, 1.0) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,mean", [(1, 1.0), (5, np.array([1.0, 2.0]))])
    def test_term_count_is_bounded(self, n, mean):
        # At t = 1e-45 the sum has about n mean/t = 1e45 terms.  At n = 1 the
        # value t(1 + K) - mean is pure rounding there: RangeError.  At n = 5
        # it is a number, checked against the exact power sums
        # sum_{k<=m} (N - k)^4 = sum_i C(4, i) N^(4-i) (-1)^i sum_{k<=m} k^i,
        # N = 5 mean/t, m = floor(N) (Faulhaber), in 250-digit mpmath.  The
        # kinks tk/n stay capped, since the oracle lists them.
        t = 1e-45
        if n == 1:
            with pytest.raises(RangeError, match="indicator terms"):
                mean_past_lifetime(mean, n, t)
        else:
            with mp.workdps(250):
                for x, got in zip(mean, mean_past_lifetime(mean, n, t)):
                    big_n = n * mp.mpf(float(x)) / mp.mpf(t)
                    m = mp.floor(big_n)
                    power_sums = [m + 1, m * (m + 1) / 2, m * (m + 1) * (2 * m + 1) / 6,
                                  (m * (m + 1) / 2) ** 2,
                                  m * (m + 1) * (2 * m + 1) * (3 * m ** 2 + 3 * m - 1) / 30]
                    total = sum(math.comb(4, i) * big_n ** (4 - i) * (-1) ** i * power_sums[i]
                                for i in range(5)) / big_n ** 4
                    ref = mp.mpf(t) * total - mp.mpf(float(x))
                    assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)
        with pytest.raises(RangeError, match="indicator terms"):
            _estimator(FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=1e-9), n).kinks(1.0)

    def test_truncation_is_exact(self):
        # adding terms beyond K = floor(n mean / t) changes nothing
        n, t, xb = 6, 0.7, 1.37
        base = mean_past_lifetime(xb, n, t)
        k_hi = int(math.floor(n * xb / t)) + 25
        manual = t * sum(
            (1.0 - t * k / (n * xb)) ** (n - 1)
            for k in range(k_hi + 1) if xb >= t * k / n
        ) - xb
        assert base == pytest.approx(manual, rel=1e-13)

    _GRID_N = [1, 2, 3, 4, 7, 13, 30, 200, 2000, 20000]

    @staticmethod
    def _check(x, n, t, got):
        # the value within 1e-14 (at n = 1 within the rounding of t(1 + K) - x,
        # about K ulps of t)
        value = _mean_past_lifetime_reference(x, n, t)
        floor = 2.0 ** -52 * (t * (1.0 + n * x / t) + x) if n == 1 else 0.0
        assert got == pytest.approx(value, rel=1e-14, abs=floor), (x, n, t)

    @pytest.mark.parametrize("n", sorted({*_GRID_N, 5, 1000}))
    @pytest.mark.parametrize("t", [0.05, 0.5, 3.0])
    def test_accuracy_against_mpmath(self, n, t):
        # below the first kink, between kinks, around the mean and far in the
        # tail of the sample-mean law
        xs = np.array([0.37 * t / n, 2.5 * t / n, 0.4137, 0.9713, 1.7319, 4.3211, 12.577])
        for x, g in zip(xs, mean_past_lifetime(xs, n, t)):
            self._check(float(x), n, t, g)

    @pytest.mark.parametrize("n", _GRID_N)
    def test_value_on_the_ratio_grid(self, n):
        # mean/t across the switch between the sum (below 1) and the
        # Euler-Maclaurin form (from 1 on), one ulp either side of it included
        t = 0.7
        xs = np.array([0.3 * t, 0.77 * t, np.nextafter(t, 0.0), np.nextafter(t, 1.0), 1.3 * t,
                       3.0 * t, 10.0 * t, 100.0 * t, 1000.0 * t])
        for x, g in zip(xs, mean_past_lifetime(xs, n, t)):
            self._check(float(x), n, t, g)

    @pytest.mark.parametrize("n", [1, 2])
    def test_means_on_kinks(self, n):
        # each kink tk/n as the indicator rounds it and its two neighbours; at
        # t = 0.7, floor(mean/t) is one under the count on the kink k = 3 and
        # one over it just below k = 5
        t = 0.7
        for k in (1, 2, 3, 5, 10, 49):
            kink = k * t / n
            xs = np.array([np.nextafter(kink, 0.0), kink, np.nextafter(kink, 2.0 * kink)])
            for x, g in zip(xs, mean_past_lifetime(xs, n, t)):
                self._check(float(x), n, t, g)
        assert math.floor(3 * t / t) == 2 and math.floor(np.nextafter(5 * t, 0.0) / t) == 5

    def test_bernoulli_table(self):
        assert [tuple(mp.bernfrac(2 * j)) for j in range(1, 13)] == list(_BERNOULLI_EVEN)

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_array_matches_scalar_in_input_order_and_shape(self, n):
        t = 0.3
        xs = np.random.default_rng(4).gamma(n, 1.0 / n, 24) + 1e-3
        grid = xs.reshape(4, 6)
        got = mean_past_lifetime(grid, n, t)
        assert got.shape == (4, 6)
        scalars = np.array([mean_past_lifetime(float(x), n, t) for x in xs])
        assert all(type(mean_past_lifetime(float(x), n, t)) is float for x in xs[:3])
        np.testing.assert_array_equal(got.reshape(-1), scalars)
        flipped = mean_past_lifetime(xs[::-1], n, t)
        np.testing.assert_array_equal(flipped, scalars[::-1])

    def test_empty_input(self):
        assert mean_past_lifetime(np.array([]), 5, 0.5).shape == (0,)

    def test_memory_is_linear_in_points(self):
        # a points x floor(n max/t) matrix would need tens of GiB here
        x = np.random.default_rng(0).permutation(np.linspace(1e-3, 1.3, 200_000))
        tracemalloc.start()
        try:
            out = mean_past_lifetime(x, 1000, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * x.nbytes
        assert np.all(np.isfinite(out))


class TestMgf:
    def test_zero_t(self):
        assert mgf(1.7, 5, 0.0) == 1.0

    @pytest.mark.parametrize("t", [-0.7, -0.2, 0.3, 0.9])
    def test_n1_collapses_to_exp(self, t):
        # gamma(1, u) = 1 - e^{-u} collapses the estimator to e^{t mean}
        assert mgf(1.3, 1, t) == pytest.approx(math.exp(t * 1.3), rel=1e-12)

    def test_frozen_n2(self):
        # (e^w - 1 - w)/w + 1 at w = 0.2
        assert mgf(1.0, 2, 0.1) == pytest.approx(1.1070137908008495, rel=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(RangeError):
            mgf(10.0, 50, 2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 30, 2000])
    @pytest.mark.parametrize("u", [None, 1e9, 3e11, 1e20, 1e300])
    def test_negative_tail_value(self, n, u):
        # past w = -max(1000, 2n) the terminating series of DLMF 13.7.2;
        # scipy's hyp1f1(1, 30, w) is nan at w = -3e11, so mgf(1e10, 30, -1)
        # was a RangeError
        u = max(1000.0, 2.0 * n) if u is None else u
        mean = u / n
        with mp.workdps(50):
            ref = mp.hyp1f1(1, n, -mp.mpf(u))
        assert mgf(mean, n, -1.0) == pytest.approx(float(ref), rel=4e-16)


def _kummer(n, w):
    # the MGF estimator at n is M(1, n, w), w = n t mean: reach w with t = +-1
    return mgf(abs(w) / n, n, math.copysign(1.0, w))


class TestMgfAsKummer:
    """M(1, n, w) = 1 + e^w gamma(n, w) / w^(n-1) (DLMF 8.5.1) with the lower
    incomplete gamma function gamma(n, w) = int_0^w s^(n-1) e^(-s) ds; oracles
    are closed antiderivatives, the incomplete-gamma recurrence and direct
    quadrature of that integral."""

    @pytest.mark.parametrize("w", [-5.0, -0.3, 1e-12, 0.2, 1.0, 7.0, 50.0])
    def test_n2_closed_form(self, w):
        # gamma(2, w) = 1 - (1 + w) e^{-w}, so M(1, 2, w) = expm1(w)/w
        assert _kummer(2, w) == pytest.approx(math.expm1(w) / w, rel=1e-13)

    def test_quadrature_oracle_3_1(self):
        # gamma(3, 1) = 2 - 5/e, so M(1, 3, 1) = 2e - 4
        assert _kummer(3, 1.0) == pytest.approx(2.0 * math.e - 4.0, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_zero_argument(self, n):
        # w = 0 at t = 0 for every mean, scalar or array
        assert mgf(1.7, n, 0.0) == 1.0
        assert np.array_equal(mgf(np.array([0.3, 1.7, 40.0]), n, 0.0), np.ones(3))

    @pytest.mark.parametrize("n", list(range(1, 41, 3)))
    @pytest.mark.parametrize("w", [0.1, 0.7, 3.0, 11.0, 50.0])
    def test_recurrence(self, n, w):
        # gamma(n+1, w) = n gamma(n, w) - w^n e^{-w} is
        # M(1, n, w) = 1 + w M(1, n+1, w)/n across sample sizes at one w
        assert _kummer(n, w) == pytest.approx(1.0 + w * _kummer(n + 1, w) / n, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 5, 12, 20])
    def test_saturates_to_gamma(self, n):
        # gamma(n, 700) = (n-1)! to double precision
        got = (_kummer(n, 700.0) - 1.0) * math.exp((n - 1) * math.log(700.0) - 700.0)
        assert got == pytest.approx(math.factorial(n - 1), rel=1e-12)

    def test_negative_argument_antiderivative_oracle(self):
        # gamma(3, -2) = 2 - 2 e^2 (from -(s^2+2s+2)e^{-s}): M = 1/2 + e^{-2}/2
        assert _kummer(3, -2.0) == pytest.approx(0.5 + 0.5 * math.exp(-2.0), rel=1e-12)
        # gamma(4, -1) = 6 - 2e (from -(s^3+3s^2+6s+6)e^{-s}): M = 3 - 6/e
        assert _kummer(4, -1.0) == pytest.approx(3.0 - 6.0 / math.e, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 15])
    @pytest.mark.parametrize("w", [-20.0, -3.0, -0.5, 0.4, 2.5, 30.0])
    def test_against_quadrature(self, n, w):
        with mp.workdps(40):
            wm = mp.mpf(w)
            ref = 1 + mp.exp(wm) * mp.quad(lambda s: s ** (n - 1) * mp.exp(-s), [0, wm]) \
                / wm ** (n - 1)
        assert _kummer(n, w) == pytest.approx(float(ref), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,w,ref", [(2, 700.0, 1.448902935335720727793e301),
                                         (200, 1265.0, 4.595827030582116306593e304)])
    def test_just_below_double_range_is_finite(self, n, w, ref):
        # reference values from mpmath's hyp1f1 at 40 digits
        assert _kummer(n, w) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,w", [(2, 720.0), (200, 1500.0)])
    def test_past_double_range_is_range_error(self, n, w):
        # M(1, 2, 720) = 6.8e309 and M(1, 200, 1500) = 9.9e391, both below
        # the cut where the estimator stops calling scipy
        with pytest.raises(RangeError, match="mgf estimate at n=.* leaves double range"):
            _kummer(n, w)


class TestExpectedShortfall:
    def test_unit_level(self):
        p = 1.0 - math.exp(-1.0)
        assert expected_shortfall(1.5, p) == pytest.approx(3.0, rel=1e-13)

    def test_frozen(self):
        assert expected_shortfall(1.0, 0.95) == pytest.approx(
            1.0 + math.log(20.0), rel=1e-13)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            expected_shortfall(1.0, p)


class TestScaleEquivariance:
    @pytest.mark.parametrize("c", [0.25, 1.0, 8.0])
    def test_scaling(self, c):
        xb = 1.7
        assert quantile(c * xb, 0.3) == pytest.approx(c * quantile(xb, 0.3), rel=1e-13)
        assert expected_shortfall(c * xb, 0.3) == pytest.approx(
            c * expected_shortfall(xb, 0.3), rel=1e-13)
        assert moment(c * xb, 5, 1.0) == pytest.approx(c * moment(xb, 5, 1.0), rel=1e-13)


class TestDispatch:
    def test_estimate_quantile(self):
        sample = Sample([1.5, 2.5, 2.0])
        res = estimate(FunctionalSpec(Kind.QUANTILE, q=0.5), sample)
        assert isinstance(res, EstimateResult)
        assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-13)
        assert res.estimator_family is Family.CLOSED_FORM_UNBIASED
        assert res.n == 3

    def test_estimate_moment_p1_is_mean(self):
        sample = Sample([0.5, 1.5])
        res = estimate(FunctionalSpec(Kind.MOMENT, p=1.0), sample)
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_estimate_rate_power_needs_p_lt_n(self):
        sample = Sample([1.0, 2.0])
        with pytest.raises(DomainError):
            estimate(FunctionalSpec(Kind.RATE_POWER, p=3.0), sample)

    def test_estimate_custom_has_no_closed_form(self):
        class FakeTransform:
            eval_real = staticmethod(lambda lam: lam)
        spec = FunctionalSpec(Kind.CUSTOM, custom_transform=FakeTransform())
        with pytest.raises(SpecError):
            estimate(spec, Sample([1.0]))

    def test_mle_rate(self):
        res = mle_estimate(FunctionalSpec(Kind.RATE_POWER, p=1.0), Sample([2.0, 2.0]))
        assert res.value == pytest.approx(0.5, rel=1e-14)
        assert res.estimator_family is Family.MLE_PLUGIN

    def test_mle_moment_is_sample_average(self):
        res = mle_estimate(FunctionalSpec(Kind.MOMENT, p=2.0), Sample([1.0, 3.0]))
        assert res.value == pytest.approx(5.0, rel=1e-14)

    def test_mle_moment_plugin_variant(self):
        res = mle_estimate(FunctionalSpec(Kind.MOMENT, p=2.0), Sample([1.0, 3.0]),
                           moment_plugin=True)
        # Gamma(3) * mean^2 = 2 * 4
        assert res.value == pytest.approx(8.0, rel=1e-13)

    def test_mle_survival_plugin(self):
        res = mle_estimate(FunctionalSpec(Kind.SURVIVAL, t=1.0), Sample([1.0]))
        assert res.value == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_mle_mgf_needs_t_below_rate_estimate(self):
        # plug-in rate is 1/mean = 0.5; the MGF target blows up at t >= 0.5
        with pytest.raises(DomainError):
            mle_estimate(FunctionalSpec(Kind.MGF, t=0.8), Sample([2.0, 2.0]))
        ok = mle_estimate(FunctionalSpec(Kind.MGF, t=0.25), Sample([2.0, 2.0]))
        assert ok.value == pytest.approx(2.0, rel=1e-13)

    def test_phi_function_vectorizes(self):
        phi = phi_function(FunctionalSpec(Kind.SURVIVAL, t=1.0), 5)
        xs = np.array([0.1, 0.5, 1.0, 3.0])
        out = phi(xs)
        assert out.shape == xs.shape
        assert out[0] == 0.0


# every closed-form kind at the verify subcommand's default parameters, and
# mean-past-lifetime at a t that puts more of the sample-mean law below the switch
_POINTWISE_SPECS = [
    FunctionalSpec(Kind.RATE_POWER, p=0.5), FunctionalSpec(Kind.QUANTILE, q=0.5),
    FunctionalSpec(Kind.MOMENT, p=2.0), FunctionalSpec(Kind.SURVIVAL, t=0.5),
    FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2), FunctionalSpec(Kind.MIN_SURVIVAL, t=0.5, m=2),
    FunctionalSpec(Kind.PDF, t=0.5), FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.5),
    FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.05), FunctionalSpec(Kind.MGF, t=0.5),
    FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
]


class TestPointwise:
    @pytest.mark.parametrize("family", [Family.CLOSED_FORM_UNBIASED, Family.TATE_BIASED],
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("spec", _POINTWISE_SPECS,
                             ids=lambda s: f"{s.kind.value}-{s.params()}")
    def test_value_at_a_mean_depends_on_that_mean_alone(self, spec, family):
        # the kernel over a concatenation gives each part's values bit for bit,
        # for parts drawn across the direct-sum switch at t and the kinks
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 7, 30, 200, 2000):
            try:
                est = _estimator(spec, n, family)
            except (DomainError, SpecError):  # outside the family's domain
                continue
            kinks = est.kinks(10.0)
            pts = np.array([*np.geomspace(1e-3, 30.0, 61), *kinks[:10],
                            *kinks[::max(1, len(kinks) // 30)], spec.t or 1.0])
            x = np.concatenate([np.nextafter(pts, 0.0), pts, np.nextafter(pts, np.inf)])
            with np.errstate(all="ignore"):
                whole = est.value(x)
                for order in (np.argsort(x), rng.permutation(x.size)):
                    parts = np.array_split(order, 7)
                    got = np.empty_like(whole)
                    for part in parts:
                        got[part] = est.value(x[part])
                    assert got.tobytes() == whole.tobytes(), (spec, family, n)


class TestVarianceFormulas:
    def test_p1_both_equal_mean_variance(self):
        for n in (2, 7, 30):
            for lam in (0.5, 1.0, 2.0):
                expected = 1.0 / (n * lam * lam)
                assert closed_form_variance_unbiased(1.0, n, lam) == pytest.approx(
                    expected, rel=1e-12)
                assert closed_form_variance_mle(1.0, n, lam) == pytest.approx(
                    expected, rel=1e-12)

    def test_frozen_p2_n5(self):
        # 4*(Gamma(5)Gamma(9)/Gamma^2(7) - 1) = 52/15 and 4*(24/20 - 1/5) = 4
        assert closed_form_variance_unbiased(2.0, 5, 1.0) == pytest.approx(
            52.0 / 15.0, rel=1e-12)
        assert closed_form_variance_mle(2.0, 5, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_mle_equals_var_xp_over_n(self):
        # (1/n)(Gamma(2p+1) - Gamma^2(p+1))/lam^{2p} by direct arithmetic
        p, n, lam = 0.5, 10, 2.0
        direct = (math.gamma(2.0) - math.gamma(1.5) ** 2) / (n * lam)
        assert closed_form_variance_mle(p, n, lam) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("p", [-0.4, -0.25, 0.5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    def test_dominance(self, p, n):
        vu = closed_form_variance_unbiased(p, n, 1.0)
        vm = closed_form_variance_mle(p, n, 1.0)
        assert vu > 0.0
        assert vu < vm

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30, 200, 1000, 10_000, 100_000])
    def test_unbiased_against_mpmath(self, n):
        # the bracket Gamma(n)Gamma(n+2p)/Gamma(n+p)^2 - 1 is about p^2/n;
        # it must not lose the digits that its p ln n parts would cancel
        with mp.workdps(60):
            for p in (-0.45, -0.2, 0.01, 0.1, 0.5, 1.5, 2.0, 3.7, 12.0):
                if p <= -n / 2.0:
                    continue
                pm = mp.mpf(p)
                bracket = mp.expm1(mp.loggamma(n) + mp.loggamma(n + 2 * pm)
                                   - 2 * mp.loggamma(n + pm))
                for lam in (0.37, 1.0, 2.5):
                    ref = mp.gamma(pm + 1) ** 2 / mp.mpf(lam) ** (2 * pm) * bracket
                    assert closed_form_variance_unbiased(p, n, lam) == pytest.approx(
                        float(ref), rel=1e-12, abs=0.0)

    def test_domains(self):
        with pytest.raises(DomainError):
            closed_form_variance_mle(-0.5, 5, 1.0)
        with pytest.raises(DomainError):
            closed_form_variance_unbiased(-1.0, 2, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variance", [closed_form_variance_unbiased,
                                          closed_form_variance_mle])
    @pytest.mark.parametrize("p,lam", [(400.0, 1000.0), (60.0, 0.001)])
    def test_overflow_is_range_error(self, variance, p, lam):
        # Gamma(p+1)^2 or lambda^-2p overflowed as an untyped OverflowError
        with pytest.raises(RangeError):
            variance(p, 5, lam)


_LARGE_N = [1, 2, 5, 30, 200, 1000, 10_000]


class TestGammaKernelAgainstMpmath:
    # 50-digit references; the Gamma-ratio coefficients must not lose digits
    # as n grows (log-gamma differences lose about eps * n ln n)
    @pytest.mark.parametrize("n,p", [(n, p) for n in _LARGE_N for p in (-0.9, 3.7) if p < n])
    def test_rate_power(self, n, p):
        with mp.workdps(50):
            for x in (0.3, 1.7):
                ref = mp.gamma(n) / (mp.mpf(n) ** p * mp.gamma(n - mp.mpf(p))) \
                    * mp.mpf(x) ** -mp.mpf(p)
                assert rate_power(x, n, p) == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", _LARGE_N)
    @pytest.mark.parametrize("p", [-0.9, 3.7])
    def test_moment(self, n, p):
        with mp.workdps(50):
            pm = mp.mpf(p)
            for x in (0.3, 1.7):
                ref = mp.gamma(pm + 1) * mp.gamma(n) * mp.mpf(n) ** pm \
                    / mp.gamma(pm + n) * mp.mpf(x) ** pm
                assert moment(x, n, p) == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", _LARGE_N)
    @pytest.mark.parametrize("t", [-3.0, -0.5, 0.5, 0.9])
    def test_mgf_is_finite_and_accurate_or_raises(self, n, t):
        # M(1, n, n t mean); where the true value leaves double range the
        # estimator must raise RangeError instead of returning a number
        for x in (0.3, 1.0, 1.7, 10.0):
            with mp.workdps(50):
                ref = mp.hyp1f1(1, n, mp.mpf(n) * mp.mpf(t) * mp.mpf(x), maxterms=10 ** 6)
            if ref > 1e300:
                with pytest.raises(RangeError):
                    mgf(x, n, t)
            else:
                assert mgf(x, n, t) == pytest.approx(float(ref), rel=1e-10, abs=0.0)

    def test_mgf_array_matches_scalar(self):
        xs = np.array([[0.3, 1.0], [1.7, 2.2]])
        got = mgf(xs, 200, 0.5)
        assert got.shape == xs.shape
        assert all(type(mgf(float(x), 200, 0.5)) is float for x in xs.ravel())
        np.testing.assert_array_equal(got.ravel(), [mgf(float(x), 200, 0.5) for x in xs.ravel()])


# an entry point that takes a scalar or an array, and the name its input
# rule gives the argument
_POSITIVE_INPUTS = {
    "target_value": (lambda v: target_value(FunctionalSpec(Kind.QUANTILE, q=0.5), v),
                     "lambda"),
    "phi_function": (lambda v: phi_function(FunctionalSpec(Kind.QUANTILE, q=0.5), 3)(v),
                     "sample mean"),
    "Sample": (lambda v: Sample(np.atleast_1d(v)), "observations"),
    "log_gamma": (log_gamma, "x"),
    "tate_phi_function": (
        lambda v: tate_phi_function(FunctionalSpec(Kind.QUANTILE, q=0.5), 3)(v),
        "sample mean"),
    "mgf": (lambda v: mgf(v, 3, 0.5), "sample mean"),
}


class TestInputRule:
    """A scalar and an array holding the same bad value raise the same
    DomainError (``errors._check_positive``)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("entry", sorted(_POSITIVE_INPUTS))
    def test_scalar_and_array_share_the_message(self, entry, bad):
        call, name = _POSITIVE_INPUTS[entry]
        for value in (bad, np.array([1.0, bad])):
            with pytest.raises(DomainError) as info:
                call(value)
            assert str(info.value) == f"{name} must be finite and strictly positive"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", sorted(_POSITIVE_INPUTS))
    def test_empty_array_passes(self, entry):
        call, _ = _POSITIVE_INPUTS[entry]
        if entry == "Sample":
            with pytest.raises(DomainError, match="at least one observation"):
                call(np.array([]))
        else:
            assert call(np.array([])).shape == (0,)


class TestOutputRange:
    """A value outside double range is a RangeError, never an inf, a nan or
    an overflow warning (``errors._in_range``)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        # each warned of an overflow and returned inf
        lambda: rate_power(1e-20, 30, 29.5),
        lambda: moment(1e300, 2, 30),
        lambda: expected_shortfall(1.7e308, 0.5),
        lambda: tate_estimate(FunctionalSpec(Kind.QUANTILE, q=0.5), 1.7e308, 2),
        # returned inf without a warning
        lambda: target_value(FunctionalSpec(Kind.QUANTILE, q=0.5), 1e-320),
        lambda: target_value(FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5), 1e-310),
        # lam^2 underflowed to 0: an untyped ZeroDivisionError
        lambda: target_value(FunctionalSpec(Kind.MOMENT, p=2.0), 1e-200),
        # warned of an overflow in numpy's power
        lambda: target_value(FunctionalSpec(Kind.RATE_POWER, p=-2.0,
                                            allow_negative_integer_p=True),
                             np.array([1.0, 1e-200])),
        # the sum of the observations overflowed with a warning
        lambda: Sample([1.7e308, 1.7e308]),
        # x^p of an observation overflowed with a warning
        lambda: mle_estimate(FunctionalSpec(Kind.MOMENT, p=400.0), Sample([10.0, 20.0])),
        # gammaln overflowed to inf without a warning
        lambda: log_gamma(1.7e308),
        lambda: log_gamma(np.array([1.0, 1.7e308])),
        # the density's exp overflowed with a warning
        lambda: gamma_mean_density(1e-308, 100, 1e308),
        lambda: gamma_mean_density(np.array([1.0, 1e-308]), 100, 1e308),
        # binomial coefficients C(1100, k) past double range, in both families
        lambda: max_cdf_power(1.0, 10, 0.5, 1100),
        lambda: tate_estimate(FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=1100), 1.0, 10),
    ], ids=["rate-power", "moment", "expected-shortfall", "tate-quantile",
            "quantile-target", "expected-shortfall-target", "moment-target",
            "rate-power-target-array", "sample-mean", "moment-mle", "log-gamma",
            "log-gamma-array", "density", "density-array", "max-cdf-power-m1100",
            "tate-max-cdf-power-m1100"])
    def test_range_error(self, call):
        with pytest.raises(RangeError, match="leaves double range"):
            call()

    @pytest.mark.parametrize("build", [phi_function, tate_phi_function],
                             ids=["closed-form", "tate"])
    @pytest.mark.parametrize("m", [1030, 20_000, 10 ** 9])
    def test_max_cdf_power_binomials_past_double_range_are_refused_first(self, build, m):
        # every estimate takes each C(m, k) to double, so from m = 1030 every
        # one raised; m = 20000 first formed its 20001 binomials (75 s, 96 MB)
        spec = FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=m)
        start = time.perf_counter()
        with pytest.raises(RangeError, match="leaves double range"):
            build(spec, 10)
        assert time.perf_counter() - start < 1.0
        # C(1029, 514) is still a double
        build(FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=1029), 10)

    @pytest.mark.filterwarnings("error")
    def test_mgf_beyond_its_overflow_point_is_immediate(self):
        # scipy's hyp1f1(1, 30, w) ran for seconds at w = 1e12 and did not
        # end at w = 3e21; M(1, n, w) overflows from w = 2n + 2000 on
        for mean in (1e20, 1e11, 1.7e308):
            with pytest.raises(RangeError):
                mgf(mean, 30, 0.5)
        # below that point the value is scipy's, unchanged
        mean = 500.0 / 15.0
        assert mgf(mean, 30, 0.5) == float(sp.hyp1f1(1.0, 30, 15.0 * mean))
