"""Closed-form estimator catalogue tests.

Expected values are frozen from independent arithmetic (exact fractions,
factorials, antiderivatives); oracle-based unbiasedness lives in
test_oracle.py and the acceptance suite.
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from expunbias.errors import DomainError, RangeError, SpecError
from expunbias.estimators import (EstimateResult, Family, FunctionalSpec,
                                  Kind, Sample, closed_form_variance_mle,
                                  closed_form_variance_unbiased, estimate,
                                  expected_shortfall, max_cdf_power,
                                  mean_past_lifetime, mgf, min_survival,
                                  mle_estimate, moment, pdf_at, phi_function,
                                  quantile, rate_power, survival,
                                  target_value)
from expunbias.oracle import tate_estimate


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


class TestMeanPastLifetime:
    def test_small_mean_leaves_only_constant_term(self):
        # mean < t/n: only k = 0 survives, value is t - mean
        assert mean_past_lifetime(0.05, 10, 1.0) == pytest.approx(0.95, rel=1e-13)

    def test_n1_step_sum(self):
        # n = 1, t = 1, mean = 2.5: K = 2, three unit terms
        assert mean_past_lifetime(2.5, 1, 1.0) == pytest.approx(0.5, rel=1e-13)

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

    @staticmethod
    def _reference(x, n, t):
        # the sum in 40 digits, the indicator x >= tk/n in double as stated
        with mp.workdps(40):
            xm, total, k = mp.mpf(x), mp.mpf(0), 0
            while x >= t * k / n:
                term = (1 - mp.mpf(t) * k / (n * xm)) ** (n - 1)
                total += term
                if n > 1 and term < mp.mpf(10) ** -36 * total:
                    break
                k += 1
            return float(t * total - xm)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 200, 1000])
    @pytest.mark.parametrize("t", [0.05, 0.5, 3.0])
    def test_accuracy_against_mpmath(self, n, t):
        # below the first kink, between kinks, around the mean and far in the
        # tail of the sample-mean law (no mean sits on a kink, where n = 1
        # leaves a value that is pure rounding)
        xs = np.array([0.37 * t / n, 2.5 * t / n, 0.4137, 0.9713, 1.7319, 4.3211, 12.577])
        got = mean_past_lifetime(xs, n, t)
        for x, g in zip(xs, got):
            assert g == pytest.approx(self._reference(float(x), n, t), rel=1e-11, abs=0.0)

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
