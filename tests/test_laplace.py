"""Inverse-Laplace engine tests: primitives, the generic estimator and the
method-consistency/linearity contracts."""

import math

import numpy as np
import pytest

from expunbias.errors import (ConfigurationError, DomainError, InversionError,
                              UnsupportedTransformError)
from expunbias.estimators import (FunctionalSpec, Family, Kind, Sample, mgf,
                                  moment, quantile, rate_power)
from expunbias.laplace import (InversionConfig, InversionMethod,
                               TransferFunction, builtin_transfer_function,
                               generic_phi, generic_unbiased_estimate,
                               invert_gaver_stehfest, invert_talbot)
from expunbias.oracle import expectation


def _tf(fn):
    return TransferFunction(eval_real=fn, eval_complex=fn)


class TestGaverStehfest:
    def test_inverse_of_one_over_s(self):
        # constant original: the Salzer weights reproduce it exactly
        got = invert_gaver_stehfest(_tf(lambda s: 1.0 / s), 3.0, 16)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_inverse_of_one_over_s2(self):
        got = invert_gaver_stehfest(_tf(lambda s: 1.0 / s ** 2), 2.0, 16)
        assert got == pytest.approx(2.0, rel=5e-7)

    def test_decaying_exponential(self):
        got = invert_gaver_stehfest(_tf(lambda s: 1.0 / (s + 1.0)), 1.0, 18)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_order_validation(self):
        tf = _tf(lambda s: 1.0 / s)
        for bad in (7, 13, 22, 6):
            with pytest.raises(ConfigurationError):
                invert_gaver_stehfest(tf, 1.0, bad)
        with pytest.raises(DomainError):
            invert_gaver_stehfest(tf, -1.0, 16)


class TestTalbot:
    def test_ramp(self):
        got = invert_talbot(_tf(lambda s: 1.0 / s ** 2), 5.0, 32)
        assert got == pytest.approx(5.0, abs=1e-10)

    def test_oscillatory(self):
        got = invert_talbot(_tf(lambda s: 1.0 / (s * s + 1.0)), math.pi / 2.0, 32)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_sqrt_branch(self):
        got = invert_talbot(_tf(lambda s: s ** -0.5), 1.0, 32)
        assert got == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-8)

    def test_requires_complex_evaluator(self):
        tf = TransferFunction(eval_real=lambda s: 1.0 / s)
        with pytest.raises(ConfigurationError):
            invert_talbot(tf, 1.0, 32)

    def test_node_validation(self):
        with pytest.raises(ConfigurationError):
            invert_talbot(_tf(lambda s: 1.0 / s), 1.0, 8)


class TestInversionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InversionConfig(gs_order=13)
        with pytest.raises(ConfigurationError):
            InversionConfig(gs_order=24)
        with pytest.raises(ConfigurationError):
            InversionConfig(talbot_nodes=70)
        with pytest.raises(ConfigurationError):
            InversionConfig(quad_rel_tol=-1.0)
        with pytest.raises(ConfigurationError):
            InversionConfig(method="talbot")


_GS = InversionConfig(method=InversionMethod.GAVER_STEHFEST)
_TALBOT = InversionConfig(method=InversionMethod.TALBOT)
_CONV = InversionConfig(method=InversionMethod.CONVOLUTION_QUADRATURE)


class TestGenericEstimator:
    def test_rate_identity_example(self):
        # xi(lambda) = lambda, n = 4, mean = 1 -> Gamma(4)/(4 Gamma(3)) = 3/4
        xi = builtin_transfer_function(FunctionalSpec(Kind.RATE_POWER, p=1.0))
        for cfg in (_GS, _TALBOT):
            assert generic_phi(xi, 4, cfg)(1.0) == pytest.approx(0.75, rel=1e-6)

    def test_reciprocal_rate_is_mean(self):
        xi = _tf(lambda s: 1.0 / s)
        for n in (1, 3, 8):
            for cfg in (_GS, _TALBOT):
                assert generic_phi(xi, n, cfg)(1.7) == pytest.approx(1.7, rel=1e-8)

    def test_matches_closed_mgf(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.MGF, t=0.1))
        ref = mgf(1.0, 3, 0.1)
        for cfg in (_GS, _TALBOT):
            assert generic_phi(xi, 3, cfg)(1.0) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("n,xbar", [(2, 0.5), (5, 1.0), (10, 2.0)])
    def test_methods_agree(self, n, xbar):
        xi = builtin_transfer_function(FunctionalSpec(Kind.MOMENT, p=1.5))
        gs = generic_phi(xi, n, _GS)(xbar)
        tb = generic_phi(xi, n, _TALBOT)(xbar)
        assert gs == pytest.approx(tb, rel=1e-6)
        assert gs == pytest.approx(moment(xbar, n, 1.5), rel=1e-6)

    def test_estimate_wrapper(self):
        sample = Sample([0.8, 1.2, 1.0])
        xi = builtin_transfer_function(FunctionalSpec(Kind.QUANTILE, q=0.5))
        res = generic_unbiased_estimate(xi, sample)
        assert res.estimator_family is Family.GENERIC_LAPLACE
        assert res.value == pytest.approx(quantile(sample.mean, 0.5), rel=1e-8)

    def test_auto_method_prefers_talbot_then_gs(self):
        both = _tf(lambda s: 1.0 / s)
        real_only = TransferFunction(eval_real=lambda s: 1.0 / s)
        assert generic_phi(both, 3)(1.0) == pytest.approx(1.0, rel=1e-8)
        assert generic_phi(real_only, 3)(1.0) == pytest.approx(1.0, rel=1e-7)

    def test_linearity(self):
        # xi = a*xi1 + b*xi2 for two smooth transforms
        a, b = 2.0, -0.5
        xi1 = builtin_transfer_function(FunctionalSpec(Kind.QUANTILE, q=0.5))
        xi2 = builtin_transfer_function(FunctionalSpec(Kind.MOMENT, p=2.0))
        combo = _tf(lambda s: a * xi1.eval_real(s) + b * xi2.eval_real(s))
        for cfg in (_GS, _TALBOT):
            phi = generic_phi(combo, 5, cfg)
            parts = (a * generic_phi(xi1, 5, cfg)(1.3)
                     + b * generic_phi(xi2, 5, cfg)(1.3))
            assert phi(1.3) == pytest.approx(parts, rel=1e-8)

    @pytest.mark.parametrize("kind,params", [
        (Kind.SURVIVAL, {"t": 1.0}),
        (Kind.MAX_CDF_POWER, {"t": 1.0, "m": 2}),
        (Kind.MIN_SURVIVAL, {"t": 1.0, "m": 2}),
        (Kind.PDF, {"t": 1.0}),
        (Kind.MEAN_PAST_LIFETIME, {"t": 1.0}),
    ])
    def test_delta_rows_are_rejected(self, kind, params):
        xi = builtin_transfer_function(FunctionalSpec(kind, **params))
        assert xi.delta_content
        with pytest.raises(UnsupportedTransformError):
            generic_phi(xi, 5)

    def test_mgf_negative_t_no_shift(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.MGF, t=-0.5))
        ref = mgf(2.0, 5, -0.5)
        for cfg in (_GS, _TALBOT):
            assert generic_phi(xi, 5, cfg)(2.0) == pytest.approx(ref, rel=1e-6)


class TestConvolutionPath:
    def test_quantile(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.QUANTILE, q=0.5))
        for n in (1, 4, 7):
            got = generic_phi(xi, n, _CONV)(1.0)
            assert got == pytest.approx(quantile(1.0, 0.5), rel=1e-6)

    def test_moment(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.MOMENT, p=1.5))
        got = generic_phi(xi, 5, _CONV)(0.5)
        assert got == pytest.approx(moment(0.5, 5, 1.5), rel=1e-6)

    def test_negative_rate_power(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.RATE_POWER, p=-0.5))
        got = generic_phi(xi, 3, _CONV)(1.0)
        assert got == pytest.approx(rate_power(1.0, 3, -0.5), rel=1e-6)


class TestGenericPathUnbiasedness:
    """The generic estimates must themselves pass the quadrature oracle."""

    def test_talbot_rate_power(self):
        spec = FunctionalSpec(Kind.RATE_POWER, p=0.5)
        xi = builtin_transfer_function(spec)
        phi_scalar = generic_phi(xi, 5, _TALBOT)
        phi = np.vectorize(phi_scalar, otypes=[float])
        value, _ = expectation(phi, 5, 1.0, rel_tol=1e-8)
        assert value == pytest.approx(1.0, rel=1e-5)

    def test_talbot_mgf(self):
        spec = FunctionalSpec(Kind.MGF, t=0.5)
        xi = builtin_transfer_function(spec)
        phi = np.vectorize(generic_phi(xi, 4, _TALBOT), otypes=[float])
        value, _ = expectation(phi, 4, 1.0, rel_tol=1e-8, tail_rate=4 * 0.5)
        assert value == pytest.approx(2.0, rel=1e-5)

    def test_gaver_stehfest_moment(self):
        spec = FunctionalSpec(Kind.MOMENT, p=2.0)
        xi = builtin_transfer_function(spec)
        phi = np.vectorize(generic_phi(xi, 3, _GS), otypes=[float])
        value, _ = expectation(phi, 3, 1.0, rel_tol=1e-6)
        assert value == pytest.approx(2.0, rel=1e-5)


# (transform, real-only, n, xbar, order the ladder stops at, result as
# float.hex); the results are those of the per-order sums that evaluated
# the transform afresh at every order, which the shared-abscissa ladder
# must reproduce bit for bit (moment-p0.5 and user-real carry Gamma(n) and
# Gamma(1.5) from gammaln)
_LADDER_CASES = {
    "moment-p0.5": (builtin_transfer_function(FunctionalSpec(Kind.MOMENT, p=0.5)),
                    False, 5, 1.3, 32, "0x1.0936b93f862d6p+0"),
    "user-real": (TransferFunction(eval_real=lambda lam: lam / (lam + 1.0)),
                  True, 10, 0.8, 40, "0x1.16bb419113482p-1"),
    "mgf-t0.5": (builtin_transfer_function(FunctionalSpec(Kind.MGF, t=0.5)),
                 False, 2, 0.7, 26, "0x1.72be6cc6e1b25p+0"),
}


def _counting_phi(xi, real_only, n):
    calls = []

    def fn(lam):
        calls.append(lam)
        return xi.eval_real(lam)
    counted = TransferFunction(eval_real=fn,
                               largest_real_singularity=xi.largest_real_singularity)
    phi = generic_phi(counted, n, None if real_only else _GS)
    calls.clear()  # drop the precision probe made while building phi
    return phi, calls


class TestGaverStehfestLadder:
    @pytest.mark.parametrize("case", sorted(_LADDER_CASES))
    def test_one_evaluation_per_abscissa(self, case):
        xi, real_only, n, xbar, stop, _ = _LADDER_CASES[case]
        phi, calls = _counting_phi(xi, real_only, n)
        phi(xbar)
        assert len(calls) == stop <= 40
        # the calls are xi((sigma + k ln2/xbar)/n) for k = 1..stop, each once
        sigma = n * (xi.largest_real_singularity or 0.0)
        got = [float(lam) * n for lam in calls]
        want = [sigma + k * math.log(2.0) / xbar for k in range(1, stop + 1)]
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("case", sorted(_LADDER_CASES))
    def test_results_unchanged(self, case):
        xi, real_only, n, xbar, _, expected = _LADDER_CASES[case]
        assert generic_phi(xi, n, None if real_only else _GS)(xbar).hex() == expected

    @pytest.mark.parametrize("case,closed", [("moment-p0.5", lambda x, n: moment(x, n, 0.5)),
                                             ("mgf-t0.5", lambda x, n: mgf(x, n, 0.5))])
    def test_recorded_results_match_closed_forms(self, case, closed):
        _, _, n, xbar, _, expected = _LADDER_CASES[case]
        assert float.fromhex(expected) == pytest.approx(closed(xbar, n), rel=1e-8)

    def test_non_finite_abscissa_raises_with_diagnostics(self):
        # inf at the 17th abscissa: the first order (16) passes, the second
        # (20) meets it
        bad = 17 * math.log(2.0)

        def fn(s):
            return math.inf if abs(float(s) - bad) < 1e-9 else 1.0 / s
        with pytest.raises(InversionError) as info:
            generic_phi(TransferFunction(eval_real=fn), 1, _GS)(1.0)
        diag = info.value.diagnostics
        assert set(diag) == {"method", "order", "t", "abscissa"}
        assert diag["method"] == "gaver-stehfest" and diag["order"] == 20
        assert diag["t"] == 1.0 and diag["abscissa"] == pytest.approx(bad, rel=1e-14)

    def test_fixed_order_non_finite_raises(self):
        bad = 3 * math.log(2.0) / 2.0
        fn = lambda s: math.inf if abs(float(s) - bad) < 1e-9 else 1.0 / s
        with pytest.raises(InversionError) as info:
            invert_gaver_stehfest(_tf(fn), 2.0, 16)
        assert set(info.value.diagnostics) == {"method", "order", "t", "abscissa"}
        assert info.value.diagnostics["order"] == 16
