"""Inverse-Laplace engine tests: primitives, the generic estimator and the
method-consistency/linearity contracts."""

import cmath
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import expunbias
from expunbias import laplace
from expunbias.errors import (ConfigurationError, DomainError, ExpunbiasError,
                              InversionError, RangeError, UnsupportedTransformError)
from expunbias.estimators import (FunctionalSpec, Family, Kind, Sample, _xi_of, mgf,
                                  moment, phi_function, quantile, target_value)
from expunbias.laplace import (InversionConfig, InversionMethod,
                               TransferFunction, builtin_transfer_function,
                               generic_phi, generic_unbiased_estimate)
from expunbias.oracle import expectation


def _tf(fn):
    return TransferFunction(eval_real=fn, eval_complex=fn)


class TestInversionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InversionConfig(method="talbot")


_GS = InversionConfig(method=InversionMethod.GAVER_STEHFEST)
_TALBOT = InversionConfig(method=InversionMethod.TALBOT)

# at n = 1 the estimator is the plain inversion phi(mean) = invL{xi(s)/s}(mean):
# (xi, its original, means).  Every case read within 3.4e-12 on the ladder and
# 8.9e-16 on the contour.  The contour raises an InversionError for
# lam/(lam^2 + 1) at means 2 and 3 (at 2 a node lands on the pole at +-i), so
# that pair is read at pi/2 only
_CLASSICAL = {
    "constant": (lambda lam: 1.0, lambda t: 1.0, (1.0, 2.0, 3.0)),
    "ramp": (lambda lam: 1.0 / lam, lambda t: t, (1.0, 2.0, 3.0)),
    "decay": (lambda lam: lam / (lam + 1.0), lambda t: math.exp(-t), (1.0, 2.0, 3.0)),
    "sqrt-branch": (lambda lam: lam ** 0.5, lambda t: 1.0 / math.sqrt(math.pi * t),
                    (1.0, 2.0, 3.0)),
    "oscillatory": (lambda lam: lam / (lam * lam + 1.0), math.sin, (math.pi / 2.0,)),
}


class TestClassicalPairs:
    @pytest.mark.parametrize("cfg,tol", [(_GS, 1e-11), (_TALBOT, 2e-15)], ids=["gs", "talbot"])
    @pytest.mark.parametrize("case", sorted(_CLASSICAL))
    def test_n1_inverts_xi_over_s(self, case, cfg, tol):
        xi, original, means = _CLASSICAL[case]
        phi = generic_phi(_tf(xi), 1, cfg)
        for t in means:
            assert phi(t) == pytest.approx(original(t), abs=tol)


class TestTalbot:
    def test_requires_complex_evaluator(self):
        tf = TransferFunction(eval_real=lambda s: 1.0 / s)
        with pytest.raises(ConfigurationError, match="eval_complex"):
            generic_phi(tf, 1, _TALBOT)


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

    @pytest.mark.parametrize("kind,params", [
        (Kind.RATE_POWER, {"p": 0.5}),
        (Kind.QUANTILE, {"q": 0.5}),
        (Kind.MOMENT, {"p": 2.0}),
        (Kind.SURVIVAL, {"t": 0.5}),
        (Kind.MAX_CDF_POWER, {"t": 0.5, "m": 2}),
        (Kind.MIN_SURVIVAL, {"t": 0.5, "m": 2}),
        (Kind.PDF, {"t": 0.5}),
        (Kind.MEAN_PAST_LIFETIME, {"t": 0.5}),
        (Kind.MGF, {"t": 0.2}),
        (Kind.EXPECTED_SHORTFALL, {"p": 0.5}),
    ])
    def test_transform_is_the_target(self, kind, params):
        # a built-in transfer function is xi itself, evaluated on the real
        # axis by either evaluator; the delta kinds, which no engine serves,
        # have no complex evaluator
        spec = FunctionalSpec(kind, **params)
        xi = builtin_transfer_function(spec)
        if xi.delta_content:
            assert xi.eval_complex is None
        for lam in (0.3, 1.0, 2.5):
            target = target_value(spec, lam)
            assert xi.eval_real(lam) == pytest.approx(target, rel=1e-13, abs=0.0)
            if not xi.delta_content:
                assert (xi.eval_complex(lam + 0j).real
                        == pytest.approx(target, rel=1e-13, abs=0.0))

    def test_talbot_without_complex_evaluator_fails_when_built(self):
        real_only = TransferFunction(eval_real=lambda s: 1.0 / s)
        with pytest.raises(ConfigurationError):
            generic_phi(real_only, 3, _TALBOT)

    def test_mgf_negative_t_no_shift(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.MGF, t=-0.5))
        ref = mgf(2.0, 5, -0.5)
        for cfg in (_GS, _TALBOT):
            assert generic_phi(xi, 5, cfg)(2.0) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("cfg", [_GS, _TALBOT])
    @pytest.mark.parametrize("p,obs", [
        # p = 1.5 at n = 1 read -0.28209 on both engines; p = 9 at n = 7 was an InversionError
        (1.5, [1.0]), (9.0, [0.43, 1.12, 0.71, 2.04, 0.09, 0.88, 1.57])])
    def test_builtin_outside_its_domain_in_n_is_refused(self, cfg, p, obs):
        spec = FunctionalSpec(Kind.RATE_POWER, p=p)
        with pytest.raises(DomainError) as want:
            phi_function(spec, len(obs))
        with pytest.raises(DomainError) as got:
            generic_unbiased_estimate(builtin_transfer_function(spec), Sample(obs), cfg, spec)
        assert type(got.value) is DomainError and str(got.value) == str(want.value)

    def test_the_rule_in_n_leaves_the_domain_and_bare_transforms(self):
        spec = FunctionalSpec(Kind.RATE_POWER, p=1.5)
        xi, sample = builtin_transfer_function(spec), Sample([0.8, 1.2])
        for cfg in (_GS, _TALBOT):
            got = generic_unbiased_estimate(xi, sample, cfg, spec).value
            assert got == pytest.approx(phi_function(spec, 2)(sample.mean), rel=1e-9)
            # a bare transform carries no n-rule: generic_phi inverts it as it is
            assert math.isfinite(generic_phi(xi, 1, cfg)(1.0))


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
# the composed transform xi(s/n)/s^n afresh at every order, which the
# shared-abscissa ladder with s^-n folded into its weights must reproduce
# bit for bit (moment-p0.5 and user-real carry Gamma(n) and Gamma(1.5) from
# gammaln)
_LADDER_CASES = {
    "moment-p0.5": (builtin_transfer_function(FunctionalSpec(Kind.MOMENT, p=0.5)),
                    False, 5, 1.3, 32, "0x1.0936b93f862d6p+0"),
    "user-real": (TransferFunction(eval_real=lambda lam: lam / (lam + 1.0)),
                  True, 10, 0.8, 40, "0x1.16bb419113482p-1"),
    "mgf-t0.5": (builtin_transfer_function(FunctionalSpec(Kind.MGF, t=0.5)),
                 False, 2, 0.7, 26, "0x1.72be6cc6e1b25p+0"),
}
# every built-in smooth kind (the MGF on the shifted abscissae sigma > 0) and
# the real-only user transform at mean 0.9: (n, stop order, result as
# float.hex) recorded on the ladder that composed xi(s/n)/s^n per abscissa
_LADDER_XI = {
    "rate-power-p0.5": FunctionalSpec(Kind.RATE_POWER, p=0.5),
    "quantile-q0.5": FunctionalSpec(Kind.QUANTILE, q=0.5),
    "moment-p2": FunctionalSpec(Kind.MOMENT, p=2.0),
    "mgf-t0.5": FunctionalSpec(Kind.MGF, t=0.5),
    "expected-shortfall-p0.5": FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
    "user-real": None,
}
_LADDER_PINS = {
    "rate-power-p0.5": [(1, 26, "0x1.307d9271ebc9bp-1"), (2, 20, "0x1.ae9d578c61622p-1"),
                        (5, 32, "0x1.f20065790115bp-1"), (10, 40, "0x1.0394197c0d333p+0")],
    "quantile-q0.5": [(1, 26, "0x1.3f66f7f144e4dp-1"), (2, 26, "0x1.3f66f7f147686p-1"),
                      (5, 40, "0x1.3f66f7f14675ap-1"), (10, 40, "0x1.3f66f7f2fe7e1p-1")],
    "moment-p2": [(1, 26, "0x1.9eb851eb865a3p-1"), (2, 32, "0x1.147ae147addbfp+0"),
                  (5, 40, "0x1.5999999999a77p+0"), (10, 40, "0x1.7904a79a880d7p+0")],
    "mgf-t0.5": [(1, 20, "0x1.917ce84a993b5p+0"), (2, 26, "0x1.9f2d0e13f449fp+0"),
                 (5, 40, "0x1.b17132a9f62aap+0"), (10, 40, "0x1.bce5da75ca9c6p+0")],
    "expected-shortfall-p0.5": [(1, 26, "0x1.8619e25f07b7ep+0"),
                                (2, 26, "0x1.8619e25f0ac9ep+0"),
                                (5, 40, "0x1.8619e25f09a15p+0"),
                                (10, 40, "0x1.8619e26123104p+0")],
    "user-real": [(1, 26, "0x1.a053cc0086ef2p-2"), (2, 32, "0x1.dada28feb7ce9p-2"),
                  (5, 32, "0x1.00eb0d3b34cd6p-1"), (10, 40, "0x1.074d0dd89db5bp-1")],
}
for _name, _spec in _LADDER_XI.items():
    _xi = (_LADDER_CASES["user-real"][0] if _spec is None
           else builtin_transfer_function(_spec))
    for _n, _stop, _hex in _LADDER_PINS[_name]:
        _LADDER_CASES[f"{_name} n={_n}"] = (_xi, _spec is None, _n, 0.9, _stop, _hex)


def _counting(xi, calls):
    def fn(lam):
        calls.append(lam)
        return xi.eval_real(lam)
    return TransferFunction(eval_real=fn, largest_real_singularity=xi.largest_real_singularity)


def _counting_phi(xi, real_only, n):
    calls = []
    phi = generic_phi(_counting(xi, calls), n, None if real_only else _GS)
    assert calls == []  # building phi evaluates nothing
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

    @pytest.mark.parametrize("cfg", [None, _GS, _TALBOT], ids=["auto", "gs", "talbot"])
    def test_building_evaluates_no_transform(self, cfg):
        calls = []
        xi = _counting(builtin_transfer_function(FunctionalSpec(Kind.MGF, t=0.5)), calls)
        xi.eval_complex = xi.eval_real
        generic_phi(xi, 5, cfg)
        assert calls == []

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_float_transform_stops_by_order_20(self, n):
        # a transform that answers in double precision climbs only to 20,
        # one call per abscissa; at n = 10 orders 16 and 20 disagree
        calls = []
        xi = _counting(TransferFunction(eval_real=lambda lam: float(lam / (lam + 1.0))), calls)
        phi = generic_phi(xi, n)
        try:
            value = phi(0.9)
        except InversionError as exc:
            assert n == 10 and exc.diagnostics["orders"] == [16, 20]
        else:
            exact = float.fromhex(dict((m, h) for m, _, h in _LADDER_PINS["user-real"])[n])
            assert value == pytest.approx(exact, rel=1e-5)
        assert len(calls) in (16, 20)
        assert [float(lam) * n for lam in calls] == pytest.approx(
            [k * math.log(2.0) / 0.9 for k in range(1, len(calls) + 1)], rel=1e-14)

    def test_float_fallback_stops_by_order_20(self):
        # a transform that refuses mpf input is evaluated at float(s), and
        # the climb stops at 20 as well
        def fn(lam):
            if not isinstance(lam, float):
                raise TypeError("floats only")
            return 1.0 / lam
        value = generic_phi(TransferFunction(eval_real=fn), 3)(0.9)
        assert value == pytest.approx(0.9, rel=1e-6)

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
        # inf at the 3rd abscissa of a single order-16 rung, at t = 2
        bad = 3 * math.log(2.0) / 2.0
        fn = lambda s: math.inf if abs(float(s) - bad) < 1e-9 else 1.0 / s
        with pytest.raises(InversionError) as info:
            laplace._gs_ladder(fn, 2.0, [16], 1)
        assert set(info.value.diagnostics) == {"method", "order", "t", "abscissa"}
        assert info.value.diagnostics["order"] == 16


# (spec, result of generic_phi at n = 7, mean 1.3 on the saddle-centred
# contour, as float.hex), one per built-in smooth kind; each within 2.1e-15
# of the closed form and 5.5e-16 of 50-digit mpmath when recorded
_TALBOT_CASES = {
    "rate-power": (FunctionalSpec(Kind.RATE_POWER, p=0.5), "0x1.a87c2634aa174p-1"),
    "quantile": (FunctionalSpec(Kind.QUANTILE, q=0.5), "0x1.cd5bd7eabb1bap-1"),
    "moment": (FunctionalSpec(Kind.MOMENT, p=2.0), "0x1.7a8f5c28f5c2dp+1"),
    "mgf": (FunctionalSpec(Kind.MGF, t=0.5), "0x1.2c6921fa6a246p+1"),
    "expected-shortfall": (FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
                           "0x1.19bd5c61152d7p+1"),
}


class TestTalbotEstimator:
    @pytest.mark.parametrize("case", sorted(_TALBOT_CASES))
    def test_results_unchanged(self, case):
        spec, expected = _TALBOT_CASES[case]
        xi = builtin_transfer_function(spec)
        assert generic_phi(xi, 7, _TALBOT)(1.3).hex() == expected

    @pytest.mark.parametrize("case", sorted(_TALBOT_CASES))
    def test_recorded_results_match_closed_forms(self, case):
        spec, expected = _TALBOT_CASES[case]
        closed = float(phi_function(spec, 7)(1.3))
        assert float.fromhex(expected) == pytest.approx(closed, rel=1e-14)


class TestContourEveryN:
    """The fixed 32-node Talbot contour read 1.2e-10 at n = 32, 3.2e-6 at
    n = 40 and 1.8e7 at n = 50 against the closed forms, so the estimator
    served n <= 32 only; the saddle-centred contour serves every n."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [32, 33, 40, 50, 200, 10_000])
    @pytest.mark.parametrize("spec", [FunctionalSpec(Kind.MOMENT, p=0.5),
                                      FunctionalSpec(Kind.RATE_POWER, p=1.5),
                                      FunctionalSpec(Kind.MGF, t=0.5)],
                             ids=lambda s: s.kind.value)
    def test_serves_within_the_bound(self, spec, n):
        # n = 50 returned 3.9e6 for a value near 0.89 on the fixed contour
        for xbar in (0.3, 1.0, 1.7):
            got = generic_phi(builtin_transfer_function(spec), n, _TALBOT)(xbar)
            assert got == pytest.approx(float(phi_function(spec, n)(xbar)), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 200, 10_000, 10 ** 6])
    def test_kernel_integrates_to_one(self, n):
        # xi = 1 has the estimator 1 at every n and mean: the weights alone
        one = _tf(lambda s: 1.0)
        for xbar in (1e-3, 1.0, 1e3):
            assert generic_phi(one, n)(xbar) == pytest.approx(1.0, rel=1e-14)

    def test_one_array_call_per_mean_and_none_to_build(self):
        calls = []

        def fn(s):
            calls.append(s)
            return 1.0 / s
        phi = generic_phi(_tf(fn), 5)
        assert calls == []
        assert phi(1.7) == pytest.approx(1.7, rel=1e-14)
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)

    def test_scalar_only_transform_is_evaluated_node_by_node(self):
        # cmath takes no arrays (TypeError), and an array has no truth value
        # (ValueError): then one call per node
        array = _tf(lambda s: np.sqrt(s) / (s + 2.0))
        scalars = (lambda s: cmath.sqrt(s) / (s + 2.0),
                   lambda s: s ** 0.5 / (s + 2.0) if s != 0 else 0.0)
        for fn in scalars:
            for n in (1, 5, 50):
                for xbar in (0.4, 1.0, 3.0):
                    want = generic_phi(array, n)(xbar)
                    assert generic_phi(_tf(fn), n)(xbar) == pytest.approx(want, rel=1e-14)

    def test_weights_are_cached_and_read_only(self):
        # 65 fine-grid nodes and the probe, which has weight 0
        nodes, weights, scale, rows = laplace._contour(5, 0, 32)
        assert laplace._contour(5, 0, 32)[1] is weights
        assert nodes.shape == weights.shape == scale.shape == (66,) and weights[-1] == 0.0
        assert rows.shape == (2, 66)
        for array in (nodes, weights, scale, rows):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.filterwarnings("error")
    def test_growth_past_the_kernel_is_an_inversion_error(self):
        # lam^20 at n = 1 outgrows e^(-v^2) on v in [0, 8]: the sum so truncated
        # would not be the integral
        grows = _tf(lambda s: s ** 20)
        with pytest.raises(InversionError, match="grows faster"):
            generic_phi(grows, 1)(1.0)

    @pytest.mark.filterwarnings("error")
    def test_cancellation_is_an_inversion_error_with_both_sums(self):
        # the MGF's pole past the saddle: the contour's terms sum to 3e12 times
        # the value in absolute size, which the rounding floor sees
        xi = builtin_transfer_function(FunctionalSpec(Kind.MGF, t=1.0))
        with pytest.raises(InversionError, match="cancel") as info:
            generic_phi(xi, 200, _TALBOT)(3.0)
        diag = info.value.diagnostics
        assert {"fine", "coarse", "floor", "intervals"} <= set(diag)
        assert diag["floor"] > laplace._CONTOUR_CANCEL * abs(diag["fine"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec,xbar", [
        (FunctionalSpec(Kind.MOMENT, p=0.5), 5e-324),
        (FunctionalSpec(Kind.RATE_POWER, p=-1000.0, allow_negative_integer_p=True), 1e10),
        (FunctionalSpec(Kind.RATE_POWER, p=999.5), 1.0),
        (FunctionalSpec(Kind.QUANTILE, q=0.999999), 1.7e308),
    ], ids=["subnormal-mean", "power-overflow", "power-overflow-n1", "huge-mean"])
    def test_nodes_past_double_range_are_an_inversion_error(self, spec, xbar):
        # nodes/mean, xi or the sums left double range with a RuntimeWarning
        with pytest.raises(InversionError):
            generic_phi(builtin_transfer_function(spec), 1, _TALBOT)(xbar)

    @pytest.mark.filterwarnings("error")
    def test_kernel_past_double_range_is_an_inversion_error(self):
        xi = builtin_transfer_function(FunctionalSpec(Kind.MGF, t=2.0))
        with pytest.raises(InversionError, match="double range"):
            generic_phi(xi, 10_000, _TALBOT)(1.0)


class TestArguments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 2.5])
    def test_generic_phi_rejects_non_integer_n(self, n):
        # n = 2.5 returned a number
        xi = builtin_transfer_function(FunctionalSpec(Kind.QUANTILE, q=0.5))
        with pytest.raises(DomainError, match="positive integer"):
            generic_phi(xi, n)

    @pytest.mark.filterwarnings("error")
    def test_transform_overflow_is_range_error(self):
        # Gamma(172) in the moment transform was an untyped OverflowError
        with pytest.raises(RangeError):
            builtin_transfer_function(FunctionalSpec(Kind.MOMENT, p=171.0))

    @pytest.mark.filterwarnings("error")
    def test_contour_at_a_huge_mean_serves(self):
        # s^n underflowed to 0 on the fixed Talbot contour (ZeroDivisionError,
        # then an InversionError); the saddle-centred contour has no s^n
        xi = builtin_transfer_function(FunctionalSpec(Kind.MGF, t=0.0))
        for n in (32, 200):
            assert generic_phi(xi, n, _TALBOT)(1e12) == pytest.approx(1.0, rel=1e-14)


class TestLargeN:
    """At large n Gaver-Stehfest does not certify; each point must still end
    in a float or a typed error, never a bare OverflowError."""

    @pytest.mark.parametrize("spec", [FunctionalSpec(Kind.MOMENT, p=0.5),
                                      FunctionalSpec(Kind.MGF, t=0.5),
                                      FunctionalSpec(Kind.QUANTILE, q=0.5)],
                             ids=["moment", "mgf", "quantile"])
    @pytest.mark.parametrize("cfg", [_GS, _TALBOT], ids=["gs", "talbot"])
    def test_float_or_typed_error(self, spec, cfg):
        xi = builtin_transfer_function(spec)
        for n in (50, 100, 172, 200, 1000):
            for xbar in (0.3, 1.0):
                try:
                    value = generic_phi(xi, n, cfg)(xbar)
                except ExpunbiasError:
                    continue
                assert isinstance(value, float)

    @pytest.mark.parametrize("cfg,n,xbar", [(_GS, 1000, 0.3)])
    def test_overflow_is_an_inversion_error(self, cfg, n, xbar):
        # Gaver-Stehfest: Gamma(n)/0.3^(n-1) leaves double range
        xi = builtin_transfer_function(FunctionalSpec(Kind.QUANTILE, q=0.5))
        with pytest.raises(InversionError) as info:
            generic_phi(xi, n, cfg)(xbar)
        assert info.value.diagnostics == {"method": cfg.method.value, "n": n, "t": xbar}
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.filterwarnings("error")
    def test_contour_serves_where_s_to_the_n_overflowed(self):
        # s^n on the fixed Talbot contour left double range at n = 32, mean 1e-10
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        got = generic_phi(builtin_transfer_function(spec), 32, _TALBOT)(1e-10)
        assert got == pytest.approx(quantile(1e-10, 0.5), rel=1e-14)


# ---------------------------------------------------------------------------
# same bits as the plain mpmath ladder
# ---------------------------------------------------------------------------

def _fdot_ladder(fn, t, orders, n, sigma=0.0):
    # the ladder summed with mp.fdot over mpf weights, at 2.2 digits per
    # order + 15, and its finiteness check by mp.isfinite
    dps = int(2.2 * orders[-1]) + 15
    with mp.workdps(dps):
        ln2_t, sig = mp.ln(2) / mp.mpf(t), mp.mpf(sigma)
        if sigma:
            factor, folded = ln2_t * mp.e ** (sig * mp.mpf(t)), 0
        else:
            factor, folded, step = ln2_t * mp.mpf(t) ** n, n, ln2_t / n
        top, fvals, values = orders[-1], [], []
        for order in orders:
            if order > top:
                break
            for k in range(len(fvals) + 1, order + 1):
                s = sig + k * ln2_t
                fk, extended = laplace._eval_mp(fn, s / n if sigma else k * step)
                fk = fk / s ** n if sigma else fk
                if not mp.isfinite(fk):
                    raise InversionError(
                        "transform evaluated non-finite on the Gaver-Stehfest abscissae",
                        {"method": "gaver-stehfest", "order": order, "t": t,
                         "abscissa": float(s)})
                top = 20 if k == 1 and not extended else top
                fvals.append(fk)
            weights = [mp.mpf(w.numerator) / mp.mpf(w.denominator) / (k * mp.ln(2)) ** folded
                       for k, w in enumerate(laplace._stehfest_weight_fractions(order), 1)]
            val = float(mp.fdot(weights, fvals) * factor)
            if values and abs(val - values[-1]) <= 5e-9 * max(abs(val), abs(values[-1]), 1e-300):
                return val
            values.append(val)
    if len(values) >= 2 and abs(values[-1] - values[-2]) > 1e-3 * max(abs(values[-1]), 1e-300):
        raise InversionError(
            "Gaver-Stehfest results kept oscillating beyond tolerance",
            {"method": "gaver-stehfest", "orders": [o for o in orders if o <= top],
             "values": values, "t": t})
    return values[-1]


def _outcome(call):
    # a value as float.hex, or an error as its type, message and diagnostics
    try:
        return call().hex()
    except ExpunbiasError as exc:
        return type(exc), str(exc), repr(exc.diagnostics)


def _floats_only(lam):
    if not isinstance(lam, float):
        raise TypeError("floats only")
    return lam / (lam + 1.0)


# every smooth built-in (the MGF on the shifted abscissae sigma > 0), the
# real-only user transform, one that answers in double precision and one
# that refuses mpf input
_GRID_XI = {
    **{name: builtin_transfer_function(spec) for name, spec in _LADDER_XI.items() if spec},
    "user-real": TransferFunction(eval_real=lambda lam: lam / (lam + 1.0)),
    "float-answer": TransferFunction(eval_real=lambda lam: float(lam / (lam + 1.0))),
    "float-input": TransferFunction(eval_real=_floats_only),
}
# the smooth built-ins whose constants the ladder binds as mpf; the MGF at
# t = -1 has no pole right of 0, so its abscissae are not shifted
_MPF_CONSTANT_SPECS = {
    "moment-p2.5": FunctionalSpec(Kind.MOMENT, p=2.5),
    "rate-power-p0.5": FunctionalSpec(Kind.RATE_POWER, p=0.5),
    "rate-power-p-0.5": FunctionalSpec(Kind.RATE_POWER, p=-0.5),
    "quantile-q0.9": FunctionalSpec(Kind.QUANTILE, q=0.9),
    "expected-shortfall-p0.9": FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.9),
    "mgf-t0.5": FunctionalSpec(Kind.MGF, t=0.5),
    "mgf-t-1": FunctionalSpec(Kind.MGF, t=-1.0),
}
_GRID_N = (1, 2, 3, 5, 8, 10, 13)
_GRID_XBAR = (0.01, 0.1, 0.5, 0.9, 1.3, 3.0, 10.0, 100.0)


class TestSameBits:
    @pytest.mark.parametrize("name", sorted(_GRID_XI))
    def test_ladder_matches_fdot_ladder(self, name, monkeypatch):
        xi = _GRID_XI[name]
        for n in _GRID_N:
            phi = generic_phi(xi, n, _GS)
            got = [_outcome(lambda: phi(x)) for x in _GRID_XBAR]
            with monkeypatch.context() as m:
                m.setattr(laplace, "_gs_ladder", _fdot_ladder)
                want = [_outcome(lambda: phi(x)) for x in _GRID_XBAR]
            assert got == want, (name, n)

    @pytest.mark.parametrize("order", [8, 12, 16, 20])
    def test_fixed_order_matches_fdot_ladder(self, order):
        for fn in (lambda s: 1.0 / s, lambda s: 1.0 / (s + 1.0), lambda s: s ** -0.5):
            for t in (0.1, 1.0, 3.0):
                got = laplace._gs_ladder(fn, t, [order], 1)
                assert got.hex() == _fdot_ladder(fn, t, [order], 1).hex()

    @pytest.mark.parametrize("order", [8, 12, 16, 20])
    def test_values_across_exponents_match_fdot_ladder(self, order):
        # values from 2^-600 to 2^600 in no order, so that held values are
        # re-aligned as lower exponents arrive, and an exact 0 at s = 5 ln2
        # (t = 1) and 15 ln2/3 (t = 3)
        def spread(s):
            return 0 if 3.46 < s < 3.47 else mp.mpf(2) ** (600 * mp.cos(3 * s))
        for t in (0.1, 1.0, 3.0):
            got = laplace._gs_ladder(spread, t, [order], 1)
            assert got.hex() == _fdot_ladder(spread, t, [order], 1).hex()
        for n in (1, 4):
            assert (_outcome(lambda: laplace._gs_ladder(spread, 1.0, laplace._GS_LADDER, n))
                    == _outcome(lambda: _fdot_ladder(spread, 1.0, laplace._GS_LADDER, n)))

    @pytest.mark.parametrize("order", [20, 40])
    def test_precision_covers_the_cancellation(self, order):
        # log10(sum |w_k F_k| / |sum w_k F_k|) at 150 digits, plus the 17
        # digits a double needs, fits in the digits a ladder topping out at
        # this order works at, as its transform sees them (worst on the grid:
        # 18.2 of 37 at order 20, 35.9 of 59 at order 40, both user-real at
        # n = 1, mean 100)
        seen = []

        def probe(s):
            seen.append(mp.mp.dps)
            return 1.0 / s
        laplace._gs_ladder(probe, 1.0, [order], 1)
        worst = 0.0
        for name, xi in _GRID_XI.items():
            if order > 20 and name.startswith("float"):
                continue  # a double-precision transform stops at order 20
            hint = xi.largest_real_singularity
            for n in _GRID_N:
                sigma = n * hint if hint else 0.0
                for x in _GRID_XBAR:
                    with mp.workdps(150):
                        terms = []
                        for k, w in enumerate(laplace._stehfest_weight_fractions(order), 1):
                            s = sigma + k * mp.ln(2) / x
                            fk, _ = laplace._eval_mp(xi.eval_real, s / n)
                            terms.append(mp.mpf(w.numerator) / w.denominator * fk / s ** n)
                        cancel = mp.log10(mp.fsum(terms, absolute=True) / abs(mp.fsum(terms)))
                    worst = max(worst, float(cancel))
        assert worst + 17 <= seen[0]

    @pytest.mark.parametrize("name", sorted(_MPF_CONSTANT_SPECS))
    def test_mpf_constants_keep_the_float_closures_bits(self, name, monkeypatch):
        # the xi the ladder calls binds the float closure's constants as mpf; at
        # each of its 40 abscissae, at its precision, it answers the same _mpf_
        spec = _MPF_CONSTANT_SPECS[name]
        fn = _xi_of(spec)
        pairs, ladder_xi = [], laplace._ladder_xi

        def both(f):
            mp_fn = ladder_xi(f)
            assert f is fn and any(isinstance(d, mp.mpf) for d in mp_fn.__defaults__)
            return lambda lam: pairs.append((mp_fn(lam)._mpf_, fn(lam)._mpf_)) or mp_fn(lam)
        monkeypatch.setattr(laplace, "_ladder_xi", both)
        hint = builtin_transfer_function(spec).largest_real_singularity
        for n in (1, 2, 5, 10, 13):
            for xbar in (0.01, 1.3, 100.0):
                try:
                    laplace._gs_ladder(fn, xbar, [40], n, n * max(hint, 0.0))
                except ExpunbiasError:
                    pass  # e^(sigma xbar) leaves double range for the MGF at xbar = 100
        assert len(pairs) == 15 * 40
        assert all(got == want for got, want in pairs)

    def test_only_the_catalogues_function_xi_are_rebound(self):
        # a user transform and the mean past lifetime's partial, whose constant
        # meets math.expm1's float, reach the ladder as they are
        user = lambda lam: lam / (lam + 1.0)
        mpl = _xi_of(FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.5))
        assert laplace._ladder_xi(user) is user and laplace._ladder_xi(mpl) is mpl
        moment_xi = _xi_of(FunctionalSpec(Kind.MOMENT, p=2.0))
        assert laplace._ladder_xi(moment_xi) is laplace._ladder_xi(moment_xi) is not moment_xi

    def test_user_transform_sees_its_float_default(self):
        seen = []

        def user(lam, c=0.5):
            seen.append(c)
            return lam / (lam + c)
        assert math.isfinite(generic_phi(TransferFunction(eval_real=user), 3, _GS)(1.3))
        assert seen and all(type(c) is float for c in seen)

    def test_spec_that_cannot_be_hashed_inverts(self):
        obs = Sample([0.43, 1.12, 0.71, 2.04, 0.09])
        want = FunctionalSpec(Kind.MOMENT, p=2.0)
        spec = FunctionalSpec(Kind.MOMENT, p=np.array(2.0))
        got = generic_unbiased_estimate(builtin_transfer_function(spec), obs, _GS, spec)
        assert got.value.hex() == generic_unbiased_estimate(
            builtin_transfer_function(want), obs, _GS, want).value.hex()

    def test_talbot_non_finite_node_raises(self):
        # NaN on the contour's upper nodes; an array has no truth value, so
        # the transform is called node by node
        fn = lambda s: complex(math.nan, 0.0) if s.imag > 1.0 else 1.0 / s
        with pytest.raises(InversionError, match="not finite") as info:
            generic_phi(_tf(fn), 1, _TALBOT)(0.7)
        diag = info.value.diagnostics
        assert (diag["method"], diag["n"], diag["t"]) == ("talbot", 1, 0.7)
        assert math.isnan(diag["fine"])


class TestLazyMpmath:
    """Only the Gaver-Stehfest ladder uses mpmath, and it imports it where it runs."""

    def _loads_mpmath(self, code: str) -> bool:
        src = os.path.dirname(os.path.dirname(os.path.abspath(expunbias.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", f"import sys\n{code}\nprint('mpmath' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
        return out.stdout.split()[-1] == "True"

    def test_importing_the_cli_leaves_mpmath_out(self):
        assert not self._loads_mpmath("import expunbias.cli")

    def test_talbot_leaves_mpmath_out_and_gaver_stehfest_loads_it(self):
        # at n = 1, xi = lam/(lam + 1) has the estimator e^(-mean)
        run = ("from expunbias import laplace\n"
               "tf = laplace.TransferFunction(lambda s: s / (s + 1), lambda s: s / (s + 1))\n"
               "def phi(method):\n"
               "    return laplace.generic_phi(tf, 1, laplace.InversionConfig(method))(1.0)\n"
               "assert abs(phi(laplace.InversionMethod.TALBOT) - 0.36787944117144233) < 1e-10\n")
        assert not self._loads_mpmath(run)
        assert self._loads_mpmath(run + "phi(laplace.InversionMethod.GAVER_STEHFEST)")
