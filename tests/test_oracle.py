"""Quadrature oracle tests: the expectation engine, unbiasedness reports and
the reproduction of the biased 1959 estimators."""

import math
import warnings

import numpy as np
import pytest

from expunbias import _quadrature, estimators, oracle
from expunbias._quadrature import gauss_kronrod_row
from expunbias.errors import (DomainError, ExpunbiasError, QuadratureError, RangeError,
                              SpecError)
from expunbias.estimators import (_CATALOGUE, Family, FunctionalSpec, Kind, _estimator,
                                  target_value)
from expunbias.oracle import (expectation, gamma_mean_density, tate_estimate, tate_expected_value,
                              verify_row, verify_tate_bias, verify_unbiasedness)


class TestGammaMeanDensity:
    def test_exponential_case(self):
        assert gamma_mean_density(1.0, 1, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_frozen_n2(self):
        # 4 x e^{-2x} at x=1
        assert gamma_mean_density(1.0, 2, 1.0) == pytest.approx(
            4.0 * math.exp(-2.0), rel=1e-13)

    @pytest.mark.parametrize("n,lam", [(1, 1.0), (3, 0.5), (10, 2.0)])
    def test_normalizes(self, n, lam):
        value, err = expectation(lambda x: np.ones_like(x), n, lam, rel_tol=1e-11)
        assert value == pytest.approx(1.0, rel=1e-10)
        assert err <= 1e-11 * abs(value) + 1e-300

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,lam", [(2.5, 1.0), (0, 1.0), (3, -1.0), (3, math.nan),
                                       (3, math.inf)])
    def test_rejects_bad_arguments(self, n, lam):
        # n = 2.5 gave a number and lambda = -1 an untyped math domain error
        with pytest.raises(DomainError):
            gamma_mean_density(1.0, n, lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1.0, 0.37, 25.0])
    def test_n1_at_zero_is_lambda(self, lam):
        # 0 * ln 0 gave nan with an invalid-value warning
        assert gamma_mean_density(0.0, 1, lam) == pytest.approx(lam, rel=4e-16)
        out = gamma_mean_density(np.array([0.0, 1.0]), 1, lam)
        assert out[1] == gamma_mean_density(1.0, 1, lam)

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 2.0])
        out = gamma_mean_density(xs, 3, 1.0)
        assert out.shape == xs.shape

    @pytest.mark.parametrize("n", [2, 200, 10_000])
    @pytest.mark.parametrize("lam", [1.0, 0.37])
    def test_against_mpmath_from_zero_to_far_tail(self, n, lam):
        # the log density carries (n-1) ln y and n (y-1) with y = lam x, so
        # its rounding error is a few eps times their size: the reference
        # bound is set from that, not from the n ln n of the log-gammas
        import mpmath as mp
        ys = np.concatenate([np.geomspace(1e-9, 0.9, 25),
                             1.0 + np.linspace(-6.0, 40.0, 24) / math.sqrt(n),
                             np.geomspace(1.1, 60.0, 20)])
        for y in ys[ys > 0.0]:
            x = float(y) / lam
            with mp.workdps(50):
                rate = n * mp.mpf(lam)
                ref = rate ** n * mp.mpf(x) ** (n - 1) * mp.exp(-rate * x) / mp.gamma(n)
            got = gamma_mean_density(x, n, lam)
            if ref < 1e-300:
                assert got < 1e-290
                continue
            y = lam * x
            bound = 4e-16 * (20.0 + (n - 1) * abs(math.log(y)) + n * abs(y - 1.0))
            assert got == pytest.approx(float(ref), rel=bound, abs=0.0)


class TestExpectation:
    def test_constant(self):
        value, _ = expectation(lambda x: 3.25 * np.ones_like(x), 4, 1.5)
        assert value == pytest.approx(3.25, rel=1e-10)

    @pytest.mark.parametrize("n,lam", [(2, 1.0), (7, 0.5)])
    def test_identity_gives_gamma_mean(self, n, lam):
        value, _ = expectation(lambda x: x, n, lam)
        assert value == pytest.approx(1.0 / lam, rel=1e-10)

    def test_survival_spec_example(self):
        from expunbias.estimators import survival
        value, _ = expectation(lambda x: survival(x, 5, 1.0), 5, 1.0,
                               rel_tol=1e-10, kinks=[0.2])
        assert value == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_impossible_tolerance_raises_with_partial(self, monkeypatch):
        monkeypatch.setattr(_quadrature, "_MAX_SEGMENTS", 64)
        with pytest.raises(QuadratureError) as exc:
            expectation(lambda x: np.sqrt(np.abs(np.sin(7.0 / (x + 1e-12)))),
                        2, 1.0, rel_tol=1e-30)
        assert math.isfinite(exc.value.partial_value)
        assert exc.value.segments == 64

    def test_self_consistency_under_tolerance_halving(self):
        from expunbias.estimators import mean_past_lifetime
        est = lambda x: mean_past_lifetime(x, 5, 1.0)
        kinks = _estimator(FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=1.0), 5).kinks(12.0)
        v1, e1 = expectation(est, 5, 1.0, rel_tol=1e-8, kinks=kinks)
        v2, _ = expectation(est, 5, 1.0, rel_tol=5e-9, kinks=kinks)
        assert abs(v2 - v1) <= e1

    def test_rejects_bad_tolerance(self):
        for rel_tol in (0.0, math.nan):
            with pytest.raises(DomainError):
                expectation(lambda x: x, 2, 1.0, rel_tol=rel_tol)


class TestVerifyUnbiasedness:
    def test_quantile_cell(self):
        r = verify_unbiasedness(FunctionalSpec(Kind.QUANTILE, q=0.5), 3, 2.0)
        assert r.target == pytest.approx(-math.log(0.5) / 2.0, rel=1e-14)
        assert r.rel_bias < 1e-9
        assert r.estimator_family is Family.CLOSED_FORM_UNBIASED

    def test_moment_linear_cell(self):
        r = verify_unbiasedness(FunctionalSpec(Kind.MOMENT, p=1.0), 4, 1.0)
        assert r.rel_bias < 1e-12

    def test_mgf_cell(self):
        r = verify_unbiasedness(FunctionalSpec(Kind.MGF, t=0.5), 4, 1.0)
        assert r.target == pytest.approx(2.0, rel=1e-14)
        assert r.rel_bias < 1e-8

    def test_report_invariants(self):
        r = verify_unbiasedness(FunctionalSpec(Kind.SURVIVAL, t=1.0), 5, 1.0)
        assert r.abs_bias == pytest.approx(abs(r.oracle_expectation - r.target))
        assert r.rel_bias == pytest.approx(r.abs_bias / abs(r.target))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verify,spec,n", [
        (verify_unbiasedness, FunctionalSpec(Kind.MOMENT, p=30.0), 30),
        (verify_unbiasedness, FunctionalSpec(Kind.MOMENT, p=12.0), 2),
        (verify_unbiasedness, FunctionalSpec(Kind.RATE_POWER, p=-11.5), 2),
        (verify_tate_bias, FunctionalSpec(Kind.RATE_POWER, p=-11.5), 2),
    ], ids=["moment-p30-n30", "moment-p12-n2", "rate-power-p-11.5-n2",
            "tate-rate-power-p-11.5-n2"])
    def test_power_window_covers_the_integrand(self, verify, spec, n):
        # c mean^r times the Gamma(n) density has a Gamma(n + r) shape; the
        # Gamma(n) window ended before its mass (rel_bias 8.7e-6, 4.5e-7,
        # 2.5e-7 and 2.5e-7)
        assert verify(spec, n, 1.0).rel_bias < 1e-13

    def test_target_is_looked_up_at_call_time(self, monkeypatch):
        # a profiler replaces oracle.target_value; the oracle calls the replacement
        calls = []
        monkeypatch.setattr(oracle, "target_value",
                            lambda spec, lam: calls.append(lam) or target_value(spec, lam))
        verify_unbiasedness(FunctionalSpec(Kind.QUANTILE, q=0.5), 3, 2.0)
        assert calls == [2.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_mgf_rate_at_or_below_its_pole(self, lam):
        # the integrand decays at rate n (lambda - t), which is not positive
        with pytest.raises(DomainError, match="lambda"):
            verify_unbiasedness(FunctionalSpec(Kind.MGF, t=0.5), 4, lam)

    def test_mean_past_lifetime_kinks_from_tail(self):
        spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.5)
        pts = _estimator(spec, 5).kinks(8.0)
        assert pts[0] == pytest.approx(0.1)
        assert len(pts) == math.ceil(5 * 8.0 / 0.5)

    @pytest.mark.parametrize("n", [1000, 5000, 10_000])
    @pytest.mark.parametrize("spec", [
        FunctionalSpec(Kind.QUANTILE, q=0.5),
        FunctionalSpec(Kind.MOMENT, p=0.5),
        FunctionalSpec(Kind.RATE_POWER, p=1.5),
        FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.9),
        FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=2),
        FunctionalSpec(Kind.MGF, t=0.5),
        FunctionalSpec(Kind.SURVIVAL, t=1.0),
    ], ids=lambda s: s.kind.value)
    def test_large_n_certifies_to_near_rounding(self, spec, n):
        # neither the density's normaliser nor the Gamma-ratio coefficients
        # may lose digits as n grows
        assert verify_unbiasedness(spec, n, 1.0).rel_bias <= 1e-13

    @pytest.mark.parametrize("spec", [FunctionalSpec(Kind.QUANTILE, q=0.5),
                                      FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.5)],
                             ids=lambda s: s.kind.value)
    def test_cutoff_beyond_double_range_names_lambda(self, spec):
        # the Gamma(n, n lambda) cutoff overflows to inf: a typed error before
        # any quadrature, not invalid-value warnings and a message about the mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="lambda = 1e-320"):
                verify_unbiasedness(spec, 5, 1e-320)
            with pytest.raises(DomainError, match="lambda = 1e-320"):
                expectation(lambda x: x, 5, 1e-320)

    @pytest.mark.parametrize("spec,n", [
        (FunctionalSpec(Kind.SURVIVAL, t=1.0), 1),
        (FunctionalSpec(Kind.PDF, t=1.0), 2),
        (FunctionalSpec(Kind.MIN_SURVIVAL, t=1.0, m=3), 200),
        (FunctionalSpec(Kind.MIN_SURVIVAL, t=1.0, m=3), 2),
    ], ids=lambda v: v.kind.value if isinstance(v, FunctionalSpec) else str(v))
    def test_small_targets_certify(self, spec, n):
        # targets far below the density's 1e-16 tail mass (e^-30 to e^-90):
        # a window [0, U] taken from the density alone read these correct
        # estimators as biased by 1e-3 to 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_unbiasedness(spec, n, 30.0).rel_bias < 1e-9

    @pytest.mark.parametrize("spec", [FunctionalSpec(Kind.RATE_POWER, p=0.9),
                                      FunctionalSpec(Kind.MOMENT, p=-0.9)],
                             ids=lambda s: s.kind.value)
    def test_singular_integrand_at_zero(self, spec):
        # at n = 1 the integrand grows like x^-0.9 at 0, which no subdivision
        # of the 15-point rule followed to 1e-9
        assert verify_unbiasedness(spec, 1, 1.0).rel_bias < 1e-12

    @pytest.mark.parametrize("spec", [
        FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.1658),
        FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.1807),
        FunctionalSpec(Kind.MAX_CDF_POWER, t=0.3553, m=3),
    ], ids=lambda s: f"{s.kind.value}-{s.t}")
    def test_kinks_of_exponent_four_are_split(self, spec):
        # at n = 5 the estimator is C^3 at its kinks; integrated across them
        # unsplit these cells read 3.0e-9, 1.3e-9 and 6.8e-10
        assert verify_unbiasedness(spec, 5, 1.0).rel_bias < 1e-12

    def test_mean_past_lifetime_dense_kinks(self):
        # about 50,000 kinks tk/n below the cutoff, where the estimator is C^998
        spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.05)
        assert verify_unbiasedness(spec, 1000, 0.5).rel_bias < 1e-9

    def test_mean_past_lifetime_large_n(self):
        # about 13000 kinks, each integrand call a few hundred thousand points
        spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.1)
        rep = verify_unbiasedness(spec, 1000, 1.0)
        assert rep.rel_bias < 1e-9


class TestTateEstimators:
    def test_rate_power_indicator_boundary(self):
        # p < n-1 fails at p=1, n=2
        with pytest.raises(DomainError):
            tate_estimate(FunctionalSpec(Kind.RATE_POWER, p=1.0), 1.0, 2)

    def test_rate_power_value(self):
        # Gamma(4)/(5 Gamma(3)) = 3/5
        res = tate_estimate(FunctionalSpec(Kind.RATE_POWER, p=1.0), 1.0, 5)
        assert res.value == pytest.approx(0.6, rel=1e-13)
        assert res.estimator_family is Family.TATE_BIASED

    def test_quantile_factor_two_at_n2(self):
        res = tate_estimate(FunctionalSpec(Kind.QUANTILE, q=0.5), 1.0, 2)
        assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-13)

    def test_unsupported_kind(self):
        spec = FunctionalSpec(Kind.MOMENT, p=1.0)
        for call in (lambda: tate_estimate(spec, 1.0, 5),
                     lambda: tate_expected_value(spec, 5, 1.0),
                     lambda: verify_tate_bias(spec, 5, 1.0)):
            with pytest.raises(SpecError, match="no Tate form"):
                call()

    def test_requires_n_ge_2(self):
        with pytest.raises(DomainError):
            tate_estimate(FunctionalSpec(Kind.QUANTILE, q=0.5), 1.0, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2.5])
    def test_every_path_requires_integer_n_ge_2(self, n):
        # every Tate path gave a number at n = 2.5
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        for call in (lambda: tate_estimate(spec, 1.0, n),
                     lambda: tate_expected_value(spec, n, 1.0),
                     lambda: verify_tate_bias(spec, n, 1.0)):
            with pytest.raises(DomainError):
                call()

    def test_defined_in_estimators(self):
        # one builder serves both families; oracle re-exports the 1959 names
        for name in ("tate_estimate", "tate_expected_value", "tate_phi_function"):
            assert getattr(oracle, name) is getattr(estimators, name)

    @pytest.mark.parametrize("mean", [-1.0, 0.0, math.nan])
    @pytest.mark.parametrize("spec", [FunctionalSpec(Kind.RATE_POWER, p=0.5),
                                      FunctionalSpec(Kind.QUANTILE, q=0.5),
                                      FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2)],
                             ids=lambda s: s.kind.value)
    def test_rejects_invalid_mean(self, spec, mean):
        # the same check on the mean as the corrected estimators, not a
        # number from the raw kernel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sample mean"):
                tate_estimate(spec, mean, 5)


class TestTateExpectedValue:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_rate(self, lam):
        # lambda = nan returned nan, and inf a number
        with pytest.raises(DomainError, match="lambda"):
            tate_expected_value(FunctionalSpec(Kind.QUANTILE, q=0.5), 3, lam)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_range_error(self):
        # lambda^p overflowed as an untyped OverflowError
        spec = FunctionalSpec(Kind.RATE_POWER, p=106.0)
        with pytest.raises(RangeError):
            tate_expected_value(spec, 148, 854.0)
        with pytest.raises(RangeError):
            verify_tate_bias(spec, 148, 854.0)

    def test_rate_power_row(self):
        spec = FunctionalSpec(Kind.RATE_POWER, p=1.0)
        assert tate_expected_value(spec, 3, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_quantile_row_factor(self):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.3)
        for n in (2, 3, 10):
            ratio = tate_expected_value(spec, n, 1.7) / target_value(spec, 1.7)
            assert ratio == pytest.approx(n / (n - 1.0), rel=1e-14)

    def test_max_row_against_derivative_identity(self):
        # independent oracle: E[phi*] = xi(lam) - lam xi'(lam)/(n-1), with
        # xi'(lam) from a central finite difference
        spec = FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=2)
        lam, n, h = 1.3, 6, 1e-6
        xi = lambda v: (1.0 - math.exp(-v * spec.t)) ** spec.m
        xi_prime = (xi(lam + h) - xi(lam - h)) / (2.0 * h)
        expected = xi(lam) - lam * xi_prime / (n - 1.0)
        assert tate_expected_value(spec, n, lam) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1e-6, 1e-10, 1e-17, 0.5])
    def test_max_row_at_small_rate_against_mpmath(self, lam):
        # 1 - e^(lam t) cancelled: 8.3e-8 relative at lam = 1e-10, and at
        # lam = 1e-17 it was 0 and the call a RangeError
        import mpmath as mp
        spec, n = FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=2), 5
        with mp.workdps(50):
            u = mp.mpf(lam) * spec.t
            ref = (mp.mpf(lam) * spec.m * spec.t / ((n - 1) * (1 - mp.exp(u))) + 1) \
                * (1 - mp.exp(-u)) ** spec.m
        assert tate_expected_value(spec, n, lam) == pytest.approx(float(ref), rel=1e-15)


class TestTateBiasReproduction:
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_rate_power(self, n):
        r = verify_tate_bias(FunctionalSpec(Kind.RATE_POWER, p=0.5), n, 1.0)
        assert r.rel_bias < 1e-8

    @pytest.mark.parametrize("n,q", [(2, 0.25), (3, 0.5), (10, 0.9)])
    def test_quantile(self, n, q):
        r = verify_tate_bias(FunctionalSpec(Kind.QUANTILE, q=q), n, 0.5)
        assert r.rel_bias < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_max(self, m):
        r = verify_tate_bias(FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=m), 5, 2.0)
        assert r.rel_bias < 1e-8

    def test_bias_is_visible_against_corrected_target(self):
        # the Tate expectation differs from the true functional everywhere
        # on this grid, while the corrected estimator matches it
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        for n in (2, 3, 10):
            gap = abs(tate_expected_value(spec, n, 1.0) - target_value(spec, 1.0))
            assert gap > 0.01
            assert verify_unbiasedness(spec, n, 1.0).rel_bias < 1e-9


# every closed-form kind at the verify subcommand's default parameters
_ROW_SPECS = [
    FunctionalSpec(Kind.RATE_POWER, p=0.5), FunctionalSpec(Kind.QUANTILE, q=0.5),
    FunctionalSpec(Kind.MOMENT, p=2.0), FunctionalSpec(Kind.SURVIVAL, t=0.5),
    FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2), FunctionalSpec(Kind.MIN_SURVIVAL, t=0.5, m=2),
    FunctionalSpec(Kind.PDF, t=0.5), FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.5),
    FunctionalSpec(Kind.MGF, t=0.5), FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
]
_TATE_SPECS = [spec for spec in _ROW_SPECS if _CATALOGUE[spec.kind].tate_phi is not None]


def _outcome(call):
    try:
        return call()
    except ExpunbiasError as exc:
        return exc


def _same(row_outcome, cell_outcome):
    # the same report bit for bit, or the same error type and message
    if isinstance(cell_outcome, ExpunbiasError):
        return type(row_outcome) is type(cell_outcome) and str(row_outcome) == str(cell_outcome)
    return row_outcome == cell_outcome


class TestVerifyRow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family,specs,ns", [
        (Family.CLOSED_FORM_UNBIASED, _ROW_SPECS, (1, 2, 5, 10, 30, 100, 200)),
        (Family.TATE_BIASED, _TATE_SPECS, (2, 3, 10, 30)),
        # more means below the direct-sum switch, and kinks split up to n = 7
        (Family.CLOSED_FORM_UNBIASED, [FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.05)],
         (1, 2, 3, 7, 8, 30, 200)),
    ], ids=["corrected", "tate", "mean-past-lifetime-t0.05"])
    def test_row_equals_its_cells(self, family, specs, ns, monkeypatch):
        # one pass over a row gives each cell's value, quad_err, segment count
        # and target to the bit, and the error a cell raises alone
        segments = []

        def spy(*args, **kwargs):
            out = gauss_kronrod_row(*args, **kwargs)
            segments.extend(o[2] if isinstance(o, tuple) else None for o in out)
            return out
        monkeypatch.setattr(oracle, "gauss_kronrod_row", spy)
        verify = verify_tate_bias if family is Family.TATE_BIASED else verify_unbiasedness
        lams = [0.5, 1.0, 2.0]
        for spec in specs:
            for n in ns:
                segments.clear()
                try:
                    row = verify_row(spec, n, family, lams)
                except DomainError:  # the estimator does not build at this n
                    with pytest.raises(DomainError):
                        verify(spec, n, 1.0)
                    continue
                row_segments = segments[:]
                segments.clear()
                for lam, got in zip(lams, row):
                    want = _outcome(lambda: verify(spec, n, lam))
                    assert _same(got, want), (spec, n, lam, got, want)
                assert row_segments == segments, (spec, n)

    @pytest.mark.parametrize("spec,n,bad,error", [
        (FunctionalSpec(Kind.QUANTILE, q=0.5), 5, 1e-320, DomainError),
        # the target lambda^p leaves double range
        (FunctionalSpec(Kind.RATE_POWER, p=106.0), 148, 854.0, RangeError),
        # eps-level cancellation noise in the estimator: no refinement converges
        (FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=5), 2, 0.00667, QuadratureError),
    ], ids=["window", "target", "quadrature"])
    def test_failing_cell_keeps_its_error(self, spec, n, bad, error):
        with pytest.raises(error) as alone:
            verify_unbiasedness(spec, n, bad)
        first, middle, last = verify_row(spec, n, Family.CLOSED_FORM_UNBIASED, [1.0, bad, 2.0])
        assert type(middle) is error and str(middle) == str(alone.value)
        assert first == verify_unbiasedness(spec, n, 1.0)
        assert last == verify_unbiasedness(spec, n, 2.0)

    def test_build_error_is_raised_for_the_row(self):
        with pytest.raises(DomainError, match="density estimator requires n >= 2"):
            verify_row(FunctionalSpec(Kind.PDF, t=1.0), 1, Family.CLOSED_FORM_UNBIASED, [1.0])

    def test_standard_window_is_cached_per_shape(self):
        oracle._standard_window.cache_clear()
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        verify_row(spec, 7, Family.CLOSED_FORM_UNBIASED, [0.5, 1.0, 2.0])
        verify_unbiasedness(spec, 7, 3.0)
        info = oracle._standard_window.cache_info()
        assert (info.misses, info.hits) == (1, 3)


def _alone(g, a, b, breakpoints=(), **options):
    # one integral refined by itself: a row of one
    out, = gauss_kronrod_row(lambda active, xs: [g(xs[0])], [(a, b, breakpoints)], **options)
    return out


class TestGaussKronrodRow:
    def test_exhausted_integral_leaves_the_others(self, monkeypatch):
        # one integral cannot converge within 64 segments; the two smooth ones
        # still converge, to the numbers they reach alone
        monkeypatch.setattr(_quadrature, "_MAX_SEGMENTS", 64)
        wild = lambda x: np.sqrt(np.abs(np.sin(7.0 / (x + 1e-12))))
        fs = [np.exp, wild, np.cos]
        calls = []

        def f(active, xs):
            calls.append(list(active))
            return [fs[i](x) for i, x in zip(active, xs)]
        out = gauss_kronrod_row(f, [(0.0, 2.0, ()), (0.0, 2.0, ()), (0.0, 3.0, [1.0])],
                                rel_tol=1e-12)
        assert out[0] == _alone(np.exp, 0.0, 2.0, rel_tol=1e-12)
        assert out[2] == _alone(np.cos, 0.0, 3.0, [1.0], rel_tol=1e-12)
        assert isinstance(out[1], QuadratureError) and out[1].segments == 64
        assert calls[0] == [0, 1, 2] and all(1 in c for c in calls)

    def test_error_from_the_integrand_ends_only_its_integral(self):
        def f(active, xs):
            return [RangeError("out") if i == 0 else np.exp(x) for i, x in zip(active, xs)]
        bad, good = gauss_kronrod_row(f, [(0.0, 1.0, ()), (0.0, 1.0, ())])
        assert isinstance(bad, RangeError)
        assert good == _alone(np.exp, 0.0, 1.0)
