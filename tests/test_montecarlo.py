"""Monte Carlo harness tests: determinism, statistical sanity at reduced
replication counts, the direct Gamma(n) draw of the mean, the vectorised
target, the delta-method variance table and the CLT diagnostics.
The full 1e6-replication sweeps live in the acceptance suite."""

import csv
import io
import math

import numpy as np
import pytest
from scipy import special, stats

from expunbias import cli, montecarlo
from expunbias.errors import (DegenerateError, DomainError,
                              NondifferentiableError, RangeError)
from expunbias.estimators import (Family, FunctionalSpec, Kind, phi_function,
                                  target_value)
from expunbias.laplace import TransferFunction
from expunbias.montecarlo import (BLOCK_SIZE, McConfig, McSummary, _collect,
                                  _draw_block, _draw_means, asymptotic_variance, clt_check,
                                  clt_replicates, clt_summary, empirical_bias,
                                  sample_exponential, variance_comparison)


class TestSampling:
    def test_golden_sequence(self):
        # first three draws for Philox key (12345, block 0), lambda = 1
        gen = np.random.Generator(np.random.Philox(key=[12345, 0]))
        s = sample_exponential(1.0, 3, gen)
        assert s.observations == pytest.approx(
            (0.4363674213434371, 0.2558377316606366, 0.24024359736626516), rel=1e-15)

    def test_empirical_mean(self):
        gen = np.random.Generator(np.random.Philox(key=[7, 0]))
        n = 10 ** 5
        s = sample_exponential(2.0, n, gen)
        se = 0.5 / math.sqrt(n)
        assert abs(s.mean - 0.5) < 4.0 * se

    def test_empirical_tail_probability(self):
        gen = np.random.Generator(np.random.Philox(key=[8, 0]))
        n = 10 ** 5
        s = sample_exponential(1.0, n, gen)
        p_hat = np.mean(np.asarray(s.observations) > 1.0)
        target = math.exp(-1.0)
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(p_hat - target) < 4.0 * se

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam,n", [(1.0, 2.5), (1.0, 0), (math.nan, 3), (-1.0, 3),
                                       ("x", 3)])
    def test_rejects_bad_arguments(self, lam, n):
        # n = 2.5 and lambda = "x" were untyped TypeErrors
        with pytest.raises(DomainError):
            sample_exponential(lam, n, np.random.default_rng(1))


class TestConfig:
    @pytest.mark.filterwarnings("error")
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(0, 5, 1.0, 1)
        with pytest.raises(DomainError):
            McConfig(10, 0, 1.0, 1)
        with pytest.raises(DomainError):
            McConfig(10, 5, -1.0, 1)
        with pytest.raises(DomainError):
            McConfig(10, 5, 1.0, -1)
        with pytest.raises(DomainError):
            McConfig(10, 5, 1.0, 2 ** 64)
        with pytest.raises(DomainError):
            McConfig(10, 5, 1.0, 1, parallel_chunks=0)
        # accepted before: 2.5 replications or n failed later as a TypeError,
        # and a seed of 1.5 ran
        with pytest.raises(DomainError, match="replications"):
            McConfig(2.5, 5, 1.0, 1)
        with pytest.raises(DomainError, match="sample size n"):
            McConfig(10, 2.5, 1.0, 1)
        with pytest.raises(DomainError, match="seed"):
            McConfig(10, 5, 1.0, 1.5)
        with pytest.raises(DomainError, match="lambda"):
            McConfig(10, 5, math.nan, 1)
        with pytest.raises(DomainError, match="parallel_chunks"):
            McConfig(10, 5, 1.0, 1, parallel_chunks=1.5)


class TestDeterminism:
    def test_chunking_is_invisible(self):
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        reps = 3 * BLOCK_SIZE + 17
        serial = empirical_bias(spec, McConfig(reps, 4, 1.0, 99, parallel_chunks=1))
        chunked = empirical_bias(spec, McConfig(reps, 4, 1.0, 99, parallel_chunks=5))
        assert serial == chunked  # bit-identical dataclasses

    def test_seed_changes_results(self):
        spec = FunctionalSpec(Kind.MOMENT, p=1.0)
        a = empirical_bias(spec, McConfig(1000, 4, 1.0, 1))
        b = empirical_bias(spec, McConfig(1000, 4, 1.0, 2))
        assert a.mean != b.mean

    def test_repeat_is_bit_identical(self):
        spec = FunctionalSpec(Kind.MGF, t=0.1)
        cfg = McConfig(5000, 3, 1.0, 31)
        assert empirical_bias(spec, cfg) == empirical_bias(spec, cfg)


class TestEmpiricalBias:
    def test_moment_p1_unbiased(self):
        spec = FunctionalSpec(Kind.MOMENT, p=1.0)
        s = empirical_bias(spec, McConfig(10 ** 5, 5, 2.0, 11))
        assert abs(s.mean - 0.5) < 4.0 * s.std_error
        assert s.std_error == pytest.approx(math.sqrt(s.variance / s.replications))

    def test_survival_unbiased(self):
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        s = empirical_bias(spec, McConfig(2 * 10 ** 5, 5, 1.0, 12))
        assert abs(s.mean - math.exp(-1.0)) < 4.0 * s.std_error

    def test_tate_quantile_shows_factor_two(self):
        # at n = 2 the biased estimator overshoots the target by a factor 2
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        cfg = McConfig(2 * 10 ** 5, 2, 1.0, 13)
        s = empirical_bias(spec, cfg, estimator_family=Family.TATE_BIASED)
        target = target_value(spec, 1.0)
        assert s.mean > 1.8 * target
        assert abs(s.mean - 2.0 * target) < 4.0 * s.std_error

    def test_mle_moment_family(self):
        spec = FunctionalSpec(Kind.MOMENT, p=2.0)
        s = empirical_bias(spec, McConfig(10 ** 5, 5, 1.0, 14),
                           estimator_family=Family.MLE_PLUGIN)
        # the moment/MLE estimator is unbiased for the pth moment too
        assert abs(s.mean - 2.0) < 4.0 * s.std_error


class TestVarianceComparison:
    def test_p1_everything_agrees(self):
        emp_u, emp_m, cu, cm = variance_comparison(1.0, McConfig(10 ** 5, 5, 1.0, 21))
        assert cu == pytest.approx(cm, rel=1e-12)
        assert cu == pytest.approx(1.0 / 5.0, rel=1e-12)
        assert emp_u.variance == pytest.approx(emp_m.variance, rel=1e-9)

    def test_frozen_closed_forms(self):
        _, _, cu, cm = variance_comparison(2.0, McConfig(10, 5, 1.0, 2))
        assert cu == pytest.approx(52.0 / 15.0, rel=1e-12)
        assert cm == pytest.approx(4.0, rel=1e-12)

    def test_negative_p_dominance(self):
        _, _, cu, cm = variance_comparison(-0.4, McConfig(10, 10, 1.0, 2))
        assert cu < cm

    def test_domain(self):
        with pytest.raises(DomainError):
            variance_comparison(-0.6, McConfig(10, 5, 1.0, 2))
        with pytest.raises(DomainError):
            variance_comparison(0.0, McConfig(10, 5, 1.0, 2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p,lam", [(400.0, 1000.0), (60.0, 0.001)])
    def test_overflow_is_range_error(self, p, lam):
        # the exact variance overflowed as an OverflowError; at p = 60 the
        # empirical variance first warned of an overflow in its square
        with pytest.raises(RangeError):
            variance_comparison(p, McConfig(300, 5, lam, 1))


class TestAsymptoticVariance:
    def test_moment_p1(self):
        spec = FunctionalSpec(Kind.MOMENT, p=1.0)
        assert asymptotic_variance(spec, 10, 2.0) == pytest.approx(0.25, rel=1e-12)

    def test_quantile(self):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        assert asymptotic_variance(spec, 10, 1.0) == pytest.approx(
            math.log(2.0) ** 2, rel=1e-12)

    def test_survival_matches_manual_derivative(self):
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        n, lam = 5, 1.0
        mu, a = 1.0 / lam, 1.0 / n
        deriv = (n - 1) * (1 - a / mu) ** (n - 2) * a / mu ** 2
        assert asymptotic_variance(spec, n, lam) == pytest.approx(
            (deriv / lam) ** 2, rel=1e-10)

    # 1/lambda = 1.25 at n = 2 and 200 sits on no kink of these specs (at
    # lambda = 1, n = 2 it would sit on the max-cdf-power kink 2t/n)
    @pytest.mark.parametrize("n,lam", [(2, 0.8), (6, 1.0), (200, 0.8)])
    @pytest.mark.parametrize("kind,params", [
        (Kind.RATE_POWER, {"p": 0.5}),
        (Kind.QUANTILE, {"q": 0.3}),
        (Kind.MOMENT, {"p": 2.0}),
        (Kind.SURVIVAL, {"t": 1.0}),
        (Kind.MAX_CDF_POWER, {"t": 1.0, "m": 2}),
        (Kind.MIN_SURVIVAL, {"t": 1.0, "m": 2}),
        (Kind.PDF, {"t": 1.0}),
        (Kind.MEAN_PAST_LIFETIME, {"t": 0.7}),
        (Kind.MGF, {"t": 0.3}),
        (Kind.EXPECTED_SHORTFALL, {"p": 0.9}),
    ])
    def test_analytic_derivative_survives_fd_validation(self, kind, params, n, lam):
        # asymptotic_variance cross-checks the estimator's analytic derivative
        # against a central finite difference internally; passing means they agree
        if kind is Kind.MAX_CDF_POWER and n == 2:
            lam = 1.25  # at n = 2 this estimator is flat above 2t/n = 1
        spec = FunctionalSpec(kind, **params)
        assert asymptotic_variance(spec, n, lam) > 0.0

    def test_kink_detection(self):
        # 1/lambda exactly on the survival indicator kink t/n
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        with pytest.raises(NondifferentiableError):
            asymptotic_variance(spec, 2, 2.0)

    def test_smooth_kinks_pass(self):
        # kinks tk/n lie within the finite-difference step of 1/lambda, but
        # the estimator is C^(n-2) there
        spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.05)
        assert asymptotic_variance(spec, 2000, 0.47) > 0.0

    def test_dead_zone_is_degenerate(self):
        # 1/lambda below t/n: the estimator is flat zero there
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        with pytest.raises(DegenerateError):
            asymptotic_variance(spec, 2, 5.0)

    def test_mgf_t0_degenerate(self):
        spec = FunctionalSpec(Kind.MGF, t=0.0)
        with pytest.raises(DegenerateError):
            asymptotic_variance(spec, 5, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_variance_is_degenerate(self):
        # the derivative is about 1e-133 and its square underflows to 0, so
        # clt divided by it: ZeroDivisionError
        spec = FunctionalSpec(Kind.MGF, t=-4.21955302971196)
        with pytest.raises(DegenerateError):
            asymptotic_variance(spec, 1, 0.0111)

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError, match="lambda"):
            asymptotic_variance(FunctionalSpec(Kind.QUANTILE, q=0.5), 5, math.nan)

    @pytest.mark.parametrize("n", [1, 2, 30, 200, 1000, 10_000])
    @pytest.mark.parametrize("t", [-2.0, 0.5])
    def test_mgf_against_mpmath(self, n, t):
        # phi'(mean) = t M(2, n+1, n t mean); the reference is 50-digit
        # mpmath (which needs more than its default terms at n = 10^4)
        import mpmath as mp
        lam = 1.0
        with mp.workdps(50):
            deriv = t * mp.hyp1f1(2, n + 1, n * mp.mpf(t) / lam, maxterms=10 ** 6)
            ref = float((deriv / lam) ** 2)
        got = asymptotic_variance(FunctionalSpec(Kind.MGF, t=t), n, lam)
        assert got == pytest.approx(ref, rel=1e-13)


class TestDerivativeCheck:
    """asymptotic_variance checks the analytic derivative against a central
    difference to 1e-6 relative plus the difference's own rounding error."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec,n,lam", [
        (FunctionalSpec(Kind.MOMENT, p=1e-7), 16406, 1.0000001),
        (FunctionalSpec(Kind.MGF, t=8.918e-05), 8202, 32.13),
    ], ids=["moment-p1e-7", "mgf-small-t"])
    def test_small_slope_is_accepted(self, spec, n, lam):
        # the difference rounds phi ~ 1 to eps / h = 4e-11, above 1e-6 of a
        # slope of 1e-7: a correct derivative read as NondifferentiableError
        deriv = montecarlo._estimator(spec, n).prime(1.0 / lam)
        assert asymptotic_variance(spec, n, lam) == (deriv / lam) ** 2

    @pytest.mark.parametrize("spec,n,lam,factor", [
        (FunctionalSpec(Kind.QUANTILE, q=0.5), 10, 1.0, 1.0 + 1e-5),
        (FunctionalSpec(Kind.MOMENT, p=2.0), 30, 0.8, 1.0 - 1e-5),
        (FunctionalSpec(Kind.SURVIVAL, t=1.0), 5, 1.0, 1.0 + 1e-5),
        (FunctionalSpec(Kind.MGF, t=0.3), 6, 1.0, 1.0 + 1e-5),
        (FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.7), 200, 0.8, 1.0 + 1e-5),
        (FunctionalSpec(Kind.MOMENT, p=1e-7), 16406, 1.0000001, 1.0 + 1e-2),
    ], ids=["quantile", "moment", "survival", "mgf", "mean-past-lifetime", "moment-p1e-7"])
    def test_wrong_derivative_is_refused(self, monkeypatch, spec, n, lam, factor):
        build = montecarlo._estimator

        def perturbed(spec, n):
            est = build(spec, n)
            return est._replace(prime=lambda mu: factor * est.prime(mu))
        monkeypatch.setattr(montecarlo, "_estimator", perturbed)
        with pytest.raises(NondifferentiableError, match="finite difference"):
            asymptotic_variance(spec, n, lam)


class TestCltCheck:
    def test_moment_p1_pilot(self):
        spec = FunctionalSpec(Kind.MOMENT, p=1.0)
        s = clt_check(spec, McConfig(2 * 10 ** 4, 200, 1.0, 41))
        assert isinstance(s, McSummary)
        assert s.ks_statistic < 0.03
        assert abs(s.mean) < 0.05
        assert abs(s.variance - 1.0) < 0.05
        skew, exkurt = s.standardized_moments
        # mean of 200 exponentials: skewness 2/sqrt(200) ~ 0.141
        assert abs(skew - 2.0 / math.sqrt(200.0)) < 0.1
        assert abs(exkurt) < 0.3

    def test_ks_decreases_through_n_chain(self):
        # exact KS to the normal is ~0.074 / 0.047 / 0.024 at n = 20/50/200,
        # well separated relative to ~0.005 of Monte Carlo noise here
        spec = FunctionalSpec(Kind.MOMENT, p=2.0)
        ks = [clt_check(spec, McConfig(2 * 10 ** 4, n, 1.0, 42)).ks_statistic
              for n in (20, 50, 200)]
        assert ks[0] > ks[1] > ks[2]

    def test_degenerate_raises(self):
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        with pytest.raises(DegenerateError):
            clt_check(spec, McConfig(100, 2, 5.0, 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [np.array([0.3]), np.full(10, 2.0)])
    def test_equal_replicates_are_degenerate(self, z):
        # a zero second moment was a ZeroDivisionError (clt --reps 1)
        with pytest.raises(DegenerateError, match="all equal"):
            clt_summary(z)
        if z.size == 1:
            with pytest.raises(DegenerateError):
                clt_check(FunctionalSpec(Kind.QUANTILE, q=0.5), McConfig(1, 5, 1.0, 3))

    @pytest.mark.filterwarnings("error")
    def test_moments_out_of_range_raise(self):
        # c^3 overflowed with a RuntimeWarning and gave inf or nan moments
        with pytest.raises(RangeError):
            clt_summary(np.array([1e200, -1e200, 0.0]))
        # replicates near -2.675e128 that differ from the 4th digit: c^3 overflows
        spec = FunctionalSpec(Kind.MGF, t=-4.381588271667991)
        with pytest.raises(RangeError, match="moment"):
            clt_check(spec, McConfig(3, 1, 0.014264233908999256, 11))

    def test_deterministic(self):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        cfg = McConfig(10 ** 4, 50, 1.0, 77, parallel_chunks=3)
        assert clt_check(spec, cfg) == clt_check(spec, cfg)


class TestMeanDrawer:
    """The x-bar paths draw the replicate means directly from Gamma(n, n*lam)."""

    def test_golden_streams(self):
        # first three draws of block 0 for seed 12345 on SFC64, lambda = 1
        assert _draw_means(12345, 0, 3, 30, 1.0).tolist() == pytest.approx(
            [1.0996056139021124, 1.0646900184902186, 1.1055740455637268], rel=1e-15)
        assert _draw_block(12345, 0, 1, 3, 1.0)[0].tolist() == pytest.approx(
            [1.654420924298928, 1.183580993582341, 0.7105820934735774], rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 30, 200])
    def test_matches_gamma_law(self, n):
        lam = 1.5
        means = _draw_means(2024, 0, BLOCK_SIZE, n, lam)
        law = stats.gamma(n, scale=1.0 / (n * lam))
        # a false alarm on correct code has probability 1e-3 per case
        assert stats.kstest(means, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 30])
    def test_prefix_and_block_key(self, n):
        full = _draw_means(5, 3, BLOCK_SIZE, n, 1.0)
        for rows in (1, 17, 5000):
            assert np.array_equal(_draw_means(5, 3, rows, n, 1.0), full[:rows])
        assert not np.array_equal(_draw_means(5, 4, 17, n, 1.0), full[:17])
        assert not np.array_equal(_draw_means(6, 3, 17, n, 1.0), full[:17])

    def test_collect_rows_follow_block_keys(self):
        reps = BLOCK_SIZE + 100
        cfg = McConfig(reps, 7, 2.0, 13, parallel_chunks=2)
        means, = _collect(cfg, lambda xbar: (xbar,), 1, _draw_means)
        assert np.array_equal(means[:BLOCK_SIZE], _draw_means(13, 0, BLOCK_SIZE, 7, 2.0))
        assert np.array_equal(means[BLOCK_SIZE:], _draw_means(13, 1, 100, 7, 2.0))

    def test_zero_gamma_draw_is_floored(self, monkeypatch):
        # numpy's exponential (standard_gamma at shape 1) can return 0.0
        class ZeroDraws:
            def __init__(self, bit_generator):
                pass

            def standard_gamma(self, shape, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "Generator", ZeroDraws)
        means = _draw_means(1, 0, 8, 1, 1.0)
        assert np.all(means > 0.0)
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        assert empirical_bias(spec, McConfig(8, 1, 1.0, 1)).mean > 0.0

    @pytest.mark.parametrize("spec", [
        FunctionalSpec(Kind.SURVIVAL, t=1.0),
        FunctionalSpec(Kind.RATE_POWER, p=0.5),
    ])
    def test_agrees_with_full_draw_path(self, spec):
        cfg = McConfig(2 * 10 ** 5, 5, 1.0, 15)
        phi = phi_function(spec, cfg.n)
        full, = _collect(cfg, lambda x: (phi(x.mean(axis=1)),), 1)
        direct = empirical_bias(spec, cfg)
        se = math.sqrt(np.var(full, ddof=1) / full.size + direct.std_error ** 2)
        assert abs(full.mean() - direct.mean) < 5.0 * se


_MLE_SPECS = [
    FunctionalSpec(Kind.RATE_POWER, p=0.5),
    FunctionalSpec(Kind.RATE_POWER, p=-2.0, allow_negative_integer_p=True),
    FunctionalSpec(Kind.QUANTILE, q=0.3),
    FunctionalSpec(Kind.MOMENT, p=2.5),
    FunctionalSpec(Kind.SURVIVAL, t=0.7),
    FunctionalSpec(Kind.MAX_CDF_POWER, t=0.7, m=3),
    FunctionalSpec(Kind.MIN_SURVIVAL, t=0.7, m=2),
    FunctionalSpec(Kind.PDF, t=0.7),
    FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.7),
    FunctionalSpec(Kind.MGF, t=0.005),
    FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.9),
    FunctionalSpec(Kind.CUSTOM, custom_transform=TransferFunction(lambda s: s / (s + 1.0))),
]


class TestVectorTarget:
    @pytest.mark.parametrize("spec", _MLE_SPECS, ids=lambda s: s.kind.value)
    def test_array_matches_scalar(self, spec):
        lams = np.logspace(-2.0, 2.0, 201)
        vec = target_value(spec, lams)
        scalar = np.array([target_value(spec, float(v)) for v in lams])
        assert isinstance(vec, np.ndarray) and vec.shape == lams.shape
        # numpy and math agree to an ulp or so; the mean-past-lifetime
        # difference t/(1-e^{-lam t}) - 1/lam cancels up to ~400x on this grid
        np.testing.assert_allclose(vec, scalar, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", _MLE_SPECS, ids=lambda s: s.kind.value)
    def test_scalars_stay_float(self, spec):
        for lam in (1.25, np.float64(1.25), np.array(1.25), 2):
            assert type(target_value(spec, lam)) is float

    def test_array_domain(self):
        spec = FunctionalSpec(Kind.SURVIVAL, t=1.0)
        for bad in ([1.0, 0.0], [1.0, np.inf], [np.nan]):
            with pytest.raises(DomainError):
                target_value(spec, np.array(bad))
        with pytest.raises(DomainError):
            target_value(FunctionalSpec(Kind.MGF, t=1.0), np.array([2.0, 0.5]))


class TestCltHistogram:
    def test_simulates_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_collect(*args, **kwargs):
            calls.append(args[0])
            return _collect(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_collect", counting_collect)
        hist = tmp_path / "hist.csv"
        reps = 3000
        code = cli.main(["clt", "--kind", "survival", "--t", "0.5", "--n", "30",
                         "--lambda", "1", "--reps", str(reps), "--seed", "4",
                         "--out", str(tmp_path / "out.json"), "--hist", str(hist)])
        assert code == 0
        assert len(calls) == 1
        counts = [int(r.split(",")[2]) for r in hist.read_text().splitlines()[1:]]
        assert sum(counts) == reps

    def test_counts_every_edge_once(self):
        # every row is [a, b) and the overflow row [6, inf): a replicate at
        # exactly 6.0 was counted in the last bin and again in the overflow
        z = np.array([-7., -6., 0., 5.99, 6., 6., 9.])
        assert _hist_counts(cli._histogram_csv(z, 4)) == [1, 1, 0, 1, 1, 3]
        for bins in (1, 4, 12, 100):
            edges = np.linspace(-6.0, 6.0, bins + 1)
            z = np.sort(np.concatenate([[-7.0, 9.0], edges, edges]))
            counts = _hist_counts(cli._histogram_csv(z, bins))
            assert sum(counts) == z.size
            # the two replicates on each left edge, one below -6, and 6.0 twice with 9
            assert counts == [1] + [2] * bins + [3]

    @pytest.mark.parametrize("bins", [1, 7, 100])
    @pytest.mark.parametrize("spec,n,seed", [
        (FunctionalSpec(Kind.MOMENT, p=1.0), 200, 3),
        (FunctionalSpec(Kind.SURVIVAL, t=0.5), 2, 4),
        (FunctionalSpec(Kind.RATE_POWER, p=0.5), 30, 5),
    ])
    def test_matches_numpy_histogram_off_the_top_edge(self, spec, n, seed, bins):
        z = clt_replicates(spec, McConfig(3000, n, 1.0, seed))
        # a replicate on -6 or an inner edge is binned alike by both
        z = np.concatenate([z, np.linspace(-6.0, 6.0, bins + 1)[:-1], [-9.0, 8.0]])
        assert not np.any(z == 6.0)
        assert cli._histogram_csv(np.sort(z), bins) == _numpy_histogram_csv(z, bins)


def _hist_counts(text: str) -> list[int]:
    return [int(row.split(",")[2]) for row in text.splitlines()[1:]]


def _numpy_histogram_csv(z: np.ndarray, bins: int) -> str:
    # the histogram as written from np.histogram and two masked sums
    edges = np.linspace(-6.0, 6.0, bins + 1)
    counts, _ = np.histogram(z, bins=edges)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right", "count"])
    writer.writerow(["-inf", edges[0], int(np.sum(z < edges[0]))])
    for i in range(bins):
        writer.writerow([edges[i], edges[i + 1], int(counts[i])])
    writer.writerow([edges[-1], "inf", int(np.sum(z >= edges[-1]))])
    return buf.getvalue()


def _arange_ks_statistic(z: np.ndarray) -> float:
    # the KS statistic with its ECDF levels from two arange divisions per call
    zs = np.sort(z)
    cdf = special.ndtr(zs)
    i = np.arange(1, zs.size + 1)
    return float(max(np.max(i / zs.size - cdf), np.max(cdf - (i - 1) / zs.size)))


@pytest.mark.parametrize("spec,n,reps,seed", [
    (FunctionalSpec(Kind.MOMENT, p=2.0), 200, BLOCK_SIZE + 7, 42),
    (FunctionalSpec(Kind.SURVIVAL, t=0.5), 2, 2, 8),
    (FunctionalSpec(Kind.QUANTILE, q=0.5), 5, 1000, 9),
])
def test_ks_statistic_bits_unchanged(spec, n, reps, seed):
    z = clt_replicates(spec, McConfig(reps, n, 1.0, seed))
    expected = _arange_ks_statistic(z)
    assert montecarlo._ks_statistic(np.sort(z)) == expected
    assert clt_check(spec, McConfig(reps, n, 1.0, seed)).ks_statistic == expected
