"""Monte Carlo harness tests: determinism, statistical sanity at reduced
replication counts, the direct Gamma(n) draw of the mean, the vectorised
target, the CLT limit variance (lambda xi')^2 and the CLT diagnostics.
The full 1e6-replication sweeps live in the acceptance suite."""

import csv
import io
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from expunbias import cli, montecarlo
from expunbias.errors import DegenerateError, DomainError, RangeError, SpecError
from expunbias.estimators import (Family, FunctionalSpec, Kind, closed_form_variance_unbiased,
                                  phi_function, target_value)
from expunbias.laplace import TransferFunction
from expunbias.montecarlo import (BLOCK_SIZE, McConfig, McSummary, _collect,
                                  _draw_block, _draw_chunks, _draw_means, asymptotic_variance,
                                  clt_check,
                                  clt_replicates, clt_summary, empirical_bias,
                                  variance_comparison)


class TestSampling:
    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_block_matches_exponential_law(self, n):
        # every observation of a full-sample block, row by row, is Exp(lam)
        lam = 1.5
        draws = _draw_block(2024, 0, BLOCK_SIZE, n, lam)
        # a false alarm on correct code has probability 1e-3 per case
        assert stats.kstest(draws.ravel(), stats.expon(scale=1.0 / lam).cdf).pvalue > 1e-3

    def test_empirical_mean(self):
        n = 10 ** 5
        draws = _draw_block(7, 0, 1, n, 2.0)
        se = 0.5 / math.sqrt(n)
        assert abs(draws.mean() - 0.5) < 4.0 * se

    def test_empirical_tail_probability(self):
        n = 10 ** 5
        draws = _draw_block(8, 0, 1, n, 1.0)
        p_hat = np.mean(draws > 1.0)
        target = math.exp(-1.0)
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(p_hat - target) < 4.0 * se

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam,n", [(1.0, 2.5), (1.0, 0), (math.nan, 3), (-1.0, 3),
                                       ("x", 3)])
    def test_rejects_bad_arguments(self, lam, n):
        # McConfig is the gate in front of every draw; n = 2.5 and
        # lambda = "x" were untyped TypeErrors
        with pytest.raises(DomainError):
            McConfig(10, n, lam, 1)


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


class TestDeterminism:
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


# (spec, xi as an mp function of lambda): the built-in kinds at the CLI's
# default parameters, and the MGF on both sides of t = 0
_XI_MP = [
    (FunctionalSpec(Kind.RATE_POWER, p=0.5), lambda lam: lam ** mp.mpf("0.5")),
    (FunctionalSpec(Kind.QUANTILE, q=0.5), lambda lam: -mp.log1p(-mp.mpf("0.5")) / lam),
    (FunctionalSpec(Kind.MOMENT, p=2.0), lambda lam: 2 / lam ** 2),
    (FunctionalSpec(Kind.SURVIVAL, t=0.5), lambda lam: mp.exp(-lam / 2)),
    (FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2), lambda lam: (-mp.expm1(-lam / 2)) ** 2),
    (FunctionalSpec(Kind.MIN_SURVIVAL, t=0.5, m=2), lambda lam: mp.exp(-lam)),
    (FunctionalSpec(Kind.PDF, t=0.5), lambda lam: lam * mp.exp(-lam / 2)),
    (FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.5),
     lambda lam: mp.mpf("0.5") / -mp.expm1(-lam / 2) - 1 / lam),
    (FunctionalSpec(Kind.MGF, t=0.5), lambda lam: lam / (lam - mp.mpf("0.5"))),
    (FunctionalSpec(Kind.MGF, t=-2.0), lambda lam: lam / (lam + 2)),
    (FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5), lambda lam: (1 - mp.log1p(-mp.mpf("0.5"))) / lam),
]


class TestAsymptoticVariance:
    def test_moment_p1(self):
        spec = FunctionalSpec(Kind.MOMENT, p=1.0)
        assert asymptotic_variance(spec, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_quantile(self):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        assert asymptotic_variance(spec, 1.0) == pytest.approx(math.log(2.0) ** 2, rel=1e-15)

    def test_survival_matches_manual_derivative(self):
        # xi = e^{-lam t}, so lambda xi' = -lam t e^{-lam t}
        spec, lam = FunctionalSpec(Kind.SURVIVAL, t=1.0), 1.3
        assert asymptotic_variance(spec, lam) == pytest.approx(
            (lam * math.exp(-lam)) ** 2, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [FunctionalSpec(Kind.SURVIVAL, t=0.5),
                                      FunctionalSpec(Kind.QUANTILE, q=0.5)],
                             ids=lambda s: s.kind.value)
    def test_a_step_that_underflows_is_range_error(self, spec):
        # from lambda = 2^-1015 down the step 2^-60 lambda is 0: an untyped
        # ZeroDivisionError before
        for lam in (2.0 ** -1015, 1e-307):
            with pytest.raises(RangeError, match="slope"):
                asymptotic_variance(spec, lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec,xi", _XI_MP, ids=[f"{s.kind.value}-{s.params()}" for s, _ in _XI_MP])
    def test_against_mpmath(self, spec, xi):
        # (lambda xi')^2 against 60-digit mpmath over lambda in [1e-3, 1e3]:
        # 1e-13 relative, past the rounding that xi's own expression leaves in
        # lambda xi' (about eps xi at the MGF's lambda >> t, up to 20 eps xi for
        # mean-past-lifetime's direct form just above its series cutoff)
        checked = 0
        for lam in np.geomspace(1e-3, 1e3, 301):
            lam = float(lam)
            if spec.kind is Kind.MGF and lam <= spec.t:
                continue
            # 60 digits past those that a slope of e^{-lam t} next to 1 needs
            with mp.workdps(60 + int(abs(lam * (spec.t or 0.0)))):
                x = mp.mpf(lam)
                want, xi_lam = float((x * mp.diff(xi, x)) ** 2), float(xi(x))
            if want < 2.0 ** -1020 or math.sqrt(want) < 2.0 ** -48 * abs(xi_lam):
                continue  # underflowing or within the rounding of xi: degenerate
            got = asymptotic_variance(spec, lam)
            tol = 1e-13 * want + 2.0 * math.sqrt(want) * 32.0 * 2.0 ** -52 * abs(xi_lam)
            assert abs(got - want) <= tol, (lam, got, want)
            checked += 1
        assert checked > 100

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [0.5, 2.5, 20.0])
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
    def test_complex_step_agrees_with_a_central_difference(self, kind, params, lam):
        # the complex step runs xi's array form on a complex rate, a central
        # difference of the scalar target_value runs its math form on real
        # ones: they agree to 1e-7 plus the difference's own rounding
        spec = FunctionalSpec(kind, **params)
        h = lam * 1e-5
        fd = (target_value(spec, lam + h) - target_value(spec, lam - h)) / (2.0 * h)
        rounding = 4.0 * 2.0 ** -52 * abs(target_value(spec, lam)) / h
        got = math.sqrt(asymptotic_variance(spec, lam))
        assert abs(got - lam * abs(fd)) <= lam * (1e-7 * abs(fd) + rounding), (got, lam * fd)

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_cramer_rao(self, p):
        # n Var phi over n times the Cramer-Rao bound is >= 1 and falls to 1
        spec, lam = FunctionalSpec(Kind.MOMENT, p=p), 1.7
        ratios = [n * closed_form_variance_unbiased(p, n, lam) / asymptotic_variance(spec, lam)
                  for n in (2, 5, 30, 200, 10 ** 4)]
        assert all(r >= 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] - 1.0 < 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec,lam,want", [
        # survival at t = 1: on the n = 2 kink t/n = 1/lambda and in the dead
        # zone below it, where the estimator has no derivative or a zero one
        (FunctionalSpec(Kind.SURVIVAL, t=1.0), 2.0, (2.0 * math.exp(-2.0)) ** 2),
        (FunctionalSpec(Kind.SURVIVAL, t=1.0), 5.0, (5.0 * math.exp(-5.0)) ** 2),
        # a kink every t/n = 5e-8, 2e7 of them below 1/lambda
        (FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=1e-7), 1.0, (1e-7 ** 2 / 12.0) ** 2),
    ], ids=["survival-kink", "survival-dead-zone", "mean-past-lifetime-t1e-7"])
    def test_estimator_kinks_do_not_matter(self, spec, lam, want):
        assert asymptotic_variance(spec, lam) == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("spec,lam", [
        (FunctionalSpec(Kind.MGF, t=0.0), 1.0),
        (FunctionalSpec(Kind.PDF, t=0.5), 2.0),
        (FunctionalSpec(Kind.PDF, t=0.3), 1.0 / 0.3),
    ], ids=["mgf-t0", "pdf-peak", "pdf-peak-rounded"])
    def test_flat_target_is_degenerate(self, spec, lam):
        # xi' is 0 there; the complex step reads 0 or rounding of xi
        with pytest.raises(DegenerateError):
            asymptotic_variance(spec, lam)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_variance_is_degenerate(self):
        # lambda xi' = p lambda^p = 6e-179, whose square underflows to 0
        spec = FunctionalSpec(Kind.RATE_POWER, p=60.0)
        with pytest.raises(DegenerateError):
            asymptotic_variance(spec, 1e-3)

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError, match="lambda"):
            asymptotic_variance(FunctionalSpec(Kind.QUANTILE, q=0.5), math.nan)
        with pytest.raises(DomainError, match="lambda > 0.5"):
            asymptotic_variance(FunctionalSpec(Kind.MGF, t=0.5), 0.25)

    def test_custom_kind_is_refused(self):
        spec = FunctionalSpec(Kind.CUSTOM, custom_transform=TransferFunction(lambda s: s / (s + 1.0)))
        with pytest.raises(SpecError):
            asymptotic_variance(spec, 1.0)


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
        spec = FunctionalSpec(Kind.MGF, t=0.0)
        with pytest.raises(DegenerateError):
            clt_check(spec, McConfig(100, 2, 5.0, 1))

    @pytest.mark.parametrize("spec,n,lam,error,match", [
        # a build at n = 1 before a flat target
        (FunctionalSpec(Kind.PDF, t=0.5), 1, 2.0, DomainError, "n >= 2"),
        # the pole before a scale
        (FunctionalSpec(Kind.MGF, t=1.0), 5, 0.5, DomainError, "lambda > 1"),
        (FunctionalSpec(Kind.PDF, t=0.5), 5, 2.0, DegenerateError, "rounding of xi"),
    ], ids=["build", "pole", "scale"])
    def test_error_order(self, spec, n, lam, error, match):
        with pytest.raises(error, match=match):
            clt_replicates(spec, McConfig(100, n, lam, 1))

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
        with pytest.raises(RangeError, match="moment"):
            clt_summary(np.array([-2.675e128, -2.676e128, -2.6745e128]))

    def test_deterministic(self):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        cfg = McConfig(10 ** 4, 50, 1.0, 77)
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
        cfg = McConfig(reps, 7, 2.0, 13)
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


@pytest.fixture
def two_pool_threads(monkeypatch):
    # the pool path on any machine: two pool threads beside the caller
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_POOL", None)
    montecarlo._new_pool()
    pool = montecarlo._POOL
    yield
    pool.shutdown()


def _serial_loop(cfg, row_stat, draw):
    # the block loop written out: block b's rows come from its own draw
    reps = cfg.replications
    blocks = [row_stat(draw(cfg.seed, b, min(BLOCK_SIZE, reps - b * BLOCK_SIZE), cfg.n, cfg.lam))
              for b in range(-(-reps // BLOCK_SIZE))]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _block_index_draw(seed, block_index, rows, n, lam):
    # a draw whose every row holds its block index
    return np.full(rows, float(block_index))


@pytest.mark.usefixtures("two_pool_threads")
class TestBlockPool:
    """Blocks run on a thread pool and give the serial loop's outputs and errors."""

    @pytest.mark.parametrize("reps", [1, BLOCK_SIZE, BLOCK_SIZE + 100, 17 * BLOCK_SIZE + 3])
    @pytest.mark.parametrize("draw", [_draw_means, _draw_block])
    def test_equals_the_serial_block_loop(self, draw, reps):
        cfg = McConfig(reps, 3, 1.5, 99)

        def row_stat(x):
            xbar = x if x.ndim == 1 else x.mean(axis=1)
            return xbar, np.sqrt(xbar)

        pooled = _collect(cfg, row_stat, 2, draw)
        for out, want in zip(pooled, _serial_loop(cfg, row_stat, draw)):
            assert np.array_equal(out, want)

    def test_lowest_failing_block_raises_once_no_block_runs(self):
        # block 3 fails first in time, block 1 first in block order; the
        # blocks still queued when block 1 fails never start
        lock, running, started = threading.Lock(), [0], set()

        def row_stat(x):
            b = int(x[0])
            with lock:
                running[0] += 1
                started.add(b)
            try:
                time.sleep({1: 0.2, 3: 0.0}.get(b, 0.1))
                if b in (1, 3):
                    raise ValueError(f"block {b}")
                return x,
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(ValueError, match="block 1"):
            _collect(McConfig(12 * BLOCK_SIZE, 1, 1.0, 1), row_stat, 1, _block_index_draw)
        assert running[0] == 0
        assert {0, 1, 2, 3} <= started and 11 not in started

    def test_overflow_in_a_pool_block_is_silent(self):
        # exp(1000 b) overflows from block 1 on, and inf - inf is invalid
        def row_stat(x):
            big = np.exp(1000.0 * x)
            return big - big,

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, = _collect(McConfig(3 * BLOCK_SIZE, 1, 1.0, 1), row_stat, 1,
                            _block_index_draw)
        assert np.all(out[:BLOCK_SIZE] == 0.0) and np.all(np.isnan(out[BLOCK_SIZE:]))

    def test_two_callers_on_an_oversubscribed_pool(self, monkeypatch):
        # more pool threads than cores, two callers at once and a thread
        # switch every microsecond: a row written to the wrong run or block
        # shows as a difference from the serial loop
        pool = ThreadPoolExecutor(4)
        monkeypatch.setattr(montecarlo, "_POOL", pool)
        configs = [McConfig(9 * BLOCK_SIZE + 5, n, 1.0, 40 + n) for n in (2, 3)]
        results = [None, None]

        def run(i):
            results[i] = _collect(configs[i], lambda xbar: (xbar,), 1, _draw_means)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert not any(caller.is_alive() for caller in callers)
        for cfg, (got,) in zip(configs, results):
            want, = _serial_loop(cfg, lambda xbar: (xbar,), _draw_means)
            assert np.array_equal(got, want)

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_gets_its_own_pool(self):
        # the child inherits the parent's pool object but not its threads
        cfg = McConfig(3 * BLOCK_SIZE, 2, 1.0, 5)
        expected, = _collect(cfg, lambda xbar: (xbar,), 1, _draw_means)

        def child():
            means, = _collect(cfg, lambda xbar: (xbar,), 1, _draw_means)
            os._exit(0 if np.array_equal(means, expected) else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60.0)
        if process.is_alive():
            process.kill()
            process.join()
        assert process.exitcode == 0


class TestChunkedDraw:
    """A full-sample block is drawn in row chunks with the bits of one draw."""

    @pytest.mark.parametrize("n", [1, 3, 37, 500])
    @pytest.mark.parametrize("chunk_doubles", [1, 1000, montecarlo._CHUNK_DOUBLES])
    def test_chunks_are_the_whole_block(self, monkeypatch, n, chunk_doubles):
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", chunk_doubles)
        rows = 300
        chunks = list(_draw_chunks(8, 2, rows, n, 1.5))
        assert [first for first, _ in chunks] == list(
            range(0, rows, max(1, chunk_doubles // n)))
        assert np.array_equal(np.concatenate([x for _, x in chunks]),
                              _draw_block(8, 2, rows, n, 1.5))

    def test_collect_equals_the_whole_block_draw(self, monkeypatch):
        # 27-row chunks, which divide neither a block nor the last block's rows
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 1000)
        cfg = McConfig(2 * BLOCK_SIZE + 5, 37, 1.0, 3)

        def stats(x):
            return x.mean(axis=1), np.mean(x ** 2.5, axis=1)

        chunked = _collect(cfg, stats, 2)
        for got, want in zip(chunked, _collect(cfg, stats, 2, _draw_block)):
            assert np.array_equal(got, want)

    def test_variance_comparison_holds_less_than_one_block(self):
        # drawn at once, one block of 2**14 x 500 observations is 65.5 MB and
        # x ** p as much again, per block in flight; drawn in chunks, all the
        # blocks in flight together stay below one such draw
        n = 500
        tracemalloc.start()
        try:
            result = variance_comparison(2, McConfig(4 * BLOCK_SIZE, n, 1.0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_SIZE * n * 8
        unbiased, mle, _, _ = result
        assert unbiased.replications == mle.replications == 4 * BLOCK_SIZE


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
