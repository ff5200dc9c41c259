"""Monte Carlo harness: empirical bias, variance comparisons and CLT checks.

Replications are organised in fixed-size blocks of 2**14; block b of a run
seeded with s draws from a counter-based Philox stream keyed (s, b).  The
draw for replication r therefore depends only on (seed, block r // 2**14,
row r % 2**14), never on how blocks are distributed over workers, which
makes chunked-parallel and serial runs bit-identical.

The sample mean is sufficient and mean ~ Gamma(n, n*lambda), so paths whose
estimators read only the mean (closed form, Tate, the MLE plug-in outside
the moment kind, and the CLT replicates) draw one Gamma(n) variate per
replication.  Full n-observation samples are drawn only where observations
are used: ``variance_comparison`` and the MLE arm of the pth moment,
(1/n) sum X_i^p.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special as _sp

from .errors import DegenerateError, DomainError, NondifferentiableError
from .estimators import (Family, FunctionalSpec, Kind, Sample,
                         closed_form_variance_mle,
                         closed_form_variance_unbiased, moment, phi_function,
                         rate_power, target_value)
from .oracle import tate_phi_function

__all__ = [
    "McConfig", "McSummary", "sample_exponential", "empirical_bias",
    "variance_comparison", "asymptotic_variance", "clt_replicates",
    "clt_summary", "clt_check", "BLOCK_SIZE",
]

BLOCK_SIZE = 1 << 14
_U_FLOOR = 2.0 ** -53  # smallest positive value random() can produce


@dataclass(frozen=True)
class McConfig:
    replications: int
    n: int
    lam: float
    seed: int
    parallel_chunks: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError("lambda must be finite and positive")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        if self.parallel_chunks < 1:
            raise DomainError("parallel_chunks must be >= 1")


@dataclass(frozen=True)
class McSummary:
    mean: float
    variance: float
    std_error: float
    replications: int
    ks_statistic: Optional[float] = None
    standardized_moments: Optional[tuple[float, float]] = None


def sample_exponential(lam: float, n: int, stream: np.random.Generator) -> Sample:
    """One sample of size n via the inverse CDF, -ln(U)/lambda with U in (0,1)."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError("lambda must be finite and positive")
    u = np.maximum(stream.random(n), _U_FLOOR)
    return Sample((-np.log(u) / lam).tolist())


def _draw_block(seed: int, block_index: int, rows: int, n: int, lam: float) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=[seed, block_index]))
    u = np.maximum(gen.random((rows, n)), _U_FLOOR)
    return -np.log(u) / lam


def _draw_means(seed: int, block_index: int, rows: int, n: int, lam: float) -> np.ndarray:
    """Replicate sample means of one block, one Gamma(n) variate per row.

    The standard gamma draw is floored at ``_U_FLOOR`` before scaling by
    1/(n*lam): at n = 1 it is numpy's ziggurat exponential, which can
    return exactly 0.0, and a zero mean is outside every estimator's
    domain.  The floor equals the smallest draw -ln(U) of the
    inverse-CDF path; it binds with probability about 2**-53 at n = 1 and
    about 2**(-53 n) / n! at larger n.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed, block_index]))
    return np.maximum(gen.standard_gamma(n, rows), _U_FLOOR) / (n * lam)


def _collect(config: McConfig, row_stat: Callable[[np.ndarray], tuple[np.ndarray, ...]],
             n_outputs: int, draw: Callable[..., np.ndarray] = _draw_block
             ) -> tuple[np.ndarray, ...]:
    """Per-replication statistics over all blocks; block-index deterministic.

    ``draw`` makes one block: ``_draw_block`` (rows x n observations, the
    default) or ``_draw_means`` (the rows' sample means only).
    """
    reps = config.replications
    outs = tuple(np.empty(reps) for _ in range(n_outputs))
    n_blocks = (reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run_block(b: int) -> None:
        start = b * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, reps)
        stats = row_stat(draw(config.seed, b, stop - start, config.n, config.lam))
        for out, stat in zip(outs, stats):
            out[start:stop] = stat

    if config.parallel_chunks > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=config.parallel_chunks) as pool:
            list(pool.map(run_block, range(n_blocks)))
    else:
        for b in range(n_blocks):
            run_block(b)
    return outs


def _summary(values: np.ndarray, **extra) -> McSummary:
    reps = values.size
    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1)) if reps > 1 else 0.0
    return McSummary(mean, variance, math.sqrt(variance / reps), reps, **extra)


def empirical_bias(spec: FunctionalSpec, config: McConfig,
                   estimator_family: Family = Family.CLOSED_FORM_UNBIASED) -> McSummary:
    """Empirical mean/variance of an estimator over seeded replications.

    ``estimator_family`` selects the closed-form unbiased estimator
    (default), its Tate counterpart, or the MLE plug-in.
    """
    n = config.n
    if estimator_family is Family.CLOSED_FORM_UNBIASED:
        estimator = phi_function(spec, n)
    elif estimator_family is Family.TATE_BIASED:
        estimator = tate_phi_function(spec, n)
    elif estimator_family is Family.MLE_PLUGIN:
        if spec.kind is Kind.MOMENT:
            # the moment MLE (1/n) sum X_i^p needs the observations
            p = spec.p
            values, = _collect(config, lambda x: (np.mean(x ** p, axis=1),), 1)
            return _summary(values)

        def estimator(xbar):
            return target_value(spec, 1.0 / xbar)
    else:
        raise DomainError(f"no Monte Carlo path for family {estimator_family!r}")
    values, = _collect(config, lambda xbar: (estimator(xbar),), 1, _draw_means)
    return _summary(values)


def variance_comparison(p: float, config: McConfig
                        ) -> tuple[McSummary, McSummary, float, float]:
    """Empirical and exact variances of the two pth-moment estimators.

    Both estimators are evaluated on the *same* samples: the unbiased
    closed form (a function of the mean) and the moment/MLE form
    (1/n) sum X_i^p.  Returns (empirical_unbiased, empirical_mle,
    closed_unbiased, closed_mle).
    """
    p = float(p)
    if p <= -0.5 or p == 0.0:
        raise DomainError("variance comparison requires p > -1/2 and nonzero")
    n = config.n

    def stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return moment(x.mean(axis=1), n, p), np.mean(x ** p, axis=1)

    unbiased_vals, mle_vals = _collect(config, stats, 2)
    return (_summary(unbiased_vals), _summary(mle_vals),
            closed_form_variance_unbiased(p, n, config.lam),
            closed_form_variance_mle(p, n, config.lam))


# ---------------------------------------------------------------------------
# delta-method asymptotics
# ---------------------------------------------------------------------------

def _gated_power(mu: float, a: float, expo: int) -> float:
    return (1.0 - a / mu) ** expo if mu > a else 0.0


def _phi_prime_analytic(spec: FunctionalSpec, n: int, mu: float) -> float:
    """d/d mean of the closed-form estimator, evaluated away from kinks."""
    k = spec.kind
    if k is Kind.RATE_POWER:
        return -spec.p * rate_power(mu, n, spec.p) / mu
    if k is Kind.QUANTILE:
        return -math.log1p(-spec.q)
    if k is Kind.MOMENT:
        return spec.p * moment(mu, n, spec.p) / mu
    if k is Kind.SURVIVAL:
        a = spec.t / n
        return (n - 1.0) * _gated_power(mu, a, n - 2) * a / mu ** 2
    if k is Kind.MAX_CDF_POWER:
        total = 0.0
        for j in range(1, spec.m + 1):
            a = j * spec.t / n
            total += (math.comb(spec.m, j) * (-1) ** j * (n - 1.0)
                      * _gated_power(mu, a, n - 2) * a / mu ** 2)
        return total
    if k is Kind.MIN_SURVIVAL:
        a = spec.m * spec.t / n
        return (n - 1.0) * _gated_power(mu, a, n - 2) * a / mu ** 2
    if k is Kind.PDF:
        a = spec.t / n
        if mu <= a:
            return 0.0
        u = 1.0 - a / mu
        return ((n - 1.0) / n) * (-u ** (n - 2) / mu ** 2
                                  + (n - 2.0) * u ** (n - 3) * a / mu ** 3)
    if k is Kind.MEAN_PAST_LIFETIME:
        total = -1.0
        j_max = int(math.floor(n * mu / spec.t))
        for j in range(1, j_max + 1):
            a = j * spec.t / n
            total += spec.t * (n - 1.0) * _gated_power(mu, a, n - 2) * a / mu ** 2
        return total
    if k is Kind.MGF:
        # d/dw M(1, n, w) = M(2, n+1, w)/n (DLMF 13.3.15), w = n t mean
        return spec.t * float(_sp.hyp1f1(2.0, n + 1.0, n * spec.t * mu))
    if k is Kind.EXPECTED_SHORTFALL:
        return 1.0 - math.log1p(-spec.p)
    raise DomainError(f"no derivative table entry for kind {k.value!r}")


def _kinks_near(spec: FunctionalSpec, n: int, mu: float) -> list[float]:
    k = spec.kind
    if k in (Kind.SURVIVAL, Kind.PDF):
        return [spec.t / n]
    if k is Kind.MAX_CDF_POWER:
        return [j * spec.t / n for j in range(1, spec.m + 1)]
    if k is Kind.MIN_SURVIVAL:
        return [spec.m * spec.t / n]
    if k is Kind.MEAN_PAST_LIFETIME:
        j = round(n * mu / spec.t)
        return [i * spec.t / n for i in (j - 1, j, j + 1) if i >= 1]
    return []


def asymptotic_variance(spec: FunctionalSpec, n: int, lam: float) -> float:
    """Delta-method variance [phi'(1/lambda)/lambda]^2 of the CLT limit.

    The analytic derivative is validated on the spot against a central
    finite difference (1e-6 relative agreement); evaluation at an indicator
    kink raises :class:`NondifferentiableError` and a vanishing derivative
    raises :class:`DegenerateError` (the CLT scaling would divide by zero).
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError("lambda must be finite and positive")
    mu = 1.0 / lam
    h = 5e-6 * mu
    for kink in _kinks_near(spec, n, mu):
        if abs(mu - kink) < 4.0 * h:
            raise NondifferentiableError(
                f"1/lambda = {mu:g} sits on an indicator kink of {spec.kind.value}")
    deriv = _phi_prime_analytic(spec, n, mu)
    if deriv == 0.0:
        raise DegenerateError(
            f"estimator derivative vanishes at 1/lambda for {spec.kind.value}; "
            "the asymptotic variance is degenerate")
    phi = phi_function(spec, n)
    fd = (float(phi(mu + h)) - float(phi(mu - h))) / (2.0 * h)
    if abs(fd - deriv) > 1e-6 * max(abs(deriv), 1e-300):
        raise NondifferentiableError(
            f"analytic derivative {deriv:g} disagrees with finite difference {fd:g} "
            f"for {spec.kind.value} at 1/lambda={mu:g}")
    return (deriv / lam) ** 2


def _ks_statistic(z: np.ndarray) -> float:
    zs = np.sort(z)
    cdf = _sp.ndtr(zs)
    i = np.arange(1, zs.size + 1)
    d_plus = np.max(i / zs.size - cdf)
    d_minus = np.max(cdf - (i - 1) / zs.size)
    return float(max(d_plus, d_minus))


def clt_replicates(spec: FunctionalSpec, config: McConfig) -> np.ndarray:
    """Standardized replicates Z_r = sqrt(n) (phi(mean_r) - xi(lambda)) / sigma_n.

    sigma_n^2 is the delta-method variance (see :func:`asymptotic_variance`,
    whose errors propagate).
    """
    sigma2 = asymptotic_variance(spec, config.n, config.lam)
    xi = target_value(spec, config.lam)
    phi = phi_function(spec, config.n)
    scale = math.sqrt(config.n / sigma2)
    z, = _collect(config, lambda xbar: ((phi(xbar) - xi) * scale,), 1, _draw_means)
    return z


def clt_summary(z: np.ndarray) -> McSummary:
    """Mean, variance, KS distance to N(0,1), skewness and excess kurtosis of z."""
    m = z.mean()
    c = z - m
    m2 = float(np.mean(c ** 2))
    skew = float(np.mean(c ** 3)) / m2 ** 1.5
    exkurt = float(np.mean(c ** 4)) / m2 ** 2 - 3.0
    return _summary(z, ks_statistic=_ks_statistic(z),
                    standardized_moments=(skew, exkurt))


def clt_check(spec: FunctionalSpec, config: McConfig) -> McSummary:
    """Standardized replicates of the estimator against the normal limit.

    Reports the one-sample Kolmogorov-Smirnov statistic of
    :func:`clt_replicates` against N(0,1) plus sample skewness and excess
    kurtosis.
    """
    return clt_summary(clt_replicates(spec, config))
