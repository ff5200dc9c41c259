"""Monte Carlo harness: empirical bias, variance comparisons and CLT checks.

Replications are organised in fixed-size blocks of 2**14; block b of a run
seeded with s draws from an SFC64 stream seeded by ``SeedSequence([s, b])``.
The draw for replication r therefore depends only on (seed, block r // 2**14,
row r % 2**14), and blocks run one after another; ``parallel_chunks`` is
accepted and validated but has no effect on results.  SFC64 replaced
Philox4x64-10 keyed (s, b): nothing used Philox's counter property, SFC64
makes each 64-bit word several times cheaper than Philox's ten rounds, and
numpy's Gamma sampler takes about two words per variate.

The sample mean is sufficient and mean ~ Gamma(n, n*lambda), so paths whose
estimators read only the mean (closed form, Tate, the MLE plug-in outside
the moment kind, and the CLT replicates) draw one Gamma(n) variate per
replication.  Full n-observation samples are drawn only where observations
are used: ``variance_comparison`` and the MLE arm of the pth moment,
(1/n) sum X_i^p.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special as _sp

from .errors import (DegenerateError, DomainError, NondifferentiableError, _check_n,
                     _check_positive, _in_range)
from .estimators import (Family, FunctionalSpec, Kind, Sample, _estimator,
                         closed_form_variance_mle, closed_form_variance_unbiased,
                         moment, phi_function, target_value, tate_phi_function)

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
        _check_n(self.replications, "replications")
        _check_n(self.n)
        _check_positive("lambda", self.lam)
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2 ** 64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        _check_n(self.parallel_chunks, "parallel_chunks")


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
    lam, n = _check_positive("lambda", lam), _check_n(n)
    u = np.maximum(stream.random(n), _U_FLOOR)
    return Sample((-np.log(u) / lam).tolist())


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64([seed, block_index]))


def _draw_block(seed: int, block_index: int, rows: int, n: int, lam: float) -> np.ndarray:
    x = _block_generator(seed, block_index).random((rows, n))
    np.maximum(x, _U_FLOOR, out=x)
    np.log(x, out=x)
    np.negative(x, out=x)
    x /= lam
    return x


def _draw_means(seed: int, block_index: int, rows: int, n: int, lam: float) -> np.ndarray:
    """Replicate sample means of one block, one Gamma(n) variate per row.

    The standard gamma draw is floored at ``_U_FLOOR`` before scaling by
    1/(n*lam): at n = 1 it is numpy's ziggurat exponential, which can
    return exactly 0.0, and a zero mean is outside every estimator's
    domain.  The floor equals the smallest draw -ln(U) of the
    inverse-CDF path; it binds with probability about 2**-53 at n = 1 and
    about 2**(-53 n) / n! at larger n.
    """
    means = _block_generator(seed, block_index).standard_gamma(n, rows)
    np.maximum(means, _U_FLOOR, out=means)
    means /= n * lam
    return means


@np.errstate(over="ignore", invalid="ignore")  # _summary raises RangeError instead
def _collect(config: McConfig, row_stat: Callable[[np.ndarray], tuple[np.ndarray, ...]],
             n_outputs: int, draw: Callable[..., np.ndarray] = _draw_block
             ) -> tuple[np.ndarray, ...]:
    """Per-replication statistics over all blocks; block-index deterministic.

    ``draw`` makes one block: ``_draw_block`` (rows x n observations, the
    default) or ``_draw_means`` (the rows' sample means only).  A statistic
    outside double range is left inf or nan, without a warning.
    """
    reps = config.replications
    outs = tuple(np.empty(reps) for _ in range(n_outputs))
    n_blocks = (reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    for b in range(n_blocks):
        start = b * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, reps)
        stats = row_stat(draw(config.seed, b, stop - start, config.n, config.lam))
        for out, stat in zip(outs, stats):
            out[start:stop] = stat
    return outs


def _summary(values: np.ndarray, **extra) -> McSummary:
    reps = values.size
    mean, variance = _in_range("the mean or variance of the replicates", lambda: (
        float(np.mean(values)), float(np.var(values, ddof=1)) if reps > 1 else 0.0))
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

def asymptotic_variance(spec: FunctionalSpec, n: int, lam: float) -> float:
    """Delta-method variance [phi'(1/lambda)/lambda]^2 of the CLT limit.

    The analytic derivative is validated on the spot against a central
    finite difference: they must agree to 1e-6 relative, plus the
    difference's own rounding error, 4 eps |phi| / h.  Evaluation at an
    indicator kink where the estimator has no derivative (indicator exponent
    e <= 1, e.g. survival at n <= 2) raises :class:`NondifferentiableError`;
    with e >= 2 the estimator is C^(e-1) there and the kink is no obstacle.  A
    vanishing derivative raises :class:`DegenerateError` (the CLT scaling
    would divide by zero).
    """
    lam = _check_positive("lambda", lam)
    mu = 1.0 / lam
    h = 5e-6 * mu
    est = _estimator(spec, n)
    if est.exponent <= 1:
        for kink in est.kinks(mu + 4.0 * h):
            if abs(mu - kink) < 4.0 * h:
                raise NondifferentiableError(
                    f"1/lambda = {mu:g} sits on an indicator kink of {spec.kind.value}")
    deriv = _in_range(f"the {spec.kind.value} estimator's derivative", lambda: est.prime(mu))
    variance = _in_range(f"the {spec.kind.value} CLT variance", lambda: (deriv / lam) ** 2)
    if variance == 0.0:  # also where the square underflows
        raise DegenerateError(
            f"estimator derivative vanishes at 1/lambda for {spec.kind.value}; "
            "the asymptotic variance is degenerate")
    phi = phi_function(spec, n)
    above, below = float(phi(mu + h)), float(phi(mu - h))
    fd = (above - below) / (2.0 * h)
    # the difference carries the rounding of phi: 4 eps = 2^-50 of phi, over h
    rounding = 2.0 ** -50 * max(abs(above), abs(below)) / h
    if abs(fd - deriv) > 1e-6 * max(abs(deriv), 1e-300) + rounding:
        raise NondifferentiableError(
            f"analytic derivative {deriv:g} disagrees with finite difference {fd:g} "
            f"for {spec.kind.value} at 1/lambda={mu:g}")
    return variance


@functools.lru_cache(maxsize=4)
def _ecdf_grid(size: int) -> np.ndarray:
    # the empirical CDF levels 0, 1/size, ..., 1: the KS statistic reads the
    # values after each order statistic from [1:] and before it from [:-1]
    grid = np.arange(size + 1) / size
    grid.flags.writeable = False
    return grid


def _ks_statistic(zs: np.ndarray) -> float:
    """KS distance of the sorted replicates ``zs`` to N(0,1)."""
    cdf = _sp.ndtr(zs)
    grid = _ecdf_grid(zs.size)
    d_plus = np.max(grid[1:] - cdf)
    d_minus = np.max(cdf - grid[:-1])
    return float(max(d_plus, d_minus))


def clt_replicates(spec: FunctionalSpec, config: McConfig) -> np.ndarray:
    """Standardized replicates Z_r = sqrt(n) (phi(mean_r) - xi(lambda)) / sigma_n.

    sigma_n^2 is the delta-method variance (see :func:`asymptotic_variance`,
    whose errors propagate).  A replicate outside double range is inf or nan,
    and :func:`clt_summary` raises :class:`RangeError` on it.
    """
    sigma2 = asymptotic_variance(spec, config.n, config.lam)
    xi = target_value(spec, config.lam)
    phi = phi_function(spec, config.n)
    scale = math.sqrt(config.n / sigma2)

    def standardize(xbar: np.ndarray) -> tuple[np.ndarray]:
        z = phi(xbar) - xi
        z *= scale
        return z,

    z, = _collect(config, standardize, 1, _draw_means)
    return z


def clt_summary(z: np.ndarray) -> McSummary:
    """Mean, variance, KS distance to N(0,1), skewness and excess kurtosis of z.

    Equal replicates raise :class:`DegenerateError`; a moment outside double
    range raises :class:`RangeError`.
    """
    return _clt_summary(z, np.sort(z))


def _clt_summary(z: np.ndarray, zs: np.ndarray) -> McSummary:
    # clt_summary with the replicates also given sorted, for a caller that
    # needs them sorted too; the moments sum z in replicate order
    def moments():
        c = z - z.mean()
        c2 = c * c  # products, not pow: c ** 3 and c ** 4 take longer than the rest
        m2 = float(np.mean(c2))
        if m2 == 0.0:
            raise DegenerateError(f"the {z.size} standardized replicate(s) are all equal;"
                                  " skewness and kurtosis are undefined")
        return float(np.mean(c2 * c)) / m2 ** 1.5, float(np.mean(c2 * c2)) / m2 ** 2 - 3.0
    skew, exkurt = _in_range("a moment of the standardized replicates", moments)
    return _summary(z, ks_statistic=_ks_statistic(zs),
                    standardized_moments=(skew, exkurt))


def clt_check(spec: FunctionalSpec, config: McConfig) -> McSummary:
    """Standardized replicates of the estimator against the normal limit.

    Reports the one-sample Kolmogorov-Smirnov statistic of
    :func:`clt_replicates` against N(0,1) plus sample skewness and excess
    kurtosis.
    """
    return clt_summary(clt_replicates(spec, config))
