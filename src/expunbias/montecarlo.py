"""Monte Carlo harness: empirical bias, variance comparisons and CLT checks.

Replications are organised in fixed-size blocks of 2**14; block b of a run
seeded with s draws from an SFC64 stream seeded by ``SeedSequence([s, b])``.
The draw for replication r therefore depends only on (seed, block r // 2**14,
row r % 2**14), so blocks run concurrently on a thread pool with one thread
per CPU the process may use, and a run's outputs do not depend on it.  SFC64
replaced Philox4x64-10 keyed (s, b): nothing used Philox's counter property,
SFC64 makes each 64-bit word several times cheaper than Philox's ten rounds,
and numpy's Gamma sampler takes about two words per variate.

The sample mean is sufficient and mean ~ Gamma(n, n*lambda), so paths whose
estimators read only the mean (closed form, Tate, the MLE plug-in outside
the moment kind, and the CLT replicates) draw one Gamma(n) variate per
replication.  Full n-observation samples are drawn only where observations
are used: ``variance_comparison`` and the MLE arm of the pth moment,
(1/n) sum X_i^p.  A block draws them in chunks of rows, about 2**18
observations each, one after another from its one stream: the bits are
those of drawing the block at once, and a thread holds one chunk at a time.
The CLT replicates are standardised by the paper's limit variance
(lambda xi')^2, n times the Cramer-Rao bound for xi, at any n and kink.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special as _sp

from .errors import DegenerateError, DomainError, _check_n, _check_positive, _in_range
from .estimators import (Family, FunctionalSpec, Kind, _lam_xi_slope,
                         closed_form_variance_mle, closed_form_variance_unbiased,
                         moment, phi_function, target_value, tate_phi_function)

__all__ = [
    "McConfig", "McSummary", "empirical_bias", "variance_comparison",
    "asymptotic_variance", "clt_replicates", "clt_summary", "clt_check",
    "BLOCK_SIZE",
]

BLOCK_SIZE = 1 << 14
# observations a full-sample block draws at a time (2 MB)
_CHUNK_DOUBLES = 1 << 18
_U_FLOOR = 2.0 ** -53  # smallest positive value random() can produce
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool() -> None:
    # threads start at the first submit; a forked child inherits the pool
    # object but none of its threads, so it gets a pool of its own
    global _POOL
    _POOL = ThreadPoolExecutor(_CPUS, "expunbias-mc") if _CPUS > 1 else None


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


@dataclass(frozen=True)
class McConfig:
    replications: int
    n: int
    lam: float
    seed: int

    def __post_init__(self):
        _check_n(self.replications, "replications")
        _check_n(self.n)
        _check_positive("lambda", self.lam)
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2 ** 64):
            raise DomainError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class McSummary:
    mean: float
    variance: float
    std_error: float
    replications: int
    ks_statistic: Optional[float] = None
    standardized_moments: Optional[tuple[float, float]] = None


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64([seed, block_index]))


def _exponentials(stream: np.random.Generator, rows: int, n: int, lam: float) -> np.ndarray:
    # the next rows x n exp(lam) observations of the stream, by the inverse CDF
    x = stream.random((rows, n))
    np.maximum(x, _U_FLOOR, out=x)
    np.log(x, out=x)
    np.negative(x, out=x)
    x /= lam
    return x


def _draw_block(seed: int, block_index: int, rows: int, n: int, lam: float) -> np.ndarray:
    return _exponentials(_block_generator(seed, block_index), rows, n, lam)


def _draw_chunks(seed: int, block_index: int, rows: int, n: int, lam: float):
    """The rows of ``_draw_block`` as (first row, rows x n) chunks of about
    ``_CHUNK_DOUBLES`` values, drawn one after another from the block's one
    stream, so they hold its bits and a thread holds one chunk at a time."""
    stream, step = _block_generator(seed, block_index), max(1, _CHUNK_DOUBLES // n)
    for first in range(0, rows, step):
        yield first, _exponentials(stream, min(step, rows - first), n, lam)


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


def _collect(config: McConfig, row_stat: Callable[[np.ndarray], tuple[np.ndarray, ...]],
             n_outputs: int, draw: Callable = _draw_chunks) -> tuple[np.ndarray, ...]:
    """Per-replication statistics over all blocks; block-index deterministic.

    ``draw`` makes one block: ``_draw_chunks`` (rows x n observations in
    chunks, the default), ``_draw_block`` (the same rows at once) or
    ``_draw_means`` (the rows' sample means only); it returns the rows, or
    an iterator of (first row, rows) chunks.  ``row_stat`` must give each row
    the statistics it gets alone.  A statistic outside double range is left
    inf or nan, without a warning.  Blocks run on ``_POOL`` with the outputs
    and the error of a serial loop.
    """
    reps = config.replications
    outs = tuple(np.empty(reps) for _ in range(n_outputs))
    n_blocks = (reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block(b: int) -> None:
        start = b * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, reps)
        # errstate is per thread; _summary raises RangeError instead
        with np.errstate(over="ignore", invalid="ignore"):
            drawn = draw(config.seed, b, stop - start, config.n, config.lam)
            for first, rows in [(0, drawn)] if isinstance(drawn, np.ndarray) else drawn:
                at = start + first
                for out, stat in zip(outs, row_stat(rows)):
                    out[at:at + len(rows)] = stat

    if _POOL is None:
        for b in range(n_blocks):
            block(b)
        return outs
    # the caller runs block 0; results are read in block order, so the error
    # raised is the lowest failing block's, once no block is left running
    futures = [_POOL.submit(block, b) for b in range(1, n_blocks)]
    try:
        block(0)
        for future in futures:
            future.result()
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise
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
# the CLT limit
# ---------------------------------------------------------------------------

def asymptotic_variance(spec: FunctionalSpec, lam: float) -> float:
    """The paper's limit variance (lambda xi'(lambda))^2 of sqrt(n) (phi - xi).

    It is n times the Cramer-Rao bound for xi, so n Var phi over it is >= 1
    and falls to 1 as n grows.  The rate and pole checks are
    ``target_value``'s.  Where the value underflows or lambda xi' is within
    4 eps of xi (the MGF at t = 0, the density at lambda = 1/t), standardising
    by it would divide by rounding: :class:`DegenerateError`.
    """
    lam = _check_positive("lambda", lam)
    xi, scale = target_value(spec, lam), _lam_xi_slope(spec, lam)
    variance = _in_range(f"the {spec.kind.value} CLT variance", lambda: scale * scale)
    if variance < 2.0 ** -1022 or abs(scale) <= 2.0 ** -50 * abs(xi):
        raise DegenerateError(f"lambda xi' = {scale:.3g} of {spec.kind.value} at lambda = {lam:g}"
                              f" is within the rounding of xi = {xi:.3g} or squares below"
                              " double range; the asymptotic variance is degenerate")
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
    """Standardized replicates Z_r = sqrt(n) (phi(mean_r) - xi(lambda)) / sigma.

    sigma^2 is :func:`asymptotic_variance`, so Z has mean 0 and variance
    n Var phi / sigma^2 >= 1.  The estimator's build, ``target_value`` and
    the scale raise in that order.  A replicate outside double range is inf
    or nan, and :func:`clt_summary` raises :class:`RangeError` on it.
    """
    phi = phi_function(spec, config.n)
    xi = target_value(spec, config.lam)
    scale = math.sqrt(config.n / asymptotic_variance(spec, config.lam))

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
