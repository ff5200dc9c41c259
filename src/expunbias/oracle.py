"""Quadrature oracle: exact expectations under the sample-mean law.

For an exp(lambda) sample of size n the sample mean follows Gamma(n, n*lambda),
so E[phi(mean)] is a one-dimensional integral.  This module evaluates such
expectations with adaptive Gauss-Kronrod quadrature (splitting at declared
indicator kinks), certifies the unbiasedness of the closed-form catalogue,
and reproduces the historically erroneous estimators from the 1959
transform-method tables together with their exact (biased) expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import special as _sp

from ._quadrature import adaptive_gauss_kronrod
from .errors import DomainError, SpecError
from .estimators import (EstimateResult, Family, FunctionalSpec, Kind,
                         phi_function, target_value)
from .special import _log_gamma_ratio, _stirling_remainder

__all__ = [
    "VerificationReport", "gamma_mean_density", "expectation",
    "verify_unbiasedness", "tate_estimate", "tate_expected_value",
    "verify_tate_bias", "kink_points",
]

_REL_BIAS_FLOOR = 1e-300
_TAIL_MASS = 1e-16

_TATE_KINDS = (Kind.RATE_POWER, Kind.QUANTILE, Kind.MAX_CDF_POWER)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one oracle-vs-target comparison."""

    spec: FunctionalSpec
    n: int
    lam: float
    oracle_expectation: float
    target: float
    abs_bias: float
    rel_bias: float
    quad_abs_err_estimate: float
    estimator_family: Family


def gamma_mean_density(x, n, lam):
    """Density of the sample mean: (n lam)^n x^{n-1} e^{-n lam x} / Gamma(n).

    With y = lam x and Stirling's form of Gamma(n), the log density is
    ln lam + ln(n/2pi)/2 - R(n) + (n-1) ln y - n (y-1), which has no n ln n
    terms to cancel.  Vectorized over x.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    y = lam * arr
    log_norm = math.log(lam) + 0.5 * math.log(n / (2.0 * math.pi)) - _stirling_remainder(n)
    with np.errstate(divide="ignore"):
        logpdf = log_norm + (n - 1) * np.log(y) - n * (y - 1.0)
    out = np.exp(logpdf)
    return float(out) if scalar else out


def _upper_cutoff(n: int, rate: float) -> float:
    # smallest U with Gamma(n, rate) tail mass below _TAIL_MASS
    return float(_sp.gammainccinv(n, _TAIL_MASS)) / rate


def expectation(estimator: Callable[[np.ndarray], np.ndarray], n: int, lam: float,
                rel_tol: float = 1e-9, *, kinks: Iterable[float] = (),
                tail_rate: Optional[float] = None,
                max_segments: int = 4096) -> tuple[float, float]:
    """E[estimator(mean)] for mean ~ Gamma(n, n*lam), with an error estimate.

    ``kinks`` lists points where the integrand is non-smooth (indicator
    boundaries); the quadrature splits there up front.  ``tail_rate``
    overrides the exponential decay rate used to pick the upper cutoff --
    needed when the estimator grows like e^{c x} (MGF), where the effective
    rate of the integrand is n*lam - c rather than n*lam.
    """
    if rel_tol <= 0.0:
        raise DomainError("rel_tol must be positive")
    rate = n * lam if tail_rate is None else float(tail_rate)
    if rate <= 0.0:
        raise DomainError("effective tail rate must be positive")
    upper = _upper_cutoff(n, rate)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.asarray(estimator(x), dtype=float) * gamma_mean_density(x, n, lam)

    value, err, _ = adaptive_gauss_kronrod(
        integrand, 0.0, upper, breakpoints=kinks, rel_tol=rel_tol,
        max_segments=max_segments)
    return value, err


def kink_points(spec: FunctionalSpec, n: int, upper: float) -> list[float]:
    """Indicator-boundary abscissae of the closed-form estimator below ``upper``."""
    k = spec.kind
    if k in (Kind.SURVIVAL, Kind.PDF):
        return [spec.t / n]
    if k is Kind.MAX_CDF_POWER:
        return [j * spec.t / n for j in range(1, spec.m + 1)]
    if k is Kind.MIN_SURVIVAL:
        return [spec.m * spec.t / n]
    if k is Kind.MEAN_PAST_LIFETIME:
        k_max = int(math.ceil(n * upper / spec.t))
        return [j * spec.t / n for j in range(1, k_max + 1)]
    return []


def _tail_rate_for(spec: FunctionalSpec, n: int, lam: float) -> Optional[float]:
    if spec.kind is Kind.MGF and spec.t > 0.0:
        return n * (lam - spec.t)
    return None


def verify_unbiasedness(spec: FunctionalSpec, n: int, lam: float,
                        rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the closed-form estimator vs its target."""
    target = target_value(spec, lam)
    phi = phi_function(spec, n)
    rate = _tail_rate_for(spec, n, lam) or n * lam
    upper = _upper_cutoff(n, rate)
    value, err = expectation(phi, n, lam, rel_tol,
                             kinks=kink_points(spec, n, upper),
                             tail_rate=_tail_rate_for(spec, n, lam))
    abs_bias = abs(value - target)
    rel_bias = abs_bias / max(abs(target), _REL_BIAS_FLOOR)
    return VerificationReport(spec, n, lam, value, target, abs_bias, rel_bias,
                              err, Family.CLOSED_FORM_UNBIASED)


# ---------------------------------------------------------------------------
# the 1959 estimators (biased) and their exact expectations
# ---------------------------------------------------------------------------

def tate_phi_function(spec: FunctionalSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized biased estimator from the original transform tables.

    Compared with the corrected forms, the power/normalisation uses n-1
    where n belongs: rate powers carry Gamma(n-1)/(n^p Gamma(n-1-p)),
    quantiles an extra n/(n-1), and max-CDF powers exponent n-2.
    """
    if spec.kind not in _TATE_KINDS:
        raise SpecError(f"no Tate form for kind {spec.kind.value!r}")
    if n < 2:
        raise DomainError("the Tate estimators require n >= 2")
    if spec.kind is Kind.RATE_POWER:
        p = spec.p
        if p >= n - 1:
            raise DomainError(f"Tate rate-power needs p < n-1 (got p={p}, n={n})")
        coef = math.exp(-_log_gamma_ratio(n - 1, -p) - p * math.log(n))
        return lambda x: coef * np.asarray(x, dtype=float) ** (-p)
    if spec.kind is Kind.QUANTILE:
        c = -math.log1p(-spec.q) * n / (n - 1.0)
        return lambda x: c * np.asarray(x, dtype=float)

    def _max_biased(x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        total = np.ones(xa.shape)
        for k in range(1, spec.m + 1):
            a = k * spec.t / n
            ind = xa >= a
            base = np.where(ind, 1.0 - a / xa, 0.0)
            total = total + math.comb(spec.m, k) * (-1) ** k * np.where(ind, base ** (n - 2), 0.0)
        return total.reshape(np.shape(x))

    return _max_biased


def tate_estimate(spec: FunctionalSpec, sample_mean: float, n: int) -> EstimateResult:
    """Evaluate the biased 1959 estimator at a sample mean."""
    phi = tate_phi_function(spec, n)
    return EstimateResult(float(phi(sample_mean)), spec, n, Family.TATE_BIASED)


def tate_expected_value(spec: FunctionalSpec, n: int, lam: float) -> float:
    """Exact expectation of the biased estimator (closed form).

    rate power: (1 - p/(n-1)) lambda^p on {p < n-1};
    quantile: [n/(n-1)] * (-ln(1-q)/lambda);
    max CDF power: [lam m t / ((n-1)(1 - e^{lam t})) + 1] * (1 - e^{-lam t})^m.
    """
    if spec.kind not in _TATE_KINDS:
        raise SpecError(f"no Tate expectation for kind {spec.kind.value!r}")
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    if n < 2:
        raise DomainError("the Tate estimators require n >= 2")
    if spec.kind is Kind.RATE_POWER:
        if spec.p >= n - 1:
            return 0.0  # indicator 1{p < n-1} in the expectation table
        return (1.0 - spec.p / (n - 1.0)) * lam ** spec.p
    if spec.kind is Kind.QUANTILE:
        return (n / (n - 1.0)) * (-math.log1p(-spec.q) / lam)
    t, m = spec.t, spec.m
    return (lam * m * t / ((n - 1.0) * (1.0 - math.exp(lam * t))) + 1.0) \
        * (-math.expm1(-lam * t)) ** m


def verify_tate_bias(spec: FunctionalSpec, n: int, lam: float,
                     rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the biased estimator vs its closed form.

    The ``target`` field of the report is the *biased* expectation, so a
    small rel_bias here means the historical bias is reproduced exactly.
    """
    target = tate_expected_value(spec, n, lam)
    phi = tate_phi_function(spec, n)
    kinks = []
    if spec.kind is Kind.MAX_CDF_POWER:
        kinks = [j * spec.t / n for j in range(1, spec.m + 1)]
    value, err = expectation(phi, n, lam, rel_tol, kinks=kinks)
    abs_bias = abs(value - target)
    rel_bias = abs_bias / max(abs(target), _REL_BIAS_FLOOR)
    return VerificationReport(spec, n, lam, value, target, abs_bias, rel_bias,
                              err, Family.TATE_BIASED)
