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
from .estimators import (_CATALOGUE, EstimateResult, Family, FunctionalSpec, _estimator,
                         _mean_checked, phi_function, target_value)
from .special import _stirling_remainder

__all__ = [
    "VerificationReport", "gamma_mean_density", "expectation",
    "verify_unbiasedness", "tate_estimate", "tate_expected_value",
    "verify_tate_bias", "kink_points",
]

_REL_BIAS_FLOOR = 1e-300
_TAIL_MASS = 1e-16


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


def _upper_cutoff(n: int, lam: float, rate: float) -> float:
    # smallest U with Gamma(n, rate) tail mass below _TAIL_MASS
    upper = float(_sp.gammainccinv(n, _TAIL_MASS)) / rate
    if not math.isfinite(upper):
        raise DomainError(f"lambda = {lam!r} puts the sample mean's upper quadrature "
                          "cutoff beyond double range")
    return upper


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
    if not (rel_tol > 0.0 and math.isfinite(rel_tol)):
        raise DomainError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    rate = n * lam if tail_rate is None else float(tail_rate)
    if rate <= 0.0:
        raise DomainError("effective tail rate must be positive")
    upper = _upper_cutoff(n, lam, rate)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.asarray(estimator(x), dtype=float) * gamma_mean_density(x, n, lam)

    value, err, _ = adaptive_gauss_kronrod(
        integrand, 0.0, upper, breakpoints=kinks, rel_tol=rel_tol,
        max_segments=max_segments)
    return value, err


def kink_points(spec: FunctionalSpec, n: int, upper: float) -> list[float]:
    """Indicator-boundary abscissae of the closed-form estimator below ``upper``."""
    return _estimator(spec, n).kinks(upper)


def verify_unbiasedness(spec: FunctionalSpec, n: int, lam: float,
                        rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the closed-form estimator vs its target."""
    target = target_value(spec, lam)
    phi = phi_function(spec, n)
    return _report(spec, n, lam, rel_tol, phi, target, Family.CLOSED_FORM_UNBIASED)


def _report(spec: FunctionalSpec, n: int, lam: float, rel_tol: float,
            phi: Callable[[np.ndarray], np.ndarray], target: float,
            family: Family) -> VerificationReport:
    # An estimator whose target has a real pole c > 0 grows like e^{n c mean},
    # so the integrand decays at rate n (lam - c) rather than n lam.
    pole = _CATALOGUE[spec.kind].pole(spec)
    tail_rate = n * (lam - pole) if pole > 0.0 else None
    upper = _upper_cutoff(n, lam, tail_rate or n * lam)
    value, err = expectation(phi, n, lam, rel_tol, kinks=kink_points(spec, n, upper),
                             tail_rate=tail_rate)
    abs_bias = abs(value - target)
    rel_bias = abs_bias / max(abs(target), _REL_BIAS_FLOOR)
    return VerificationReport(spec, n, lam, value, target, abs_bias, rel_bias, err, family)


# ---------------------------------------------------------------------------
# the 1959 estimators (biased) and their exact expectations
# ---------------------------------------------------------------------------

def tate_phi_function(spec: FunctionalSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized biased estimator from the original transform tables.

    Compared with the corrected forms, the power/normalisation uses n-1
    where n belongs: rate powers carry Gamma(n-1)/(n^p Gamma(n-1-p)),
    quantiles an extra n/(n-1), and max-CDF powers exponent n-2.
    """
    row = _CATALOGUE[spec.kind]
    if row.tate_phi is None:
        raise SpecError(f"no Tate form for kind {spec.kind.value!r}")
    if n < 2:
        raise DomainError("the Tate estimators require n >= 2")
    return _mean_checked(row.tate_phi(spec, n).value)


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
    row = _CATALOGUE[spec.kind]
    if row.tate_mean is None:
        raise SpecError(f"no Tate expectation for kind {spec.kind.value!r}")
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    if n < 2:
        raise DomainError("the Tate estimators require n >= 2")
    return row.tate_mean(spec, n, lam)


def verify_tate_bias(spec: FunctionalSpec, n: int, lam: float,
                     rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the biased estimator vs its closed form.

    The ``target`` field of the report is the *biased* expectation, so a
    small rel_bias here means the historical bias is reproduced exactly.
    """
    target = tate_expected_value(spec, n, lam)
    phi = tate_phi_function(spec, n)
    # the 1959 forms have the indicator kinks of the corrected ones
    return _report(spec, n, lam, rel_tol, phi, target, Family.TATE_BIASED)
