"""Quadrature oracle: exact expectations under the sample-mean law.

For an exp(lambda) sample of size n the sample mean follows Gamma(n, n*lambda),
so E[phi(mean)] is a one-dimensional integral.  This module evaluates such
expectations with adaptive Gauss-Kronrod quadrature and checks the
estimators that ``estimators`` builds: ``verify_unbiasedness`` certifies a
corrected estimator against its target, and ``verify_tate_bias`` a biased
1959 estimator against its exact expectation.  It builds no estimator, and
checks counts and rates with the rules in ``errors``; ``tate_estimate``
and ``tate_expected_value`` are defined there and re-exported here.

Each cell is integrated over a window [L, U] taken from the integrand
phi * density, not from the density alone.  L is where the estimator's
support starts: the smallest indicator boundary of a sum with no constant
term (survival, min-survival, density), 0 otherwise.  U is L plus the
Gamma(n + r, rate) quantile at upper tail mass 1e-16, where r > 0 is the
power of an estimator c mean^r (0 otherwise).  For a survival-type term
(1 - a/x)^(n-1) x^(n-1) e^{-n lam x} is a Gamma density shifted by a, and
for a power c x^r x^(n-1) e^{-n lam x} a Gamma(n + r) one, so the window
keeps all but 1e-16 of the integrand however small the target.  The window
starts split at L plus the Gamma(n + r, rate) quantiles at the normal
scores -8..8, which puts 17 breakpoints across the peak, so most cells
certify in the first round.  The quadrature also splits at the estimator's
indicator kinks, but only where its indicator exponent e is at most 6: the
estimator is C^(e-1) there, and past that the mesh and the 15-point rule
resolve the kinks unsplit.  At e = 4 and 5 they did not: across its kinks
the 15- and 7-point rules err alike, so their difference is no bound, and
mean-past-lifetime cells at n = 5 and 6 read up to 3e-9 and 3e-10.  A power
estimator whose integrand grows like x^alpha, alpha < 0, at 0 (a rate power
p > n - 1, a negative moment at n = 1) gets its first 2^-52 of the first
quantile in closed form.  The integrand, phi * density, is computed under
the output-range rule ``errors._in_range``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import special as _sp

from ._quadrature import adaptive_gauss_kronrod
from .errors import DomainError, _check_n, _check_positive, _in_range
from .estimators import (_CATALOGUE, Family, FunctionalSpec, _estimator, phi_function,
                         tate_estimate, tate_expected_value, tate_phi_function, target_value)
from .special import _stirling_remainder

__all__ = [
    "VerificationReport", "gamma_mean_density", "expectation",
    "verify_unbiasedness", "tate_estimate", "tate_expected_value",
    "verify_tate_bias", "kink_points",
]

_REL_BIAS_FLOOR = 1e-300
_TAIL_MASS = 1e-16
# the initial mesh: Gamma quantiles at these normal scores
_MESH_SCORES = np.arange(-8.0, 9.0)
# indicator exponents up to this one get a split at each kink
_SPLIT_EXPONENT = 6
_MAX_SEGMENTS = 4096
# width of the closed-form head of a singular integrand, relative to the
# first quantile
_HEAD_SCALE = 2.0 ** -52


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
    terms to cancel (nor, at n = 1, the ln y term).  Vectorized over x.
    """
    n, lam = _check_n(n), _check_positive("lambda", lam)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    y = lam * arr
    log_norm = math.log(lam) + 0.5 * math.log(n / (2.0 * math.pi)) - _stirling_remainder(n)
    with np.errstate(divide="ignore"):
        logpdf = (log_norm + (n - 1) * np.log(y) if n > 1 else log_norm) - n * (y - 1.0)
    out = np.exp(logpdf)
    return float(out) if scalar else out


def _window(k: float, lam: float, rate: float, lower: float) -> tuple[float, np.ndarray, float]:
    # [lower, upper] and the mesh inside it: lower plus the Gamma(k, rate)
    # quantile at tail mass _TAIL_MASS, and lower plus the quantiles at the
    # normal scores _MESH_SCORES
    _check_positive(f"the tail rate at lambda = {lam!r}", rate)
    upper = lower + float(_sp.gammainccinv(k, _TAIL_MASS)) / rate
    if not math.isfinite(upper):
        raise DomainError(f"lambda = {lam!r} puts the sample mean's upper quadrature "
                          "cutoff beyond double range")
    return lower, lower + _sp.gammaincinv(k, _sp.ndtr(_MESH_SCORES)) / rate, upper


def _integrate(estimator: Callable[[np.ndarray], np.ndarray], n: int, lam: float,
               rel_tol: float, window: tuple[float, np.ndarray, float],
               kinks: Iterable[float], max_segments: int,
               alpha: float = 0.0) -> tuple[float, float]:
    # alpha: the integrand grows like (x - lower)^alpha at the window's start
    rel_tol = _check_positive("rel_tol", rel_tol)
    lower, mesh, upper = window

    def integrand(x: np.ndarray) -> np.ndarray:
        return _in_range(f"estimator * density at n={n}, lambda={lam!r}", lambda: np.asarray(
            estimator(x), dtype=float) * gamma_mean_density(x, n, lam))

    head = 0.0
    if alpha < 0.0:
        # No polynomial rule converges on a singular power, so [lower,
        # lower + eps] is integrated as that power, f(lower + eps) eps/(alpha + 1):
        # the rest of the integrand is smooth there and moves by a relative
        # rate * eps < n 2^-52 across it.  A geometric mesh, ratio 4, leads
        # from eps up to the first quantile.
        eps = float(mesh[0] - lower) * _HEAD_SCALE
        mesh = np.concatenate([lower + eps * 4.0 ** np.arange(1, 26), mesh])
        lower += eps
        head = float(integrand(np.array([lower]))[0]) * eps / (alpha + 1.0)

    value, err, _ = adaptive_gauss_kronrod(
        integrand, lower, upper, breakpoints=[*mesh.tolist(), *kinks], rel_tol=rel_tol,
        max_segments=max_segments)
    return head + value, err


def expectation(estimator: Callable[[np.ndarray], np.ndarray], n: int, lam: float,
                rel_tol: float = 1e-9, *, kinks: Iterable[float] = (),
                tail_rate: Optional[float] = None,
                max_segments: int = _MAX_SEGMENTS) -> tuple[float, float]:
    """E[estimator(mean)] for mean ~ Gamma(n, n*lam), with an error estimate.

    The integral runs over [0, U], U the Gamma(n, rate) quantile at upper
    tail mass 1e-16.  The rate is n*lam, or ``tail_rate`` where the
    estimator grows like e^{c x} (MGF): there the integrand decays at rate
    n*lam - c, not n*lam.  The interval starts split at the Gamma(n, rate)
    quantiles at the normal scores -8..8, so the peak is resolved before any
    refinement, and at ``kinks``, points where the integrand is non-smooth
    (indicator boundaries).
    """
    rate = n * lam if tail_rate is None else float(tail_rate)
    return _integrate(estimator, n, lam, rel_tol, _window(n, lam, rate, 0.0), kinks,
                      max_segments)


def kink_points(spec: FunctionalSpec, n: int, upper: float) -> list[float]:
    """Indicator-boundary abscissae of the closed-form estimator below ``upper``."""
    return _estimator(spec, n).kinks(upper)


def verify_unbiasedness(spec: FunctionalSpec, n: int, lam: float,
                        rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the closed-form estimator vs its target."""
    return _report(spec, n, lam, rel_tol, phi_function(spec, n),
                   lambda: target_value(spec, lam), Family.CLOSED_FORM_UNBIASED)


def verify_tate_bias(spec: FunctionalSpec, n: int, lam: float,
                     rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the biased estimator vs its closed form.

    The ``target`` field of the report is the *biased* expectation, so a
    small rel_bias here means the historical bias is reproduced exactly.
    """
    return _report(spec, n, lam, rel_tol, tate_phi_function(spec, n),
                   lambda: tate_expected_value(spec, n, lam), Family.TATE_BIASED)


def _report(spec: FunctionalSpec, n: int, lam: float, rel_tol: float,
            phi: Callable[[np.ndarray], np.ndarray], target: Callable[[], float],
            family: Family) -> VerificationReport:
    # phi is the family's estimator as its public factory returns it; its
    # window, kinks and power at 0 come from the same _estimator build.
    # An estimator whose target has a real pole c > 0 grows like e^{n c mean},
    # so the integrand decays at rate n (lam - c) rather than n lam.  The
    # window names a lambda whose cutoff leaves double range, so it comes
    # before the target.
    est = _estimator(spec, n, family)
    pole = max(_CATALOGUE[spec.kind].pole(spec), 0.0)
    window = _window(n + max(est.small_mean_power, 0), lam, n * (lam - pole), est.support_start)
    expected = target()
    # past exponent _SPLIT_EXPONENT the estimator is smooth enough at its
    # kinks for the mesh and the 15-point rule (see the module docstring)
    kinks = est.kinks(window[2]) if est.exponent <= _SPLIT_EXPONENT else ()
    # phi times the density x^(n-1) grows like x^(n - 1 + r) near a window's start at 0
    alpha = n - 1 + est.small_mean_power if est.support_start == 0.0 else 0.0
    value, err = _integrate(phi, n, lam, rel_tol, window, kinks, _MAX_SEGMENTS, alpha)
    abs_bias = abs(value - expected)
    rel_bias = abs_bias / max(abs(expected), _REL_BIAS_FLOOR)
    return VerificationReport(spec, n, lam, value, expected, abs_bias, rel_bias, err, family)

