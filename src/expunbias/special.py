"""Gamma-function kernel on scipy.

``log_gamma`` is scipy's ``gammaln`` behind the package's domain checks, and
every ratio Gamma(b+d)/Gamma(b) goes through :func:`_log_gamma_ratio`, whose
Stirling form never cancels the O(b ln b) parts of two log-gammas.
``log_gamma`` and ``_log_gamma_ratio`` accept scalars or numpy arrays and
are pure; the argument of ``log_gamma`` passes the input rule
``errors._check_positive``.  A scalar skips numpy's 0-d arrays, with the
array path's bits: ``log_gamma`` of a positive finite scalar is ``gammaln``
of that float, and ``_stirling_remainder`` from 10 on sums its series in
floats.  The incomplete gamma function and a plain Gamma ratio have no
caller in the package, and scipy's ``gammainc``·``gamma`` and ``poch`` cover
them, so they are not kept here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import _check_positive

__all__ = ["log_gamma"]

_HALF_LOG_TWO_PI = 0.918938533204672741780329736406

_STIRLING_MIN_X = 10.0


def _stirling_remainder(x):
    """R(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 for x > 0."""
    scalar = isinstance(x, (int, float)) and x >= _STIRLING_MIN_X
    x = float(x) if scalar else np.asarray(x, dtype=float)
    big = x if scalar else np.maximum(x, _STIRLING_MIN_X)
    # sum of B_2k / (2k (2k-1) x^(2k-1)) for k <= 7 (DLMF 5.11.1); the first
    # omitted term is below 3e-17 from x = 10 on
    v = 1.0 / (big * big)
    series = (1.0 / 12.0 + v * (-1.0 / 360.0 + v * (1.0 / 1260.0 + v * (
        -1.0 / 1680.0 + v * (1.0 / 1188.0 + v * (-691.0 / 360360.0 + v / 156.0)))))) / big
    if scalar:
        return series
    small = np.minimum(x, _STIRLING_MIN_X)
    direct = gammaln(small) - (small - 0.5) * np.log(small) + small - _HALF_LOG_TWO_PI
    return np.where(x >= _STIRLING_MIN_X, series, direct)


def _log_gamma_ratio(b, d):
    """ln Gamma(b + d)/Gamma(b) for b, b + d > 0, with the shift d exact.

    (b + d - 1/2) log1p(d/b) + d ln b - d + R(b + d) - R(b): the error stays
    near eps |d ln b| for any b.
    """
    return ((b + d - 0.5) * np.log1p(d / b) + d * np.log(b) - d
            + _stirling_remainder(b + d) - _stirling_remainder(b))


def _log_variance_ratio(n: int, p: float) -> float:
    """ln Gamma(n) Gamma(n + 2p) / Gamma(n + p)^2 for n + p, n + 2p > 0.

    This is D(n) = H(n, 2p) - 2 H(n, p) with H = :func:`_log_gamma_ratio`,
    whose p ln n and p terms cancel exactly.  With y = p/(m + p),
    D(m) = (m - 1/2) log1p(-y^2) + 2p log1p(y) + R(m + 2p) - 2R(m + p) + R(m),
    which needs no cancellation once all three remainders are series, that is
    for min(m, m + 2p) >= 10.  Smaller n are shifted up to such an m through
    D(n) = D(n + 1) - log1p(-(p/(n + p))^2).
    """
    m = n + max(0, math.ceil(_STIRLING_MIN_X - min(n, n + 2.0 * p)))
    shift = 0.0
    for j in range(n, m):
        shift += math.log1p(-(p / (j + p)) ** 2)
    y = p / (m + p)
    return float((m - 0.5) * math.log1p(-y * y) + 2.0 * p * math.log1p(y)
                 + _stirling_remainder(m + 2.0 * p) - 2.0 * _stirling_remainder(m + p)
                 + _stirling_remainder(m) - shift)


def log_gamma(x):
    """Natural logarithm of the gamma function for x > 0 (scipy's gammaln)."""
    x = _check_positive("x", x, arrays=True)
    return float(gammaln(x)) if isinstance(x, float) else gammaln(x)
