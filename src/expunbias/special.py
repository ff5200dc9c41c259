"""Gamma-function kernel on scipy.

``log_gamma`` is scipy's ``gammaln`` behind the package's domain checks;
every ratio Gamma(b+d)/Gamma(b) goes through :func:`_log_gamma_ratio`, whose
Stirling form never cancels the O(b ln b) parts of two log-gammas; and
``lower_incomplete_gamma_int`` keeps full precision for either sign of x.
All functions accept scalars or numpy arrays and are pure.  A Python int or
float skips numpy's 0-d arrays, with the array path's bits: ``log_gamma``
of a positive finite scalar is ``gammaln`` of that float, and
``_stirling_remainder`` from 10 on sums its series in floats.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.special import gammaln, hyp1f1

from .errors import DomainError, RangeError

__all__ = ["log_gamma", "gamma_ratio", "lower_incomplete_gamma_int"]

_HALF_LOG_TWO_PI = 0.918938533204672741780329736406

_STIRLING_MIN_X = 10.0

# |x| guard for the incomplete-gamma routine: past this the exp factors
# leave double range before the result does.
_GAMMA_INC_MAX_ABS_X = 700.0


def _as_float_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


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
    if isinstance(x, (int, float)) and 0.0 < x < math.inf:
        return float(gammaln(float(x)))
    arr, scalar = _as_float_array(x, "x")
    if arr.size and np.any(arr <= 0.0):
        raise DomainError("log_gamma requires strictly positive x")
    return _ret(gammaln(arr), scalar)


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) without intermediate overflow.

    The result itself may still overflow to inf if the true ratio exceeds
    double range.
    """
    a_arr, a_scalar = _as_float_array(a, "a")
    b_arr, b_scalar = _as_float_array(b, "b")
    if (a_arr.size and np.any(a_arr <= 0.0)) or (b_arr.size and np.any(b_arr <= 0.0)):
        raise DomainError("gamma_ratio requires strictly positive arguments")
    with np.errstate(over="ignore"):
        out = np.exp(_log_gamma_ratio(b_arr, a_arr - b_arr))
    return _ret(np.asarray(out), a_scalar and b_scalar)


def _check_order(n) -> int:
    if isinstance(n, numbers.Integral):
        n_int = int(n)
    elif isinstance(n, numbers.Real) and float(n).is_integer():
        n_int = int(n)
    else:
        raise DomainError("order n must be an integer")
    if n_int == 0:
        raise RangeError("order n = 0 is outside the supported range")
    if n_int < 0:
        raise DomainError("order n must be positive")
    return n_int


def lower_incomplete_gamma_int(n, x):
    """Lower incomplete gamma function gamma(n, x) for integer n >= 1.

    x^n e^{-x} M(1, n+1, x)/n with Kummer's function M (DLMF 8.5.1),
    assembled in logs with the sign of x^n, so it keeps full relative
    precision for either sign of x.

    Raises :class:`RangeError` for |x| > 700 or when the result overflows.
    """
    n_int = _check_order(n)
    arr, scalar = _as_float_array(x, "x")
    if arr.size and np.any(np.abs(arr) > _GAMMA_INC_MAX_ABS_X):
        raise RangeError(f"|x| > {_GAMMA_INC_MAX_ABS_X:.0f} is outside the supported range")
    # M(1, n+1, x) > 0 for every real x
    with np.errstate(divide="ignore", over="ignore"):
        log_mag = (n_int * np.log(np.abs(arr)) - arr + np.log(hyp1f1(1.0, n_int + 1.0, arr))
                   - np.log(n_int))
        out = np.where((arr < 0.0) & (n_int % 2 == 1), -1.0, 1.0) * np.exp(log_mag)
    if not np.all(np.isfinite(out)):
        raise RangeError("incomplete gamma overflowed double precision")
    return _ret(out, scalar)
