"""Self-contained special-function kernel.

Provides the three primitives every estimator and variance formula rests on:
``log_gamma`` (Lanczos), ``gamma_ratio`` (log-space quotient) and the
integer-order lower incomplete gamma function ``lower_incomplete_gamma_int``,
which must stay accurate for negative arguments as well (the MGF estimator
evaluates it at n*t*xbar with t of either sign).

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, RangeError

__all__ = ["log_gamma", "gamma_ratio", "lower_incomplete_gamma_int"]

_HALF_LOG_TWO_PI = 0.918938533204672741780329736406

# Lanczos g=7, 9-term coefficient set; relative accuracy ~1e-14 on (0, 1e6).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# |x| guard for the incomplete-gamma routines: past this the exp factors
# leave double range before the result does.
_GAMMA_INC_MAX_ABS_X = 700.0


def _as_float_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def log_gamma(x):
    """Natural logarithm of the gamma function for x > 0.

    Lanczos approximation (g = 7, nine terms). Pure double precision; no
    external special-function library involved, so the estimator catalogue
    can be checked against factorial oracles independently.
    """
    arr, scalar = _as_float_array(x, "x")
    if arr.size and np.any(arr <= 0.0):
        raise DomainError("log_gamma requires strictly positive x")
    z = arr - 1.0
    acc = np.full_like(z, _LANCZOS[0])
    for k, c in enumerate(_LANCZOS[1:], start=1):
        acc = acc + c / (z + k)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(acc)
    return _ret(out, scalar)


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) computed as exp(log_gamma(a) - log_gamma(b)).

    Avoids intermediate overflow for arguments up to ~1e6; the result itself
    may still overflow to inf if the true ratio exceeds double range.
    """
    a_arr, a_scalar = _as_float_array(a, "a")
    b_arr, b_scalar = _as_float_array(b, "b")
    if (a_arr.size and np.any(a_arr <= 0.0)) or (b_arr.size and np.any(b_arr <= 0.0)):
        raise DomainError("gamma_ratio requires strictly positive arguments")
    out = np.exp(log_gamma(a_arr) - log_gamma(b_arr))
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


def _kummer_series(n: int, x: np.ndarray) -> np.ndarray:
    # gamma(n,x) = x^n e^{-x} sum_j x^j / (n (n+1) ... (n+j)); used for
    # |x| < n where the closed finite sum would cancel catastrophically.
    # The leading term dominates (ratio |x|/(n+j) < 1), so the sum keeps
    # full relative precision for either sign of x.
    term = np.full(x.shape, 1.0 / n)
    total = term.copy()
    j = 0
    active = np.ones(x.shape, dtype=bool)
    while np.any(active) and j < 100000:
        term = term * (x / (n + 1.0 + j))
        total = total + term
        active = np.abs(term) > 1e-18 * np.abs(total)
        j += 1
    if np.any(total <= 0.0):
        raise RangeError("incomplete gamma series lost its sign; argument out of range")
    # assemble sign(x^n) * exp(n ln|x| - x + ln total) without overflow
    with np.errstate(divide="ignore"):
        log_mag = n * np.log(np.abs(x)) - x + np.log(total)
    sign = np.where((x < 0.0) & (n % 2 == 1), -1.0, 1.0)
    # overflow becomes inf, which the caller reports as RangeError
    with np.errstate(over="ignore"):
        return sign * np.exp(log_mag)


def _closed_sum(n: int, x: np.ndarray) -> np.ndarray:
    # gamma(n,x) = (n-1)! (1 - e^{-x} S) with S = sum_{k<n} x^k/k!, evaluated
    # with compensated (Kahan) accumulation; valid when |x| >= n so the final
    # subtraction is benign.
    s = np.ones(x.shape)
    comp = np.zeros(x.shape)
    term = np.ones(x.shape)
    for k in range(1, n):
        term = term * (x / k)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
    try:
        gamma_n = math.exp(log_gamma(n))
    except OverflowError:
        # (n-1)! leaves double range from n = 172 on; the caller's
        # finiteness check turns the inf into RangeError
        gamma_n = math.inf
    with np.errstate(over="ignore"):
        factor = 1.0 - np.exp(-x) * s
        return gamma_n * factor if n > 1 else factor


def lower_incomplete_gamma_int(n, x):
    """Lower incomplete gamma function gamma(n, x) for integer n >= 1.

    Equals (n-1)! * (1 - e^{-x} * sum_{k=0}^{n-1} x^k/k!); the finite sum is
    exact for integer order and remains meaningful for negative x, which the
    MGF estimator needs when its argument is negative.  Internally the closed
    sum is used for |x| >= n and a same-value series expansion for |x| < n,
    where the closed form would subtract nearly equal quantities.

    Raises :class:`RangeError` for |x| > 700 or when the result overflows.
    """
    n_int = _check_order(n)
    arr, scalar = _as_float_array(x, "x")
    if arr.size and np.any(np.abs(arr) > _GAMMA_INC_MAX_ABS_X):
        raise RangeError(f"|x| > {_GAMMA_INC_MAX_ABS_X:.0f} is outside the supported range")

    flat = np.atleast_1d(arr).astype(float)
    out = np.zeros(flat.shape)
    nonzero = flat != 0.0
    series = nonzero & (np.abs(flat) < n_int)
    closed = nonzero & ~series
    if np.any(series):
        out[series] = _kummer_series(n_int, flat[series])
    if np.any(closed):
        out[closed] = _closed_sum(n_int, flat[closed])
    if not np.all(np.isfinite(out)):
        raise RangeError("incomplete gamma overflowed double precision")
    out = out.reshape(arr.shape)
    return _ret(out, scalar)
