"""Exception hierarchy, the input rules and the output-range rule.

Everything raised by this package derives from :class:`ExpunbiasError`.
Domain-style errors additionally derive from :class:`ValueError` so that
callers who do not care about the fine distinctions can catch the familiar
builtin.

The input rules are stated once: ``_check_n`` takes a count (an integer
>= 1) and ``_check_positive`` a rate, mean or level (finite and > 0), a
number or, where the caller serves arrays, an array; both raise
:class:`DomainError`.  ``_in_range`` states the output-range rule once: an
``OverflowError`` or ``ZeroDivisionError`` from math arithmetic, or a
non-finite number in a result, is a :class:`RangeError` naming the value, so
the package never returns an inf or a nan and never warns of an overflow.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np


class ExpunbiasError(Exception):
    """Base class for all package errors."""


class DomainError(ExpunbiasError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SpecError(DomainError):
    """A FunctionalSpec is malformed (missing/extra/invalid parameters)."""


class RangeError(ExpunbiasError, ArithmeticError):
    """A value is representable in principle but not at working precision
    (overflow, or a guard such as |x| > 700 in the incomplete gamma)."""


def _check_n(n, name: str = "sample size n") -> int:
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"{name} must be a positive integer")
    return int(n)


def _check_positive(name: str, value, arrays: bool = False):
    # a float from a number or, with arrays, a float ndarray from an array (an
    # empty one passes), with one message; without arrays an array is no number
    try:
        if not arrays or isinstance(value, (float, int)) or np.ndim(value) == 0:
            v = float(value)
            ok = 0.0 < v < math.inf
        else:
            v = np.asarray(value, dtype=float)
            # one pass each for min and max, no temporaries; a nan fails both
            ok = v.size == 0 or bool(v.min() > 0.0 and v.max() < math.inf)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not ok:
        raise DomainError(f"{name} must be finite and strictly positive")
    return v


def _in_range(what: str, compute: Callable):
    # compute() (a number, an ndarray or a tuple of numbers) under the rule
    # above, numpy quiet inside; a float is checked by math, 100x cheaper
    try:
        with np.errstate(all="ignore"):
            out = compute()
    except (OverflowError, ZeroDivisionError) as exc:
        raise RangeError(f"{what} leaves double range") from exc
    if not (math.isfinite(out) if isinstance(out, float) else np.isfinite(out).all()):
        raise RangeError(f"{what} leaves double range")
    return out


class ConfigurationError(ExpunbiasError, ValueError):
    """An inversion/quadrature configuration is unusable (e.g. Talbot without
    a complex evaluator)."""


class UnsupportedTransformError(ExpunbiasError, ValueError):
    """The transform was declared distributional (Dirac content); the numeric
    inversion engine does not serve it."""


class InversionError(ExpunbiasError, ArithmeticError):
    """Numerical Laplace inversion failed to stabilise.

    Carries a ``diagnostics`` dict (method, abscissa, orders tried, partial
    results) to make failures actionable.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class QuadratureError(ExpunbiasError, ArithmeticError):
    """Adaptive quadrature did not converge within its subdivision budget.

    ``partial_value`` / ``err_estimate`` expose the best available result.
    """

    def __init__(self, message: str, partial_value: float = float("nan"),
                 err_estimate: float = float("inf"), segments: int = 0):
        super().__init__(message)
        self.partial_value = partial_value
        self.err_estimate = err_estimate
        self.segments = segments


class DegenerateError(DomainError):
    """The CLT scale vanishes: the target's slope is 0 or within its rounding
    at the rate, or the standardized replicates are all equal."""
