"""Numerical inverse Laplace transforms and the generic unbiased estimator.

For a target functional xi(lambda) with Laplace-invertible structure, the
unbiased estimator of xi from an exp(lambda) sample of size n is

    phi(mean) = Gamma(n)/mean^{n-1} * invL{ xi(s/n) / s^n }(mean).

Two engines realise the inversion:

* Gaver-Stehfest: real-axis sampling with Salzer weights.  The weights are
  computed exactly as rationals; they grow like 10^{0.64*order} (max |w| is
  10^12.2 at order 20 and 10^25.7 at order 40), so the summation runs in
  extended precision (mpmath), at 1.1 digits per order + 15, the rate Abate
  & Valko (Int. J. Numer. Meth. Eng. 60, 2004) give for the Gaver-Stehfest
  sum.  The estimator path escalates the order until two consecutive
  orders agree, since the composed transform's original grows like x^{n-1}
  and needs high orders for large n.  The abscissae do not depend on the
  order, so the ladder evaluates each one once, at the precision of its
  top order, and every order sums a prefix of the same values, exactly in
  integers and rounded once.  Unshifted, s_k^{-n} is mean^n (k ln2)^{-n},
  and the (k ln2)^{-n} sit in cached weights, so an abscissa costs one
  multiply and one call xi(k ln2/(n mean)).  A transform that answers the
  first call in mpmath climbs the whole ladder; one that answers in double
  precision (or only takes floats) stops at order 20.
* Fixed Talbot: deformed Bromwich contour, double-precision complex
  arithmetic; requires a complex evaluator.  The node angles, cotangents
  and contour derivatives do not depend on t and sit in a table cached per
  node count.

Transforms whose composed original carries Dirac content or indicator
kinks (survival-type functionals) are rejected here by declaration and
served by the closed-form catalogue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import mpmath as mp

from .errors import (ConfigurationError, InversionError, RangeError,
                     UnsupportedTransformError, _check_n, _check_positive, _in_range)
from .estimators import (_CATALOGUE, EstimateResult, Family, FunctionalSpec, Kind,
                         Sample)
from .special import log_gamma

__all__ = [
    "TransferFunction", "InversionConfig", "InversionMethod",
    "invert_gaver_stehfest", "invert_talbot", "generic_unbiased_estimate",
    "generic_phi", "builtin_transfer_function",
]


@dataclass
class TransferFunction:
    """A target functional xi of the rate parameter, as an evaluatable map.

    ``eval_real`` must accept positive reals (it may also be handed mpmath
    floats by the high-precision Gaver-Stehfest path; plain-Python
    arithmetic handles that transparently, and anything that does not is
    re-evaluated in double precision).  ``eval_complex`` extends xi into the
    complex plane and is required by the Talbot contour.

    ``delta_content`` declares that the induced estimator integrand has
    distributional (Dirac) content, which the numeric engine refuses;
    ``largest_real_singularity`` is the rightmost real singularity of xi
    (e.g. the MGF pole at t), used to shift the inversion contour so all
    sample points stay inside the region of convergence.
    """

    eval_real: Callable[[float], float]
    eval_complex: Optional[Callable[[complex], complex]] = None
    delta_content: bool = False
    largest_real_singularity: Optional[float] = None


class InversionMethod(Enum):
    GAVER_STEHFEST = "gaver-stehfest"
    TALBOT = "talbot"


@dataclass(frozen=True)
class InversionConfig:
    """Engine choice for the generic estimator.

    ``method=None`` selects automatically: Talbot when a complex evaluator
    is available, Gaver-Stehfest otherwise.
    """

    method: Optional[InversionMethod] = None

    def __post_init__(self):
        if self.method is not None and not isinstance(self.method, InversionMethod):
            raise ConfigurationError(f"unknown inversion method {self.method!r}")


# escalation ladder for the estimator-path Gaver-Stehfest order, summed at
# 1.1 digits per order + 15 (59 at order 40): for n <= 30 and means in
# [0.01, 100] the terms of the smooth built-ins and of lam/(lam + 1) cancel
# by at most 35.9 digits there, leaving 23 beyond a double's 17.
# Transforms that answer in double precision only stop at 20.
_GS_LADDER = (16, 20, 26, 32, 40)
_TALBOT_NODES = 32  # also the largest n the fixed contour serves


@lru_cache(maxsize=None)
def _stehfest_weight_fractions(order: int) -> tuple[Fraction, ...]:
    # Salzer summation weights, exact rational arithmetic
    half = order // 2
    weights = []
    for k in range(1, order + 1):
        total = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(j) ** half * math.factorial(2 * j)
            den = (math.factorial(half - j) * math.factorial(j)
                   * math.factorial(j - 1) * math.factorial(k - j)
                   * math.factorial(2 * j - k))
            total += Fraction(num, den)
        weights.append(Fraction(-1) ** (k + half) * total)
    return tuple(weights)


def _eval_mp(fn: Callable, x) -> tuple:
    """``fn`` at an mpmath abscissa as an mpf, and whether it answered in mpf;
    a callable that cannot digest mpf input is evaluated in double precision."""
    try:
        val = fn(x)
    except (TypeError, ValueError, OverflowError):
        val = fn(float(x))
    if isinstance(val, mp.mpf):
        return val, True
    if isinstance(val, int):  # exact at any precision
        return mp.mpf(val), True
    return mp.mpf(float(val)), False


def _man_exp(x: mp.mpf) -> tuple[int, int]:
    # x as (signed mantissa, exponent): x = man * 2^exp, man = 0 for 0, inf, nan
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


@lru_cache(maxsize=256)
def _stehfest_weights_mp(order: int, dps: int, n: int = 0) -> tuple:
    # w_k (k ln2)^-n rounded to ``dps`` digits, as _man_exp pairs, n = 0
    # giving the plain Salzer weights; bounded, since n takes any value
    with mp.workdps(dps):
        ln2 = mp.ln(2)
        return tuple(_man_exp(mp.mpf(w.numerator) / mp.mpf(w.denominator) / (k * ln2) ** n)
                     for k, w in enumerate(_stehfest_weight_fractions(order), 1))


def _dot(weights: Sequence[tuple], values: Sequence[tuple]) -> mp.mpf:
    """Sum of w_k v_k over _man_exp pairs: the products summed exactly in
    ints and rounded once at the working precision, as mp.fdot rounds."""
    terms = [(wm * vm, we + ve) for (wm, we), (vm, ve) in zip(weights, values)]
    low = min(e for _, e in terms)
    return mp.mpf((sum(m << (e - low) for m, e in terms), low))


def _gs_ladder(fn: Callable, t: float, orders: Sequence[int], n: int = 0,
               sigma: float = 0.0) -> float:
    """Gaver-Stehfest inversion at extended precision, climbing ``orders``.

    Returns invL{ F(sigma + .) }(t) * e^{sigma t} for F(s) = fn(s/m) s^-n,
    m = max(n, 1), i.e. the inversion of F shifted so its singularities sit
    left of every sample point.  Each abscissa s_k = sigma + k ln2/t is
    evaluated once, at the precision of the last order (1.1 digits per order
    + 15), and every order sums a prefix of the same values; with sigma = 0
    the weights carry (k ln2)^-n and t^n multiplies the sum.  The climb
    stops at 20 if fn does not answer the first abscissa in mpf, and at the
    first order that agrees with the one before to 5e-9 relative; if the
    last two still differ by more than 1e-3 it raises.  A single order is
    the plain fixed-order sum.
    """
    dps = int(1.1 * orders[-1]) + 15
    with mp.workdps(dps):
        ln2_t = mp.ln(2) / mp.mpf(t)
        sig = mp.mpf(sigma)
        if sigma:
            factor, folded = ln2_t * mp.e ** (sig * mp.mpf(t)), 0
        else:
            factor, folded, step = ln2_t * mp.mpf(t) ** n, n, ln2_t / max(n, 1)
        top = orders[-1]
        fvals = []
        values = []
        for order in orders:
            if order > top:
                break
            for k in range(len(fvals) + 1, order + 1):
                if sigma:
                    s = sig + k * ln2_t
                    fk, extended = _eval_mp(fn, s / n)
                    fk /= s ** n
                else:
                    fk, extended = _eval_mp(fn, k * step)
                man, exp = _man_exp(fk)
                if not man and exp:  # inf or nan
                    raise InversionError(
                        "transform evaluated non-finite on the Gaver-Stehfest abscissae",
                        {"method": "gaver-stehfest", "order": order, "t": t,
                         "abscissa": float(sig + k * ln2_t)})
                if k == 1 and not extended:  # past 20, weights over 1e12 amplify 1e-16 noise
                    top = 20
                fvals.append((man, exp))
            val = float(_dot(_stehfest_weights_mp(order, dps, folded), fvals) * factor)
            if values:
                prev = values[-1]
                if abs(val - prev) <= 5e-9 * max(abs(val), abs(prev), 1e-300):
                    return val
            values.append(val)
    if len(values) >= 2 and abs(values[-1] - values[-2]) > 1e-3 * max(abs(values[-1]), 1e-300):
        raise InversionError(
            "Gaver-Stehfest results kept oscillating beyond tolerance",
            {"method": "gaver-stehfest", "orders": [o for o in orders if o <= top],
             "values": values, "t": t})
    return values[-1]


def invert_gaver_stehfest(transform: TransferFunction, t: float, order: int = 16) -> float:
    """Invert ``transform`` at ``t`` with the Gaver-Stehfest scheme.

    Accurate for smooth, non-oscillatory originals; the order must be an
    even integer in [8, 20].
    """
    t = _check_positive("inversion time t", t)
    if order % 2 != 0 or not 8 <= order <= 20:
        raise ConfigurationError("Gaver-Stehfest order must be even and in [8, 20]")
    return _gs_ladder(transform.eval_real, t, [int(order)])


def invert_talbot(transform: TransferFunction, t: float, nodes: int = 32) -> float:
    """Invert ``transform`` at ``t`` on the fixed Talbot contour.

    Requires a complex evaluator analytic to the right of the transform's
    singularities.
    """
    if transform.eval_complex is None:
        raise ConfigurationError("Talbot inversion needs an eval_complex callable")
    t = _check_positive("inversion time t", t)
    if not 16 <= nodes <= 64:
        raise ConfigurationError("talbot node count must lie in [16, 64]")
    return _talbot_sum(transform.eval_complex, t, int(nodes))


@lru_cache(maxsize=None)
def _talbot_table(nodes: int) -> tuple:
    # per node (theta_k, cot theta_k + i, contour derivative factor), so that
    # p_k = r * theta_k * (cot theta_k + i); node 0 is p = r, stored as
    # 1 * (1 + 0i), and carries the factor 1/2
    table = [(1.0, complex(1.0, 0.0), 0.5)]
    for k in range(1, nodes):
        theta = k * math.pi / nodes
        cot = 1.0 / math.tan(theta)
        table.append((theta, complex(cot, 1.0), 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot))
    return tuple(table)


def _talbot_sum(fn: Callable[[complex], complex], t: float, nodes: int,
                sigma: float = 0.0) -> float:
    r = 2.0 * nodes / (5.0 * t)
    total = 0.0 + 0.0j
    for theta, cot_i, factor in _talbot_table(nodes):
        p = r * theta * cot_i
        gamma = cmath.exp(t * p) * factor
        fp = fn(p + sigma)
        if not (math.isfinite(fp.real) and math.isfinite(fp.imag)):
            raise InversionError("transform evaluated non-finite on the Talbot contour",
                                 {"method": "talbot", "nodes": nodes, "t": t})
        total += gamma * fp
    return (2.0 / (5.0 * t)) * total.real * math.exp(sigma * t)


# ---------------------------------------------------------------------------
# the generic estimator
# ---------------------------------------------------------------------------

def generic_phi(xi: TransferFunction, n: int,
                config: InversionConfig | None = None) -> Callable[[float], float]:
    """Estimator function mean -> estimate for an arbitrary smooth transform.

    The engine, the contour shift (n times xi's largest positive real
    singularity) and ln Gamma(n) are fixed here, without evaluating xi.
    Gaver-Stehfest climbs the order ladder until two consecutive orders
    agree: unshifted, it sums xi(k ln2/(n mean)) against cached weights
    w_k (k ln2)^-n times mean^n; shifted (the MGF, or any pole hint), it
    divides by s_k^n per abscissa.  An mpf answer at the first abscissa
    climbs to order 40, a float one stops at 20.  Talbot uses fixed nodes
    and serves n <= 32 only; past that it raises :class:`InversionError`.
    """
    if xi.delta_content:
        raise UnsupportedTransformError(
            "transform declared distributional (Dirac content); "
            "use the closed-form catalogue for survival-type functionals")
    n = _check_n(n)
    method = config.method if config is not None else None
    if method is None:
        method = (InversionMethod.TALBOT if xi.eval_complex is not None
                  else InversionMethod.GAVER_STEHFEST)
    hint = xi.largest_real_singularity
    sigma = n * float(hint) if hint is not None and hint > 0.0 else 0.0
    log_gamma_n = log_gamma(n)

    if method is InversionMethod.TALBOT:
        if xi.eval_complex is None:
            raise ConfigurationError("Talbot inversion needs an eval_complex callable")

        def composed_complex(s: complex) -> complex:
            return complex(xi.eval_complex(s / n)) / s ** n

        def invert(xbar: float) -> float:
            return _talbot_sum(composed_complex, xbar, _TALBOT_NODES, sigma=sigma)
    else:
        def invert(xbar: float) -> float:
            return _gs_ladder(xi.eval_real, xbar, _GS_LADDER, n, sigma)

    def phi(xbar: float) -> float:
        xbar = _check_positive("sample mean", xbar)
        diag = {"method": method.value, "n": n, "t": xbar}
        if method is InversionMethod.TALBOT and n > _TALBOT_NODES:
            raise InversionError(f"fixed Talbot is not accurate past n = {_TALBOT_NODES}", diag)
        try:  # s^n can overflow or underflow; the error names that arithmetic as its cause
            return _in_range("the inversion", lambda: invert(xbar) * math.exp(
                log_gamma_n - (n - 1) * math.log(xbar)))
        except RangeError as exc:
            raise InversionError("inversion overflowed double range", diag) from exc.__cause__

    return phi


def generic_unbiased_estimate(xi: TransferFunction, sample: Sample,
                              config: InversionConfig | None = None,
                              spec: FunctionalSpec | None = None) -> EstimateResult:
    """Unbiased estimate of a user-supplied functional via numeric inversion."""
    phi = generic_phi(xi, sample.n, config)
    if spec is None:
        spec = FunctionalSpec(Kind.CUSTOM, custom_transform=xi)
    return EstimateResult(phi(sample.mean), spec, sample.n, Family.GENERIC_LAPLACE)


# ---------------------------------------------------------------------------
# built-in transforms
# ---------------------------------------------------------------------------

def builtin_transfer_function(spec: FunctionalSpec) -> TransferFunction:
    """Transfer function of a catalogue functional: its row's xi.

    The smooth rows (rate power, quantile, moment, MGF, expected shortfall)
    evaluate the same expression on reals, complexes and mpmath floats and
    are servable by either engine; the survival-type rows are flagged
    ``delta_content``, have no complex evaluator and are rejected by the
    generic engine, since their estimators arise from Dirac sifting and
    exist in closed form.
    """
    if spec.kind is Kind.CUSTOM:
        return spec.custom_transform
    row = _CATALOGUE[spec.kind]
    fn = row.xi(spec)
    return TransferFunction(fn, None if row.delta_content else fn,
                            delta_content=row.delta_content,
                            largest_real_singularity=row.pole(spec))
