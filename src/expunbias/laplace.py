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
  top order, and every order sums a prefix of the same values: the weights
  are cached as integers over one exponent, each value is aligned to one
  exponent at or below its own as it arrives, and an order's sum is one
  exact integer dot product, rounded once.  Unshifted, s_k^{-n} is mean^n
  (k ln2)^{-n}, and the (k ln2)^{-n} sit in cached weights, so an abscissa
  costs one multiply and one call xi(k ln2/(n mean)).  A built-in xi binds
  its constants as float default arguments; the ladder calls a copy whose
  defaults are mpf, made once per xi (``_ladder_xi``).  float -> mpf is
  exact and mpmath converts a float operand to that same mpf before it
  computes, so the copy answers with the bits of the float closure.  A
  transform that answers the first call in mpmath climbs the whole ladder;
  one that answers in double precision (or only takes floats) stops at
  order 20.
* The saddle-centred contour (the "talbot" method, by its first engine's
  name): s = n w/mean turns the estimator into Gamma(n) n^(1-n) (1/2 pi i)
  int e^(nw) w^(-n) xi(w/mean) dw, whose kernel has its saddle at w = 1 for
  every n and mean.  On the parabola w = w0 (1 + iv/sqrt(n))^2 through it
  (Weideman & Trefethen, Math. Comp. 76, 2007) the nodes and kernel weights
  do not depend on the mean, so they are cached per n, apex and node count,
  and a mean costs one call of ``eval_complex`` on an array of nodes and two
  trapezoid sums, N and 2N intervals, whose agreement is checked.  It serves
  every n.

Transforms whose composed original carries Dirac content or indicator
kinks (survival-type functionals) are rejected here by declaration and
served by the closed-form catalogue.  Only the Gaver-Stehfest ladder uses
mpmath, and it imports it where it runs, so importing the package (or
inverting on the contour) does not load it.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import FunctionType
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, InversionError, RangeError,
                     UnsupportedTransformError, _check_n, _check_positive, _in_range)
from .estimators import (_CATALOGUE, EstimateResult, Family, FunctionalSpec, Kind,
                         Sample, _rule_in_n, _xi_of)
from .special import _stirling_remainder, log_gamma

__all__ = [
    "TransferFunction", "InversionConfig", "InversionMethod",
    "generic_unbiased_estimate", "generic_phi", "builtin_transfer_function",
]


@dataclass
class TransferFunction:
    """A target functional xi of the rate parameter, as an evaluatable map.

    ``eval_real`` must accept positive reals (it may also be handed mpmath
    floats by the high-precision Gaver-Stehfest path; plain-Python
    arithmetic handles that transparently, and anything that does not is
    re-evaluated in double precision).  ``eval_complex`` extends xi into the
    complex plane and is required by the contour engine, which hands it a
    numpy array of complex rates and expects an array of the same shape back
    (numpy arithmetic does this); a callable that raises ``TypeError`` or
    ``ValueError`` on an array, such as one built on ``cmath`` or one that
    branches on its argument, is called node by node with Python complex
    numbers.

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

    ``method=None`` selects automatically: the contour engine (``TALBOT``)
    when a complex evaluator is available, Gaver-Stehfest otherwise.
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
_EPS = 2.0 ** -52


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
    if type(val) is type(x):  # an mpf, as the ladder's transforms answer
        return val, True
    import mpmath as mp
    if isinstance(val, mp.mpf):
        return val, True
    if isinstance(val, int):  # exact at any precision
        return mp.mpf(val), True
    return mp.mpf(float(val)), False


def _ladder_xi(fn: Callable) -> Callable:
    # a catalogue xi (a function of the estimators module) with its float
    # constants as mpf, any other callable as it is
    if type(fn) is FunctionType and fn.__module__ == _xi_of.__module__ and fn.__defaults__:
        return _mpf_constants(fn)
    return fn


@lru_cache(maxsize=256)
def _mpf_constants(fn: FunctionType) -> FunctionType:
    # fn with its float default arguments as mpf; bounded, as the catalogue's _built_xi
    import mpmath as mp
    return FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                        tuple(mp.mpf(d) if isinstance(d, float) else d for d in fn.__defaults__),
                        fn.__closure__)


@lru_cache(maxsize=256)
def _stehfest_weights_mp(order: int, dps: int, n: int) -> tuple[tuple[int, ...], int]:
    # w_k (k ln2)^-n rounded to ``dps`` digits, as integers W_k over one
    # exponent, w_k = W_k 2^low; bounded, since n takes any value
    import mpmath as mp
    with mp.workdps(dps):
        ln2 = mp.ln(2)
        raw = [(mp.mpf(w.numerator) / mp.mpf(w.denominator) / (k * ln2) ** n)._mpf_
               for k, w in enumerate(_stehfest_weight_fractions(order), 1)]
    low = min(e for _, _, e, _ in raw)
    return tuple((-m if sign else m) << (e - low) for sign, m, e, _ in raw), low


def _gs_ladder(fn: Callable, t: float, orders: Sequence[int], n: int,
               sigma: float = 0.0) -> float:
    """Gaver-Stehfest inversion at extended precision, climbing ``orders``.

    Returns invL{ F(sigma + .) }(t) * e^{sigma t} for F(s) = fn(s/n) s^-n,
    n >= 1, i.e. the inversion of F shifted so its singularities sit
    left of every sample point.  Each abscissa s_k = sigma + k ln2/t is
    evaluated once, at the precision of the last order (1.1 digits per order
    + 15), and every order sums a prefix of the same values; with sigma = 0
    the weights carry (k ln2)^-n and t^n multiplies the sum.  The climb
    stops at 20 if fn does not answer the first abscissa in mpf, and at the
    first order that agrees with the one before to 5e-9 relative; if the
    last two still differ by more than 1e-3 it raises.  A single order is
    the plain fixed-order sum.

    A catalogue xi is called with its float constants bound as mpf
    (``_ladder_xi``), so it does not convert them at every abscissa; the
    conversion is exact, so its values keep their bits.  The shifted
    abscissae, s_k/m, s_k^n and the per-order roundings use mpmath's raw
    functions (``mpmath.libmp``) with the calls and roundings that the mpf
    operators make, and so keep their bits too.
    """
    import mpmath as mp
    from mpmath.libmp import (from_int, from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_mul_int,
                              mpf_pow_int, round_nearest, to_float)
    fn = _ladder_xi(fn)
    dps = int(1.1 * orders[-1]) + 15
    with mp.workdps(dps):
        prec, rnd = mp.mp.prec, round_nearest
        tm = mp.mpf(t)
        ln2_t = mp.ln(2) / tm
        if sigma:
            sig = mp.mpf(sigma)
            factor, folded = ln2_t * mp.e ** (sig * tm), 0
            sig_, ln2_t_, n_ = sig._mpf_, ln2_t._mpf_, from_int(n)
        else:
            factor, folded, step = ln2_t * tm ** n, n, ln2_t / n
        factor = factor._mpf_
        top = orders[-1]
        # the values as integers V_k over one exponent vlow, f_k = V_k 2^vlow; a value
        # below vlow moves it 30 bits past its own exponent, so that the held values
        # are shifted again only now and then (a 0 has exponent 0, so vlow never
        # passes 0 and a 0 never moves it)
        fvals, vlow = [], 0
        values = []
        for order in orders:
            if order > top:
                break
            for k in range(len(fvals) + 1, order + 1):
                if sigma:
                    s = mpf_add(sig_, mpf_mul_int(ln2_t_, k, prec, rnd), prec, rnd)
                    fk, extended = _eval_mp(fn, mp.make_mpf(mpf_div(s, n_, prec, rnd)))
                    sign, man, exp, _ = mpf_div(fk._mpf_, mpf_pow_int(s, n, prec, rnd), prec, rnd)
                else:
                    fk, extended = _eval_mp(fn, k * step)
                    sign, man, exp, _ = fk._mpf_
                if not man and exp:  # inf or nan
                    raise InversionError(
                        "transform evaluated non-finite on the Gaver-Stehfest abscissae",
                        {"method": "gaver-stehfest", "order": order, "t": t,
                         "abscissa": float(sigma + k * ln2_t)})
                if k == 1 and not extended:  # past 20, weights over 1e12 amplify 1e-16 noise
                    top = 20
                if exp < vlow:
                    fvals = [v << (vlow - exp + 30) for v in fvals]
                    vlow = exp - 30
                fvals.append((-man if sign else man) << (exp - vlow))
            # the exact sum of the products, rounded once at the working precision
            weights, wlow = _stehfest_weights_mp(order, dps, folded)
            val = to_float(mpf_mul(from_man_exp(sum(map(operator.mul, weights, fvals)), wlow + vlow,
                                                prec, rnd), factor, prec, rnd), rnd=rnd)
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


# ---------------------------------------------------------------------------
# the saddle-centred contour
# ---------------------------------------------------------------------------

# the parabola w = w0 (1 + iv/sqrt(n))^2, v in [-8, 8], on which the kernel falls
# off like e^(-w0 v^2); its v < 0 half is the conjugate of its v > 0 half
_CONTOUR_V = 8.0
_CONTOUR_FIRST, _CONTOUR_CAP = 32, 4096  # coarse intervals; the fine grid has twice as many
_CONTOUR_TOL = 1e-12
_APEX_STEPS = 32  # apexes per octave
# raise where the rounding floor passes this share of the sum: on sweeps of the
# MGF and of lam/(lam + 1) the error reached 1.4 times the floor, so 5e-13 keeps
# a returned value within 1e-12
_CONTOUR_CANCEL = 5e-13
# v of the probe node, close enough to the apex that xi's phase turns by less
# than pi up to phase rates far past what 4096 intervals resolve
_PROBE_V = 2.0 ** -16


@lru_cache(maxsize=512)
def _contour(n: int, apex: int, intervals: int) -> tuple[np.ndarray, ...]:
    """Nodes w_j, weights c_j, rounding scales and the two rows that pick the
    fine and the coarse sum, of the fine grid (2 ``intervals`` on [0, 8]) at
    the apex w0 = 2^(apex/32), read-only, so that phi(mean) = Re sum c_j xi(w_j/mean).

    c_j = exp(ln(2 pi n)/2 + R(n) + n (z - log1p z)) (dw/dv) h_j / (pi i), z = w - 1,
    with R the Stirling remainder: the factor Gamma(n) n^(1-n) and the kernel in
    one exponent, whose real and imaginary parts are written out so that neither
    cancels.  Its value at the apex is one factor, so its rounding is common to
    every node; the part e_j that varies along the contour is rounded to
    eps |e_j|, so c_j carries (1 + |e_j|) eps of its own: scale_j =
    |c_j| (1 + |e_j|).  An even node carries half the weight the coarse grid
    gives it, so the coarse sum is twice the sum over the even nodes (the
    second row of ``rows``).  One more node, the probe at v = 2^-16, has
    weight 0.
    """
    w0 = 2.0 ** (apex / _APEX_STEPS)
    v = np.append(np.linspace(0.0, _CONTOUR_V, 2 * intervals + 1), _PROBE_V)
    u = v / math.sqrt(n)
    varying = (-n * w0 * u * u - n * np.log1p(u * u)
               + 2j * n * ((w0 - 1.0) * u + (u - np.arctan(u))))
    fixed = n * (w0 - 1.0 - math.log(w0)) + 0.5 * math.log(2.0 * math.pi * n) + _stirling_remainder(n)
    h = _CONTOUR_V / (2 * intervals)
    with np.errstate(all="ignore"):  # weights past double range make the sum non-finite
        weights = np.exp(varying) * (1.0 + 1j * u) * (
            np.exp(fixed) * 2.0 * w0 * h / (math.pi * math.sqrt(n)))
        weights[[0, -2]] *= 0.5
        weights[-1] = 0.0
        scale = np.abs(weights) * (1.0 + np.abs(varying))
    nodes = w0 * (1.0 + 1j * u) ** 2
    rows = np.zeros((2, v.size))
    rows[0] = 1.0
    rows[1, :-1:2] = 2.0
    for a in (nodes, weights, scale, rows):
        a.flags.writeable = False
    return nodes, weights, scale, rows


def _resolution(n: int, w0: float, strip: float, rate: float) -> float:
    # the coarse intervals whose step h = 8/N resolves the integrand's phase rate
    # at the apex beyond its Gaussian width (2 pi/h at least 12 widths past it, so
    # that the N and 2N grids cannot alias it alike), and keeps 2 pi d/h >= 36 on
    # the strip |Im v| < d where it is analytic.  The kernel turns at
    # 2 sqrt(n) (w0 - 1) per unit v; xi ~ lam^r turns at rate = 2r/sqrt(n) and
    # narrows the width from 1/sqrt(w0) to 1/sqrt(w0 - r/n).
    phase = abs(2.0 * math.sqrt(n) * (w0 - 1.0) + rate)
    width = math.sqrt(w0 + abs(rate) / (2.0 * math.sqrt(n)))
    return _CONTOUR_V / (2.0 * math.pi) * max(phase + 12.0 * width, 36.0 / strip)


def _contour_phi(fn: Callable, n: int, xbar: float, shift: float) -> float:
    """phi(mean) = Gamma(n) n^(1-n) (1/2 pi i) int e^(nw) w^-n xi(w/mean) dw.

    The apex is w0 >= shift mean + 3/sqrt(n) (at least 1, the saddle), rounded
    up to the lattice 2^(k/32) so that shifted contours are cached too.  The
    intervals, a power of 2, resolve the integrand (``_resolution``), whose
    strip is bounded by the pole hint at v = i sqrt(n) (1 - sqrt(shift mean/w0))
    and by w = 0 at v = i sqrt(n); xi's phase rate is read at the probe node,
    and a pass that finds xi turning faster than its grid resolves runs again
    on a finer one.  Each pass evaluates xi once, on the fine grid, and
    returns its sum where it agrees with the coarse sum to 1e-12 or within the
    rounding floor eps (sum s_j max s_j)^(1/2), s_j = |xi_j| scale_j, a bound
    on the nodes' own roundings added at random, (sum s_j^2)^(1/2), that cannot
    overflow; otherwise N doubles, up to 4096.
    """
    diag = {"method": "talbot", "n": n, "t": xbar}
    target = max(1.0, shift * xbar + 3.0 / math.sqrt(n)) if shift > 0.0 else 1.0
    if not n * (target - 1.0 - math.log(target)) < 700.0:
        raise InversionError("the kernel at the contour's apex leaves double range",
                             {**diag, "apex": target})
    apex = math.ceil(_APEX_STEPS * math.log2(target))
    w0 = 2.0 ** (apex / _APEX_STEPS)
    strip = math.sqrt(n) * (1.0 - math.sqrt(shift * xbar / w0) if shift > 0.0 else 1.0)
    need = _resolution(n, w0, strip, 0.0)
    intervals = _CONTOUR_FIRST
    while True:
        if need > intervals:
            intervals = 1 << math.ceil(math.log2(need))
        if intervals > _CONTOUR_CAP:
            raise InversionError(f"the contour needs more than {_CONTOUR_CAP} intervals", diag)
        nodes, weights, scale, rows = _contour(n, apex, intervals)
        try:
            with np.errstate(all="ignore"):  # a sum past double range raises below
                lam = nodes / xbar
                try:
                    values = np.asarray(fn(lam), dtype=complex)
                except (TypeError, ValueError):  # a callable of scalars only
                    values = np.array([complex(fn(z)) for z in lam.tolist()])
                terms = weights * values
                fine, coarse = (rows @ terms.real).tolist()
                spread = np.abs(values) * scale
                floor = _EPS * math.sqrt(float(spread.sum())) * math.sqrt(float(spread.max()))
        except (OverflowError, ZeroDivisionError) as exc:
            raise InversionError("transform left double range on the contour", diag) from exc
        diag.update(intervals=intervals, fine=fine, coarse=coarse, floor=floor)
        if not (math.isfinite(fine) and math.isfinite(floor)):
            raise InversionError("contour sum is not finite", diag)
        # xi's phase rate at the apex, from the probe (flat: xi may answer one constant)
        rate = math.remainder(cmath.phase(values.flat[-1]) - cmath.phase(values.flat[0]),
                              2.0 * math.pi) / _PROBE_V
        need = _resolution(n, w0, strip, rate)
        if need > intervals:
            continue
        if abs(terms[-2]) > floor:
            raise InversionError("the transform grows faster than the contour's kernel decays",
                                 diag)
        if floor > _CONTOUR_CANCEL * abs(fine):
            raise InversionError("contour terms cancel past double precision", diag)
        if abs(fine - coarse) <= _CONTOUR_TOL * abs(fine) + floor:
            return fine
        intervals *= 2


# ---------------------------------------------------------------------------
# the generic estimator
# ---------------------------------------------------------------------------

def generic_phi(xi: TransferFunction, n: int,
                config: InversionConfig | None = None) -> Callable[[float], float]:
    """Estimator function mean -> estimate for an arbitrary smooth transform.

    The engine and the contour shift (xi's largest positive real
    singularity) are fixed here, without evaluating xi.  Gaver-Stehfest
    climbs the order ladder until two consecutive orders agree: unshifted,
    it sums xi(k ln2/(n mean)) against cached weights w_k (k ln2)^-n times
    mean^n; shifted (the MGF, or any pole hint), it divides by s_k^n per
    abscissa.  An mpf answer at the first abscissa climbs to order 40, a
    float one stops at 20.  The complex engine ("talbot") evaluates
    ``eval_complex`` once per mean on an array of contour nodes w_j/mean,
    with weights cached per n, and serves every n.  A bare transform carries
    no domain in n, so none is checked here: ``generic_unbiased_estimate``
    applies a built-in spec's rule.
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
    shift = float(hint) if hint is not None and hint > 0.0 else 0.0

    if method is InversionMethod.TALBOT:
        if xi.eval_complex is None:
            raise ConfigurationError("Talbot inversion needs an eval_complex callable")

        def phi(xbar: float) -> float:
            return _contour_phi(xi.eval_complex, n, _check_positive("sample mean", xbar), shift)
        return phi

    log_gamma_n = log_gamma(n)

    def phi(xbar: float) -> float:
        xbar = _check_positive("sample mean", xbar)
        try:  # s^n can overflow or underflow; the error names that arithmetic as its cause
            return _in_range("the inversion", lambda: _gs_ladder(
                xi.eval_real, xbar, _GS_LADDER, n, n * shift) * math.exp(
                log_gamma_n - (n - 1) * math.log(xbar)))
        except RangeError as exc:
            raise InversionError("inversion overflowed double range",
                                 {"method": method.value, "n": n, "t": xbar}) from exc.__cause__

    return phi


def generic_unbiased_estimate(xi: TransferFunction, sample: Sample,
                              config: InversionConfig | None = None,
                              spec: FunctionalSpec | None = None) -> EstimateResult:
    """Unbiased estimate of a user-supplied functional via numeric inversion.

    A built-in ``spec`` whose row states xi as atoms brings that row's rule in
    n, as ``phi_function`` applies it: where no unbiased estimator exists (the
    rate power at p >= n) the estimate raises :class:`DomainError`.
    """
    phi = generic_phi(xi, sample.n, config)
    if spec is None:
        spec = FunctionalSpec(Kind.CUSTOM, custom_transform=xi)
    elif _CATALOGUE[spec.kind].atoms is not None:
        _rule_in_n(spec, sample.n, sample.n)
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
    fn = _xi_of(spec)
    return TransferFunction(fn, None if row.delta_content else fn,
                            delta_content=row.delta_content,
                            largest_real_singularity=row.pole(spec))
