"""Numerical inverse Laplace transforms and the generic unbiased estimator.

For a target functional xi(lambda) with Laplace-invertible structure, the
unbiased estimator of xi from an exp(lambda) sample of size n is

    phi(mean) = Gamma(n)/mean^{n-1} * invL{ xi(s/n) / s^n }(mean),

and equivalently the Riemann-Liouville convolution of invL{xi(s/n)} against
(1 - v/mean)^{n-1}.  Three numerical realisations are provided:

* Gaver-Stehfest: real-axis sampling with Salzer weights.  The weights are
  computed exactly as rationals; the summation runs in extended precision
  (mpmath) because the weights grow like 10^{0.45*order} and would otherwise
  drown the result in rounding noise.  The estimator path escalates the
  order automatically until two consecutive orders agree, since the
  composed transform's original grows like x^{n-1} and needs high orders
  for large n.  The abscissae do not depend on the order, so the ladder
  evaluates each one once, at the precision of its top order, and every
  order sums a prefix of the same values.
* Fixed Talbot: deformed Bromwich contour, double-precision complex
  arithmetic; requires a complex evaluator.
* Convolution quadrature: pointwise inversion of xi(s/n) fed through the
  convolution integral; the real-only fallback for transforms whose own
  inverse exists as an ordinary function.

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
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from ._quadrature import adaptive_gauss_kronrod
from .errors import (ConfigurationError, DomainError, InversionError,
                     UnsupportedTransformError)
from .estimators import (EstimateResult, Family, FunctionalSpec, Kind, Sample)
from .special import log_gamma

__all__ = [
    "TransferFunction", "InversionConfig", "InversionMethod",
    "invert_gaver_stehfest", "invert_talbot", "generic_unbiased_estimate",
    "generic_phi", "builtin_transfer_function", "BUILTIN_TRANSFORMS",
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
    domain_note: str = ""
    delta_content: bool = False
    largest_real_singularity: Optional[float] = None


class InversionMethod(Enum):
    GAVER_STEHFEST = "gaver-stehfest"
    TALBOT = "talbot"
    CONVOLUTION_QUADRATURE = "convolution-quadrature"


@dataclass(frozen=True)
class InversionConfig:
    """Method choice and tuning for the numeric inversions.

    ``method=None`` selects automatically: Talbot when a complex evaluator
    is available, Gaver-Stehfest otherwise.
    """

    method: Optional[InversionMethod] = None
    gs_order: int = 16
    talbot_nodes: int = 32
    # the convolution path's inner order-14 inversions are good to ~1e-9,
    # so pushing the quadrature below that only chases noise
    quad_rel_tol: float = 1e-8
    quad_max_subdiv: int = 2048

    def __post_init__(self):
        if self.method is not None and not isinstance(self.method, InversionMethod):
            raise ConfigurationError(f"unknown inversion method {self.method!r}")
        if self.gs_order % 2 != 0 or not 8 <= self.gs_order <= 20:
            raise ConfigurationError("gs_order must be an even integer in [8, 20]")
        if not 16 <= self.talbot_nodes <= 64:
            raise ConfigurationError("talbot_nodes must lie in [16, 64]")
        if self.quad_rel_tol <= 0.0 or self.quad_max_subdiv < 1:
            raise ConfigurationError("quadrature tolerances must be positive")


_DEFAULT_CONFIG = InversionConfig()

# escalation ladder for the estimator-path Gaver-Stehfest order; beyond the
# public [8, 20] window the summation runs at ~2.2 digits per order, which
# mpmath makes exact.
_GS_LADDER = (16, 20, 26, 32, 40)


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


@lru_cache(maxsize=None)
def _stehfest_weights_float(order: int) -> tuple[float, ...]:
    # rounded exactly once from the rational values
    return tuple(float(w) for w in _stehfest_weight_fractions(order))


def _eval_mp(fn: Callable, s):
    """Evaluate a user transform at an mpmath abscissa, falling back to
    double precision if the callable cannot digest mpf input."""
    try:
        val = fn(s)
    except (TypeError, ValueError, OverflowError):
        val = fn(float(s))
    if isinstance(val, mp.mpf):
        return val
    return mp.mpf(float(val))


@lru_cache(maxsize=None)
def _stehfest_weights_mp(order: int, dps: int) -> tuple:
    # rounded to ``dps`` digits once per process
    with mp.workdps(dps):
        return tuple(mp.mpf(w.numerator) / mp.mpf(w.denominator)
                     for w in _stehfest_weight_fractions(order))


def _gs_ladder(fn: Callable, t: float, orders: list[int], sigma: float = 0.0) -> float:
    """Gaver-Stehfest inversion at extended precision, climbing ``orders``.

    Returns invL{ F(sigma + .) }(t) * e^{sigma t}, i.e. the inversion of F
    shifted so its singularities sit left of every sample point.  The
    abscissae sigma + k ln2/t do not depend on the order, so each is
    evaluated once, at the precision of the last order (2.2 digits per
    order + 15), and every order sums a prefix of the same values.  The
    climb stops at the first order that agrees with the one before to 5e-9
    relative; if the last two still differ by more than 1e-3 it raises.  A
    single order is the plain fixed-order sum.
    """
    dps = int(2.2 * orders[-1]) + 15
    with mp.workdps(dps):
        ln2_t = mp.ln(2) / mp.mpf(t)
        sig = mp.mpf(sigma)
        factor = ln2_t * mp.e ** (sig * mp.mpf(t))
        fvals = []
        values = []
        for order in orders:
            for k in range(len(fvals) + 1, order + 1):
                fk = _eval_mp(fn, sig + k * ln2_t)
                if not mp.isfinite(fk):
                    raise InversionError(
                        "transform evaluated non-finite on the Gaver-Stehfest abscissae",
                        {"method": "gaver-stehfest", "order": order, "t": t,
                         "abscissa": float(sig + k * ln2_t)})
                fvals.append(fk)
            val = float(mp.fdot(_stehfest_weights_mp(order, dps), fvals) * factor)
            if values:
                prev = values[-1]
                if abs(val - prev) <= 5e-9 * max(abs(val), abs(prev), 1e-300):
                    return val
            values.append(val)
    if len(values) >= 2 and abs(values[-1] - values[-2]) > 1e-3 * max(abs(values[-1]), 1e-300):
        raise InversionError(
            "Gaver-Stehfest results kept oscillating beyond tolerance",
            {"method": "gaver-stehfest", "orders": list(orders), "values": values, "t": t})
    return values[-1]


def invert_gaver_stehfest(transform: TransferFunction, t: float, order: int = 16) -> float:
    """Invert ``transform`` at ``t`` with the Gaver-Stehfest scheme.

    Accurate for smooth, non-oscillatory originals; the order must be an
    even integer in [8, 20].
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("inversion time t must be finite and positive")
    if order % 2 != 0 or not 8 <= order <= 20:
        raise ConfigurationError("Gaver-Stehfest order must be even and in [8, 20]")
    return _gs_ladder(transform.eval_real, float(t), [int(order)])


def _gs_sum_double(fn: Callable[[float], float], t: float, order: int,
                   sigma: float = 0.0) -> float:
    # plain double-precision variant for the inner convolution inversions
    ln2_t = math.log(2.0) / t
    weights = _stehfest_weights_float(order)
    total = math.fsum(weights[k - 1] * fn(sigma + k * ln2_t)
                      for k in range(1, order + 1))
    return total * ln2_t * math.exp(sigma * t)


def invert_talbot(transform: TransferFunction, t: float, nodes: int = 32) -> float:
    """Invert ``transform`` at ``t`` on the fixed Talbot contour.

    Requires a complex evaluator analytic to the right of the transform's
    singularities.
    """
    if transform.eval_complex is None:
        raise ConfigurationError("Talbot inversion needs an eval_complex callable")
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("inversion time t must be finite and positive")
    if not 16 <= nodes <= 64:
        raise ConfigurationError("talbot node count must lie in [16, 64]")
    return _talbot_sum(transform.eval_complex, float(t), int(nodes))


def _talbot_sum(fn: Callable[[complex], complex], t: float, nodes: int,
                sigma: float = 0.0) -> float:
    r = 2.0 * nodes / (5.0 * t)
    total = 0.0 + 0.0j
    for k in range(nodes):
        if k == 0:
            p = complex(r, 0.0)
            gamma = 0.5 * cmath.exp(t * p)
        else:
            theta = k * math.pi / nodes
            cot = 1.0 / math.tan(theta)
            p = r * theta * complex(cot, 1.0)
            gamma = cmath.exp(t * p) * (1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot)
        fp = fn(p + sigma)
        if not (math.isfinite(fp.real) and math.isfinite(fp.imag)):
            raise InversionError("transform evaluated non-finite on the Talbot contour",
                                 {"method": "talbot", "nodes": nodes, "t": t})
        total += gamma * fp
    return (2.0 / (5.0 * t)) * total.real * math.exp(sigma * t)


# ---------------------------------------------------------------------------
# the generic estimator
# ---------------------------------------------------------------------------

def _shift_for(xi: TransferFunction, n: int) -> float:
    hint = xi.largest_real_singularity
    if hint is None or hint <= 0.0:
        return 0.0
    return n * float(hint)


def _composed_real(xi: TransferFunction, n: int) -> Callable:
    def G(s):
        return _eval_mp(xi.eval_real, s / n) / s ** n
    return G


def _composed_complex(xi: TransferFunction, n: int) -> Callable[[complex], complex]:
    def G(s: complex) -> complex:
        return complex(xi.eval_complex(s / n)) / s ** n
    return G


def _keeps_extended_precision(fn: Callable) -> bool:
    # orders past ~20 only pay off if the transform can answer in mpmath
    # precision; a float-returning callable would feed 1e-16 rounding noise
    # into weights of magnitude 1e12+.  Two probe points so a user pole
    # cannot masquerade as a precision failure.
    with mp.workdps(40):
        for probe in (mp.mpf(2) / 3 + mp.pi / 113, mp.mpf(5) / 7 + mp.pi / 89):
            try:
                out = fn(probe)
            except Exception:
                continue
            return (isinstance(out, (mp.mpf, mp.mpc, int))
                    or type(out).__name__ == "Fraction")
    return False


def _gs_direct_escalating(xi: TransferFunction, n: int, xbar: float,
                          start_order: int, mp_capable: bool) -> float:
    """Direct-path Gaver-Stehfest inversion of xi(s/n)/s^n at xbar.

    Climbs the order ladder until two consecutive results agree to ~1e-9
    relative; diverging results raise with diagnostics.  Transforms that
    evaluate in double precision only are capped at order 20.
    """
    orders = [start_order] + [o for o in _GS_LADDER if o > start_order]
    if not mp_capable:
        orders = [o for o in orders if o <= 20] or [start_order]
    return _gs_ladder(_composed_real(xi, n), xbar, orders, sigma=_shift_for(xi, n))


def _phi_value(xi: TransferFunction, n: int, xbar: float,
               config: InversionConfig, method: InversionMethod,
               mp_capable: bool) -> float:
    sigma = _shift_for(xi, n)
    log_coef = log_gamma(n) - (n - 1) * math.log(xbar)
    if method is InversionMethod.GAVER_STEHFEST:
        inv = _gs_direct_escalating(xi, n, xbar, config.gs_order, mp_capable)
        return math.exp(log_coef) * inv
    if method is InversionMethod.TALBOT:
        if xi.eval_complex is None:
            raise ConfigurationError("Talbot inversion needs an eval_complex callable")
        inv = _talbot_sum(_composed_complex(xi, n), xbar, config.talbot_nodes,
                          sigma=sigma)
        return math.exp(log_coef) * inv
    # Riemann-Liouville convolution path: invert xi(s/n) pointwise and
    # integrate against the (1 - v/xbar)^{n-1} kernel.
    def h_point(v: float) -> float:
        return _gs_sum_double(
            lambda s: float(xi.eval_real(s / n)), v, 14, sigma=sigma)

    def integrand(v: np.ndarray) -> np.ndarray:
        va = np.atleast_1d(v)
        out = np.array([h_point(float(x)) for x in va])
        return ((1.0 - va / xbar) ** (n - 1) * out).reshape(np.shape(v))

    value, _, _ = adaptive_gauss_kronrod(
        integrand, 0.0, xbar, rel_tol=config.quad_rel_tol,
        max_segments=config.quad_max_subdiv)
    return value


def generic_phi(xi: TransferFunction, n: int,
                config: InversionConfig | None = None) -> Callable[[float], float]:
    """Estimator function mean -> estimate for an arbitrary smooth transform."""
    if xi.delta_content:
        raise UnsupportedTransformError(
            "transform declared distributional (Dirac content); "
            "use the closed-form catalogue for survival-type functionals")
    if n < 1:
        raise DomainError("n must be a positive integer")
    cfg = config or _DEFAULT_CONFIG
    method = cfg.method
    if method is None:
        method = (InversionMethod.TALBOT if xi.eval_complex is not None
                  else InversionMethod.GAVER_STEHFEST)
    mp_capable = (method is InversionMethod.GAVER_STEHFEST
                  and _keeps_extended_precision(xi.eval_real))

    def phi(xbar: float) -> float:
        if not (xbar > 0.0 and math.isfinite(xbar)):
            raise DomainError("sample mean must be finite and positive")
        val = _phi_value(xi, n, float(xbar), cfg, method, mp_capable)
        if not math.isfinite(val):
            raise InversionError("inversion produced a non-finite estimate",
                                 {"method": method.value, "t": xbar})
        return val

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

def _exp_any(s):
    if isinstance(s, complex):
        return cmath.exp(s)
    if isinstance(s, mp.mpf):
        return mp.e ** s
    return math.exp(s)


def builtin_transfer_function(spec: FunctionalSpec) -> TransferFunction:
    """Transfer function of a catalogue functional.

    The smooth rows (rate power, quantile, moment, MGF, expected shortfall)
    come with complex evaluators and are servable by the generic engine; the
    survival-type rows are flagged ``delta_content`` and are rejected there,
    since their estimators arise from Dirac sifting and exist in closed form.
    """
    k = spec.kind
    if k is Kind.RATE_POWER:
        p = float(spec.p)
        fn = lambda s: s ** p
        return TransferFunction(fn, fn, domain_note="branch point at 0",
                                largest_real_singularity=0.0)
    if k is Kind.QUANTILE:
        c = -math.log1p(-spec.q)
        fn = lambda s: c / s
        return TransferFunction(fn, fn, domain_note="pole at 0",
                                largest_real_singularity=0.0)
    if k is Kind.MOMENT:
        p = float(spec.p)
        g = math.exp(log_gamma(p + 1.0))
        fn = lambda s: g * s ** (-p)
        return TransferFunction(fn, fn, domain_note="branch point at 0",
                                largest_real_singularity=0.0)
    if k is Kind.MGF:
        t = float(spec.t)
        fn = lambda s: s / (s - t)
        return TransferFunction(fn, fn, domain_note=f"pole at {t}",
                                largest_real_singularity=t)
    if k is Kind.EXPECTED_SHORTFALL:
        c = -math.log1p(-spec.p) + 1.0
        fn = lambda s: c / s
        return TransferFunction(fn, fn, domain_note="pole at 0",
                                largest_real_singularity=0.0)
    if k is Kind.SURVIVAL:
        t = float(spec.t)
        fn = lambda s: _exp_any(-t * s)
        return TransferFunction(fn, fn, domain_note="Dirac original",
                                delta_content=True, largest_real_singularity=0.0)
    if k is Kind.MAX_CDF_POWER:
        t, m = float(spec.t), int(spec.m)
        fn = lambda s: (1.0 - _exp_any(-t * s)) ** m
        return TransferFunction(fn, fn, domain_note="Dirac comb original",
                                delta_content=True, largest_real_singularity=0.0)
    if k is Kind.MIN_SURVIVAL:
        a = float(spec.t) * int(spec.m)
        fn = lambda s: _exp_any(-a * s)
        return TransferFunction(fn, fn, domain_note="Dirac original",
                                delta_content=True, largest_real_singularity=0.0)
    if k is Kind.PDF:
        t = float(spec.t)
        fn = lambda s: s * _exp_any(-t * s)
        return TransferFunction(fn, fn, domain_note="Dirac-derivative original",
                                delta_content=True, largest_real_singularity=0.0)
    if k is Kind.MEAN_PAST_LIFETIME:
        t = float(spec.t)
        fn = lambda s: t / (1.0 - _exp_any(-t * s)) - 1.0 / s
        return TransferFunction(fn, fn, domain_note="Dirac comb original",
                                delta_content=True, largest_real_singularity=0.0)
    if k is Kind.CUSTOM:
        return spec.custom_transform
    raise DomainError(f"no built-in transform for kind {k!r}")


BUILTIN_TRANSFORMS = {
    kind.value: kind for kind in Kind if kind is not Kind.CUSTOM
}
