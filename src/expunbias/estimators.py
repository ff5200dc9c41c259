"""Closed-form unbiased estimator catalogue for exp(lambda) samples.

Each estimator is a deterministic function of the sample mean (the sample
mean is sufficient here), vectorized over the mean so the quadrature oracle
and the Monte Carlo harness can evaluate millions of points per call.

The catalogue covers: rate-parameter powers, quantiles, real moments, the
survival function, CDF powers of the maximum of m copies, the survival
function of the minimum of m copies, the density, the mean past lifetime,
the moment generating function and expected shortfall.  Alongside each
unbiased form, plug-in maximum-likelihood estimates, exact variance
formulas for the moment estimators and the biased estimators of Tate's 1959
tables with their exact expectations (``tate_phi_function``,
``tate_estimate``, ``tate_expected_value``) are provided for comparison.

Every per-kind fact -- parameters and their checks, the target xi (which
the inversion engines also read as the transfer function), the estimator
and the Tate form where one exists -- is one row of the ``_CATALOGUE``
table at the end of this module; the public estimator functions and the
dispatching functions here and in the other modules look rows up instead
of branching on the kind.  ``_estimator(spec, n, family)`` builds both
families from the rows: a ``_Phi`` whose value, derivative and kinks, and
the facts the oracle reads (support start, indicator exponent, power at 0),
all come from ``_power`` (coef * mean^r) or ``_indicator_sum``
(c0 + sum c 1{mean >= a} (1 - a/mean)^e, each term through the one kernel
``_indicator_power``).  A build is also the one statement of a family's
domain in n: ``verify`` keeps the (kind, n) cells that build.  Rates, means
and observations, scalar or array, pass the input rule
``errors._check_positive``; ``_mean_checked`` computes every estimator
value of both families under the output-range rule ``errors._in_range``,
and the targets and exact variances go through it too.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import hyp1f1

from .errors import (DomainError, RangeError, SpecError, _check_n, _check_positive,
                     _in_range)
from .special import _log_gamma_ratio, _log_variance_ratio, log_gamma

__all__ = [
    "Kind", "Family", "FunctionalSpec", "Sample", "EstimateResult",
    "target_value", "rate_power", "quantile", "moment", "survival",
    "max_cdf_power", "min_survival", "pdf_at", "mean_past_lifetime", "mgf",
    "expected_shortfall", "estimate", "mle_estimate", "phi_function",
    "closed_form_variance_unbiased", "closed_form_variance_mle",
    "tate_phi_function", "tate_estimate", "tate_expected_value",
]


class Kind(enum.Enum):
    RATE_POWER = "rate-power"
    QUANTILE = "quantile"
    MOMENT = "moment"
    SURVIVAL = "survival"
    MAX_CDF_POWER = "max-cdf-power"
    MIN_SURVIVAL = "min-survival"
    PDF = "pdf"
    MEAN_PAST_LIFETIME = "mean-past-lifetime"
    MGF = "mgf"
    EXPECTED_SHORTFALL = "expected-shortfall"
    CUSTOM = "custom"


class Family(enum.Enum):
    CLOSED_FORM_UNBIASED = "closed-form-unbiased"
    GENERIC_LAPLACE = "generic-laplace"
    MLE_PLUGIN = "mle-plugin"
    TATE_BIASED = "tate-biased"


@dataclass(frozen=True)
class FunctionalSpec:
    """Tagged description of the target functional of the rate parameter.

    ``p`` doubles as the rate-power/moment exponent and as the expected
    shortfall level (in (0,1)); ``q`` is the quantile level; ``t`` the
    time/MGF argument; ``m`` the number of independent copies for the
    max/min functionals.  ``allow_negative_integer_p`` relaxes the
    rate-power domain to negative integer exponents, where the final closed
    form is still well-defined even though the derivation is not.
    """

    kind: Kind
    p: Optional[float] = None
    q: Optional[float] = None
    t: Optional[float] = None
    m: Optional[int] = None
    custom_transform: Optional[object] = None
    allow_negative_integer_p: bool = False

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise SpecError(f"kind must be a Kind, got {self.kind!r}")
        row = _CATALOGUE[self.kind]
        for name in ("p", "q", "t", "m", "custom_transform"):
            val = getattr(self, name)
            if name in row.params:
                if val is None:
                    raise SpecError(f"{self.kind.value} requires parameter {name!r}")
            elif val is not None:
                raise SpecError(f"{self.kind.value} does not take parameter {name!r}")
        for ok, message in row.checks:
            if not ok(self):
                raise SpecError(message.format(kind=self.kind.value))

    def params(self) -> dict:
        """Parameters actually carried by this spec, for reports."""
        return {name: getattr(self, name) for name in _CATALOGUE[self.kind].params
                if name != "custom_transform"}


@dataclass(frozen=True)
class Sample:
    """Validated positive observations with cached size and mean."""

    observations: tuple[float, ...]
    n: int = field(init=False)
    mean: float = field(init=False)

    def __init__(self, observations: Sequence[float]):
        obs = tuple(float(v) for v in observations)
        if not obs:
            raise DomainError("a sample needs at least one observation")
        arr = _check_positive("observations", np.array(obs), arrays=True)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "n", len(obs))
        object.__setattr__(self, "mean", _in_range("the mean", lambda: float(np.mean(arr))))


@dataclass(frozen=True)
class EstimateResult:
    value: float
    spec: FunctionalSpec
    n: int
    estimator_family: Family

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise RangeError("estimate is not finite")


# ---------------------------------------------------------------------------
# target values xi(lambda)
# ---------------------------------------------------------------------------

def target_value(spec: FunctionalSpec, lam):
    """Population value of the functional at rate ``lam``.

    A scalar ``lam`` gives a ``float`` computed with ``math``; an ndarray of
    rates gives an ndarray computed elementwise with numpy.  numpy's
    exp/expm1/log1p can differ from ``math``'s in the last ulp, so scalars
    keep the ``math`` path.  A target with a positive real pole (the MGF's
    at t) needs every rate above it; one outside double range raises
    :class:`RangeError`.
    """
    lam = _check_positive("lambda", lam, arrays=True)
    xp = math if isinstance(lam, float) else np
    row = _CATALOGUE[spec.kind]
    pole = row.pole(spec)
    if pole > 0.0 and np.any(lam <= pole):
        raise DomainError(f"{spec.kind.value} target requires lambda > {pole:g}")
    return _in_range(f"{spec.kind.value} target", lambda: row.xi(spec)(lam, xp))


# below this lam*t the mean-past-lifetime target uses its series form
_MPL_SERIES_CUTOFF = 0.1


def _mean_past_lifetime_target(t: float, lam, xp):
    # t/(1 - e^{-u}) - 1/lam with u = lam t cancels as u -> 0 (relative error
    # about 2 eps/u).  Below the cutoff use the Bernoulli series
    # (1/lam)(u/2 + u^2/12 - u^4/720 + u^6/30240 - u^8/1209600) = t(1/2 + ...);
    # its first omitted term, u^10/47900160, is under 1e-16 of the sum there.
    def series(u):
        v = u * u
        return t * (0.5 + u * (1.0 / 12.0 + v * (-1.0 / 720.0 + v * (
            1.0 / 30240.0 - v / 1209600.0))))

    u = lam * t
    if xp is math:
        if u < _MPL_SERIES_CUTOFF:
            return series(u)
        return t / (-math.expm1(-lam * t)) - 1.0 / lam
    direct = t / (-np.expm1(-lam * t)) - 1.0 / lam
    return np.where(u < _MPL_SERIES_CUTOFF, series(np.minimum(u, _MPL_SERIES_CUTOFF)), direct)


def _custom_xi(spec: FunctionalSpec):
    def xi(lam, xp=math, f=spec.custom_transform.eval_real):
        if xp is math:
            return float(f(lam))
        return np.vectorize(lambda v: float(f(v)), otypes=[float])(lam)
    return xi


# ---------------------------------------------------------------------------
# closed-form unbiased estimators
# ---------------------------------------------------------------------------

def rate_power(sample_mean, n, p):
    """Unbiased estimate of lambda^p: Gamma(n)/(n^p Gamma(n-p)) * mean^{-p}.

    Requires p < n and p != 0; negative integer p is accepted (the closed
    form stays finite there even though the transform derivation does not).
    """
    return phi_function(FunctionalSpec(Kind.RATE_POWER, p=p, allow_negative_integer_p=True),
                        n)(sample_mean)


def quantile(sample_mean, q):
    """Unbiased estimate of the qth quantile: -ln(1-q) * mean."""
    return phi_function(FunctionalSpec(Kind.QUANTILE, q=q), 1)(sample_mean)


def moment(sample_mean, n, p):
    """Unbiased estimate of E[X^p]: Gamma(p+1)Gamma(n)n^p/Gamma(p+n) * mean^p."""
    return phi_function(FunctionalSpec(Kind.MOMENT, p=p), n)(sample_mean)


def survival(sample_mean, n, t):
    """Unbiased estimate of P(X > t): (1 - t/(n mean))^{n-1} on {mean >= t/n}."""
    return phi_function(FunctionalSpec(Kind.SURVIVAL, t=t), n)(sample_mean)


def max_cdf_power(sample_mean, n, t, m):
    """Unbiased estimate of [P(X <= t)]^m via the alternating binomial sum.

    1 + sum_{k=1..m} C(m, k) (-1)^k (1 - kt/(n mean))^{n-1} on {mean >= kt/n}.
    Each term is accurate to a few ulps at any n, but the terms are O(1)
    and the sum cancels down to the target, so the absolute error is of
    order eps * 2^m however small the value: at n = 20000, mean = 60, t = 1,
    m = 3 the value is 4.5e-6 and its relative error 8.3e-11.
    """
    return phi_function(FunctionalSpec(Kind.MAX_CDF_POWER, t=t, m=m), n)(sample_mean)


def min_survival(sample_mean, n, t, m):
    """Unbiased estimate of [P(X > t)]^m: the survival form at horizon m*t."""
    return phi_function(FunctionalSpec(Kind.MIN_SURVIVAL, t=t, m=m), n)(sample_mean)


def pdf_at(sample_mean, n, t):
    """Unbiased estimate of the density at t; defined for n >= 2 only."""
    return phi_function(FunctionalSpec(Kind.PDF, t=t), n)(sample_mean)


def mean_past_lifetime(sample_mean, n, t):
    """Unbiased estimate of E[t - X | X <= t].

    t * sum_{k >= 0} 1{mean >= tk/n} (1 - tk/(n mean))^{n-1} - mean, in O(1)
    work per point for every n, mean and t:

    - n = 1: t (1 + K) - mean, K the count of k >= 1 with mean >= tk, from
      floor(mean/t) checked against both neighbouring kinks.  The subtraction
      leaves an error of about K ulps of t; past K = 2^52 the value is pure
      rounding and raises :class:`RangeError`.
    - n >= 2, mean >= t: the terminating Euler-Maclaurin form, in which the
      mean cancels exactly.  With c = t/(n mean) and f = frac(n mean/t),
      t [1/2 + sum_{j=1}^{n/2} B_2j/(2j)! (n-1)!/(n-2j)! c^(2j-1)
      - c^(n-1) B_n(f)/n], B the Bernoulli numbers and polynomials.  Its
      terms fall by (t/(2 pi mean))^2 a step, so twelve of them serve every
      n; the B_n(f) term is kept up to n = 24, past which it is below eps.
    - n >= 2, mean < t: the sum itself, at most about 45 terms, each term
      exp((n-1) log1p(-tk/(n mean))) and the sum cut, at a count set by n
      alone, where its tail falls below 2^-60 of the k = 0 term.

    For n >= 2 either form is within a few ulps of the exact value.  Memory
    is O(points).
    """
    return phi_function(FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=t), n)(sample_mean)


def mgf(sample_mean, n, t):
    """Unbiased estimate of E[e^{tX}].

    Kummer's function M(1, n, w) with w = n t mean, which equals
    e^{w} gamma(n, w) / w^{n-1} + 1 (DLMF 8.5.1); t = 0 gives M(1, n, 0) = 1.
    From w = -max(1000, 2n) down it is the terminating series of DLMF 13.7.2.
    """
    return phi_function(FunctionalSpec(Kind.MGF, t=t), n)(sample_mean)


def expected_shortfall(sample_mean, p_level):
    """Unbiased estimate of the expected shortfall: (-ln(1-p) + 1) * mean."""
    return phi_function(FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=p_level), 1)(sample_mean)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def phi_function(spec: FunctionalSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized closed-form estimator mean -> estimate for a given n.

    The returned callable is what the quadrature oracle integrates and the
    Monte Carlo harness maps over replications.  It raises
    :class:`DomainError` unless every mean is finite and strictly positive,
    and returns a ``float`` for a scalar mean.
    """
    return _mean_checked(spec, n, Family.CLOSED_FORM_UNBIASED)


def _estimator(spec: FunctionalSpec, n: int,
               family: Family = Family.CLOSED_FORM_UNBIASED) -> _Phi:
    # the row's corrected or 1959 estimator at this n: value, derivative and
    # kinks; the one statement of each family's rules on the kind and n
    n, row = _check_n(n), _CATALOGUE[spec.kind]
    if family is Family.TATE_BIASED:
        if row.tate_phi is None:
            raise SpecError(f"no Tate form for kind {spec.kind.value!r}")
        if n < 2:
            raise DomainError("the Tate estimators require n >= 2")
    elif row.phi is None:
        raise SpecError(f"no closed form for kind {spec.kind.value!r};"
                        " use the Laplace inversion engine")
    return (row.tate_phi if family is Family.TATE_BIASED else row.phi)(spec, n)


def _mean_checked(spec: FunctionalSpec, n: int, family: Family):
    # the family's estimator at n behind the one check on the means, its
    # values computed under the range rule; float for a scalar
    kernel = _estimator(spec, n, family).value
    what = _estimate_name(spec, n, family)

    def phi(sample_mean):
        x = _check_positive("sample mean", sample_mean, arrays=True)
        out = _in_range(what, lambda: kernel(np.asarray(x)))
        return float(out) if isinstance(x, float) else out
    return phi


def _estimate_name(spec: FunctionalSpec, n: int, family: Family) -> str:
    # how the range rule names the family's estimate at n
    return f"the {family.value} {spec.kind.value} estimate at n={n}"


def estimate(spec: FunctionalSpec, sample: Sample) -> EstimateResult:
    """Closed-form unbiased estimate of the functional from a sample."""
    phi = phi_function(spec, sample.n)
    return EstimateResult(float(phi(sample.mean)), spec, sample.n,
                          Family.CLOSED_FORM_UNBIASED)


def mle_estimate(spec: FunctionalSpec, sample: Sample, *,
                 moment_plugin: bool = False) -> EstimateResult:
    """Maximum-likelihood counterpart, for bias/variance comparisons.

    The rate MLE is 1/mean and all functionals plug it in, except the pth
    moment, whose MLE coincides with the moment estimator (1/n) sum X_i^p;
    pass ``moment_plugin=True`` to get the plug-in Gamma(p+1)*mean^p form
    instead.
    """
    if spec.kind is Kind.MOMENT and not moment_plugin:
        arr = np.asarray(sample.observations)
        return EstimateResult(_in_range("the moment MLE", lambda: float(np.mean(arr ** spec.p))),
                              spec, sample.n, Family.MLE_PLUGIN)
    return EstimateResult(target_value(spec, 1.0 / sample.mean), spec, sample.n,
                          Family.MLE_PLUGIN)


# ---------------------------------------------------------------------------
# the 1959 estimators (biased) and their exact expectations
# ---------------------------------------------------------------------------

def tate_phi_function(spec: FunctionalSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized biased estimator from the original transform tables.

    Compared with the corrected forms, the power/normalisation uses n-1
    where n belongs: rate powers carry Gamma(n-1)/(n^p Gamma(n-1-p)),
    quantiles an extra n/(n-1), and max-CDF powers exponent n-2.  Defined
    for integer n >= 2 and the kinds with a row ``tate_phi``.
    """
    return _mean_checked(spec, n, Family.TATE_BIASED)


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
    _estimator(spec, n, Family.TATE_BIASED)  # the 1959 rules on the kind and n
    lam = _check_positive("lambda", lam)
    return _in_range(f"Tate {spec.kind.value} expectation",
                     lambda: _CATALOGUE[spec.kind].tate_mean(spec, int(n), lam))


# ---------------------------------------------------------------------------
# exact variances for the pth-moment comparison
# ---------------------------------------------------------------------------

def closed_form_variance_unbiased(p, n, lam) -> float:
    """Exact variance of the unbiased pth-moment estimator.

    Gamma^2(p+1)/lambda^{2p} * [Gamma(n)Gamma(2p+n)/Gamma^2(p+n) - 1],
    valid for p > -n/2; the bracket is expm1 of a log-ratio of size p^2/n
    that is formed without cancelling its p ln n parts, so it keeps full
    precision for small |p| and large n.
    """
    n = _check_n(n)
    p = float(p)
    lam = _check_positive("lambda", lam)
    if p <= -n / 2.0:
        raise DomainError(f"variance formula requires p > -n/2 (got p={p}, n={n})")
    return _moment_variance(p, lam, lambda: math.expm1(_log_variance_ratio(n, p)))


def closed_form_variance_mle(p, n, lam) -> float:
    """Exact variance of the moment/MLE estimator (1/n) sum X_i^p.

    Gamma^2(p+1)/lambda^{2p} * [Gamma(2p+1)/(n Gamma^2(p+1)) + (1-1/n) - 1],
    i.e. Var(X^p)/n; requires p > -1/2.
    """
    n = _check_n(n)
    p = float(p)
    lam = _check_positive("lambda", lam)
    if p <= -0.5:
        raise DomainError(f"variance formula requires p > -1/2 (got p={p})")
    return _moment_variance(p, lam, lambda: math.expm1(
        log_gamma(2.0 * p + 1.0) - 2.0 * log_gamma(p + 1.0))) / n


def _moment_variance(p: float, lam: float, bracket: Callable[[], float]) -> float:
    # Gamma^2(p+1)/lambda^{2p} * bracket()
    return _in_range(f"the pth-moment variance at p={p}, lambda={lam}",
                     lambda: math.exp(2.0 * log_gamma(p + 1.0)) * lam ** (-2.0 * p) * bracket())


# ---------------------------------------------------------------------------
# the catalogue: one row per kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _KindRow:
    """Everything the package knows about one kind of functional.

    ``params``: the spec fields the kind requires (all others stay unset);
    ``checks``: (predicate on the spec, error message) pairs;
    ``xi(spec)``: the target as ``lambda lam, xp=math: ...`` with the spec's
    constants bound once as default arguments, ``xp`` being ``math`` for a
    scalar rate and numpy for an array.  ``target_value`` and both inversion
    engines read this one expression; the smooth kinds' are plain arithmetic
    in ``lam``, so complexes and mpmath floats pass through unchanged;
    ``pole(spec)``: xi's largest real singularity, a positive one bounding
    the rates ``target_value`` accepts; ``delta_content``: the estimator
    arises from Dirac sifting, so the inversion engines refuse the kind and
    its transfer function has no complex evaluator;
    ``phi(spec, n)``: checks the n-domain, binds the coefficients once and
    returns the unbiased estimator as a :class:`_Phi` from ``_power`` or
    ``_indicator_sum``, so its value, derivative and kinks are one statement;
    ``verify_args``: the ``verify`` options read for ``params`` (default:
    ``params``); ``tate_phi(spec, n)``: the biased 1959 estimator, a
    :class:`_Phi` built the same way; ``tate_mean``: its exact expectation
    (a row has both or neither).
    """

    params: tuple[str, ...]
    xi: Callable
    checks: tuple = ()
    phi: Optional[Callable] = None
    delta_content: bool = False
    pole: Callable = lambda spec: 0.0
    verify_args: Optional[tuple[str, ...]] = None
    tate_phi: Optional[Callable] = None
    tate_mean: Optional[Callable] = None


_FINITE_P = (lambda s: math.isfinite(s.p), "exponent p must be finite")
_POSITIVE_T = (lambda s: s.t > 0.0 and math.isfinite(s.t), "{kind} requires t > 0")
_COPIES = (lambda s: isinstance(s.m, numbers.Integral) and s.m >= 1,
           "m must be a positive integer")


class _Phi(NamedTuple):
    """One estimator at a fixed n: ``value``, a kernel over an ndarray of
    means; ``prime(mu)``, its derivative off the kinks; ``kinks(upper)``,
    its indicator boundaries (an unbounded sum's up to the first >= upper);
    ``exponent``, the indicator exponent e, so that the estimator is
    C^(e-1) at its kinks (e = 0: a jump; inf for a smooth estimator);
    ``support_start``, the mean below which the estimator is 0 (0 where it
    is not 0 on any interval (0, L)); ``small_mean_power``, the r with the
    estimator proportional to mean^r as the mean falls to 0 (0 for the
    estimators bounded there); ``log_coef``, ln c of a power estimator
    c mean^r, c > 0 (None for the others).  A value at a mean depends on
    that mean alone, so any means may share a call.  The oracle reads these
    to choose its window, whether to split at the kinks, how to integrate
    from 0 and how to form a power times the density.
    """

    value: Callable[[np.ndarray], np.ndarray]
    prime: Callable[[float], float]
    kinks: Callable[[float], list[float]] = lambda upper: []
    exponent: float = math.inf
    support_start: float = 0.0
    small_mean_power: float = 0.0
    log_coef: Optional[float] = None


def _power(coef: float, r: float, log_coef: Optional[float] = None) -> _Phi:
    # coef * mean^r, coef > 0; log_coef where ln coef is known beyond coef's range
    return _Phi(lambda x: coef * x ** r, lambda mu: r * coef * mu ** (r - 1),
                small_mean_power=r, log_coef=math.log(coef) if log_coef is None else log_coef)


def _indicator_power(x, a, e: int):
    # 1{x >= a} (1 - a/x)^e as exp(e log1p(-a/x)), a few ulps whatever e where
    # the power of a rounded base loses about e ulps.  Clamping x to a makes
    # the log -inf below a, so the term is 0 there without a gate; e = 0 is
    # the bare indicator, since 0 * -inf is nan.
    if e == 0:
        return 1.0 * (x >= a)
    return np.exp(e * np.log1p(-a / np.maximum(x, a)))


def _indicator_sum(terms, e: int, c0: float = 0.0, over_x: bool = False) -> _Phi:
    # c0 + sum of c 1{mean >= a} (1 - a/mean)^e over the (c, a) terms, divided
    # by the mean when over_x; with c0 = 0 every term, and so the sum, is 0
    # below the smallest a, which is where its support starts
    def value(x):
        total = c0
        for c, a in terms:
            total = total + c * _indicator_power(x, a, e)
        return total / x if over_x else total

    def prime(mu):
        c, a = np.array([(c, a) for c, a in terms if mu > a], dtype=float).reshape(-1, 2).T
        slope = math.fsum(c * e * _indicator_power(mu, a, e - 1) * a / mu ** 2)
        if over_x:  # (S/mu)' = (S' - S/mu)/mu
            return (slope - math.fsum(c * _indicator_power(mu, a, e)) / mu) / mu
        return slope
    return _Phi(value, prime, lambda upper: [a for _, a in terms], e,
                min(a for _, a in terms) if c0 == 0.0 else 0.0)


def _rate_power_phi(spec: FunctionalSpec, n: int, shift: int = 0) -> _Phi:
    # Gamma(n-shift)/(n^p Gamma(n-shift-p)) mean^-p; shift 1 is the 1959 form
    p = float(spec.p)
    name, bound = ("Tate rate-power", "n-1") if shift else ("rate-power", "n")
    if p >= n - shift:
        raise DomainError(f"{name} needs p < {bound} (got p={spec.p}, n={n})")
    # the coefficient underflows as p nears n, its log does not
    what = f"the {name} estimator coefficient at n={n}"
    log_coef = _in_range(what, lambda: float(-_log_gamma_ratio(n - shift, -p) - p * math.log(n)))
    return _power(_in_range(what, lambda: math.exp(log_coef)), -p, log_coef)


def _moment_phi(spec: FunctionalSpec, n: int) -> _Phi:
    p = float(spec.p)
    return _power(_in_range(f"the moment estimator coefficient at n={n}", lambda: math.exp(
        log_gamma(p + 1.0) + p * math.log(n) - _log_gamma_ratio(n, p))), p)


def _max_cdf_terms(spec: FunctionalSpec, n: int) -> list[tuple[int, float]]:
    # [P(X <= t)]^m = (1 - e^{-lam t})^m expanded: C(m, k) (-1)^k at a = kt/n
    t, m = float(spec.t), int(spec.m)
    return [(math.comb(m, k) * (-1) ** k, k * t / n) for k in range(1, m + 1)]


def _pdf_phi(spec: FunctionalSpec, n: int) -> _Phi:
    if n < 2:
        raise DomainError("the density estimator requires n >= 2")
    return _indicator_sum([((n - 1.0) / n, float(spec.t) / n)], n - 2, over_x=True)


def _mean_past_lifetime_phi(spec: FunctionalSpec, n: int) -> _Phi:
    # t sum_{k >= 0} 1{x >= tk/n} (1 - tk/(n x))^(n-1) - x in the forms that
    # mean_past_lifetime states; the kinks tk/n stay for the oracle's splits
    t = float(spec.t)

    def kinks(upper):
        return [k * t / n for k in range(1, math.ceil(_mpl_terms(n * upper / t, t)) + 1)]
    if n == 1:
        return _Phi(lambda x: t * (1.0 + _mpl_step_count(x, t)) - x, lambda mu: -1.0, kinks, 0)
    a, switch = t / n, _MPL_SWITCH * t
    # below the switch, the sum itself over the abscissae tk/n, smallest term first
    abscissae = [t * k / n for k in range(_mpl_direct_count(n), 0, -1)]
    direct = _indicator_sum([(1, a_k) for a_k in abscissae], n - 1).value
    direct_prime = _indicator_sum([(t, a_k) for a_k in abscissae], n - 1).prime
    # With c = a/x and w = nc = t/x, the sum over j of B_2j/(2j)! (n-1)_(2j-1)
    # c^(2j-1) is (n-1)c sum_j b_j w^(2j-2), b_j = B_2j/(2j)! prod_{i=2}^{2j-1}
    # (1 - i/n): every factor is at most 1, so nothing overflows at any n, and
    # the sum ends at j = n // 2, past which (n-1)_(2j-1) is 0.
    b, scale = [], 1.0
    for j in range(1, min(n // 2, len(_BERNOULLI_EVEN)) + 1):
        num, den = _BERNOULLI_EVEN[j - 1]
        b.append(num / (den * math.factorial(2 * j)) * scale)
        scale *= (1.0 - 2 * j / n) * (1.0 - (2 * j + 1) / n)
    value_coefs = b[::-1]
    slope_coefs = [(2 * j - 1) * b_j for j, b_j in enumerate(b, 1)][::-1]
    # the periodic Bernoulli remainder c^(n-1) B_n(f)/n, f = frac(x/a), and its
    # slope term c^(n-2) B_(n-1)(f)
    remainder = n <= _MPL_REMAINDER_N
    b_n, b_n1 = (_bernoulli_polynomial(m) if remainder else None for m in (n, n - 1))

    def value(x):
        flat = x.reshape(-1)
        xe = np.maximum(flat, switch)  # the points below the switch are overwritten
        c = a / xe
        bracket = 0.5 + (n - 1) * c * np.polyval(value_coefs, (t / xe) ** 2)
        if remainder:
            # x/a past 2^52 is an integer; the bound keeps an overflow from giving inf - inf
            ratio = np.minimum(xe / a, 2.0 ** 52)
            bracket -= c ** (n - 1) * np.polyval(b_n, ratio - np.floor(ratio)) / n
        out = t * bracket
        low = np.flatnonzero(flat < switch)
        if low.size:
            out[low] = t * (1.0 + direct(flat[low])) - flat[low]
        return out.reshape(x.shape)

    def prime(mu):
        if mu < switch:
            return direct_prime(mu) - 1.0
        # d/dx of t * bracket, through dc/dx = -c/x and df/dc = -1/c^2
        c = a / mu
        inner = (n - 1) * c * np.polyval(slope_coefs, (t / mu) ** 2)
        if remainder:
            # fmod is exact, and at n = 2, where B_1(f) enters the slope
            # undamped, so is a = t/2: f carries one rounding, not the
            # n mu/t ulps of a rounded quotient
            f = math.fmod(mu, a) / a
            inner += c ** (n - 2) * np.polyval(b_n1, f) - (n - 1) * c ** (n - 1) * np.polyval(b_n, f) / n
        return float(-t / mu * inner)
    return _Phi(value, prime, kinks, n - 1)


# B_2, B_4, ..., B_24 as (numerator, denominator)
_BERNOULLI_EVEN = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
                   (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
                   (-236364091, 2730))
# the mean over t from which the mean-past-lifetime takes its Euler-Maclaurin
# form: there its terms fall by (t/(2 pi mean))^2 <= 1/39.5 a step, so the
# twelve in _BERNOULLI_EVEN reach 2^-60 of the value
_MPL_SWITCH = 1.0
# the largest n that keeps the Bernoulli remainder: past it, at mean >= t,
# it is below 2^-86 of the value and its slope term below 2^-86 of the slope
_MPL_REMAINDER_N = 24


def _bernoulli_polynomial(m: int) -> list[float]:
    # coefficients of B_m(f) = sum_k C(m, k) B_k f^(m-k), highest power first
    numbers = [(1, 1), (-1, 2)] + [_BERNOULLI_EVEN[k // 2 - 1] if k % 2 == 0 else (0, 1)
                                   for k in range(2, m + 1)]
    return [math.comb(m, k) * num / den for k, (num, den) in enumerate(numbers[:m + 1])]


# most kinks one mean-past-lifetime build lists, and the most indicator terms
# at n = 1, past which the step count t k <= mean is pure rounding
_MPL_MAX_TERMS = 1 << 20
_MPL_MAX_STEPS = 1 << 52


def _mpl_terms(count: float, t: float, most: int = _MPL_MAX_TERMS) -> float:
    # a term count, refused before anything that size is allocated or summed
    if not count <= most:
        raise RangeError(f"mean-past-lifetime at t = {t!r} needs {count:.3g} indicator terms,"
                         f" more than {most}")
    return count


def _mpl_step_count(x: np.ndarray, t: float) -> np.ndarray:
    # the n = 1 count of k >= 1 with x >= t k, t k rounded as stated: floor(x/t),
    # moved by one where the rounded quotient lies across a kink from x
    q = np.floor(x / t)
    q = q + (x >= t * (q + 1.0)) - (x < t * q)
    _mpl_terms(float(np.max(q, initial=0.0)), t, _MPL_MAX_STEPS)
    return q


def _mpl_direct_count(n: int) -> int:
    # The terms k >= 1 that every point below the switch needs, for n >= 2.
    # Term k is at most e^{-ck} with c = (n-1)t/(n x), so the tail after K is at
    # most e^{-c(K+1)}/(1 - e^{-c}) <= e^{-c(K+1)}(1+c)/c.  That is below 2^-60
    # (60 ln 2 = 41.59 nats) once c(K+1) >= 41.59 + ln(1 + 1/c), which
    # K = ceil((42 + ln(1 + 1/c))/c) satisfies for every x below the switch t
    # at its c there, (n-1)/n >= 1/2.  The indicator ends the sum at n x/t < n,
    # term n covering the rounding of its abscissa.
    c = (n - 1) / n
    return min(n, math.ceil((42.0 + math.log1p(1.0 / c)) / c))


def _mgf_negative_tail(n: int, u, slope: bool = False):
    # M(1, n, -u) for u >= max(1000, 2n), or with slope its derivative in w,
    # term by term: (n-1)/u sum_{s<n-1} (-1)^s (n-2)!/(n-2-s)! u^-s (DLMF
    # 13.7.2, terminating at integer n; the dropped (n-1)! e^-u (-u)^(1-n) is
    # below eps there).  Each term is at most half the last, so 64 reach eps.
    acc = 0.0
    for s in range(min(n - 1, 64) - 1, -1, -1):
        acc = (s + 1.0 if slope else 1.0) - (n - 2 - s) / u * acc
    return (n - 1) / u / (u if slope else 1.0) * acc


def _mgf_phi(spec: FunctionalSpec, n: int) -> _Phi:
    t = float(spec.t)
    w_per_mean = n * t
    # scipy's M(1, n, w) serves |w| below a cut.  Past it, for t > 0, M > e^w Gamma(n)
    # w^(1-n)/2 overflows (from w = 2n + 2000; scipy's series can run for seconds or never
    # end there): inf.  For t < 0 scipy is nan from about w = -1e11: the series serves.
    w_cut = 2.0 * n + 2000.0 if t > 0.0 else max(1000.0, 2.0 * n)
    x_cut = w_cut / abs(w_per_mean) if t != 0.0 else math.inf

    def prime(mu):
        # d/dw M(1, n, w) = M(2, n+1, w)/n (DLMF 13.3.15), w = n t mean; past the
        # cut at t > 0 it is n M(1, n, w) or more, and overflows with the value
        if mu < x_cut:
            return t * float(hyp1f1(2.0, n + 1.0, w_per_mean * mu))
        if t > 0.0:
            return math.inf
        return w_per_mean * _mgf_negative_tail(n, -w_per_mean * mu, slope=True)
    return _Phi(lambda x: np.where(x < x_cut, hyp1f1(1.0, n, w_per_mean * np.minimum(x, x_cut)),
                                   np.inf if t >= 0.0 else
                                   _mgf_negative_tail(n, -w_per_mean * np.maximum(x, x_cut))),
                prime)


_CATALOGUE: dict[Kind, _KindRow] = {
    Kind.RATE_POWER: _KindRow(
        params=("p",),
        checks=(_FINITE_P,
                (lambda s: s.p != 0.0, "rate-power exponent p = 0 is excluded"),
                (lambda s: s.allow_negative_integer_p
                 or not (s.p < 0.0 and float(s.p).is_integer()),
                 "negative integer rate-power exponents need allow_negative_integer_p=True")),
        xi=lambda s: lambda lam, xp=math, p=float(s.p): lam ** p,
        phi=_rate_power_phi,
        tate_phi=lambda s, n: _rate_power_phi(s, n, shift=1),
        tate_mean=lambda s, n, lam: (1.0 - s.p / (n - 1.0)) * lam ** s.p),
    Kind.QUANTILE: _KindRow(
        params=("q",),
        checks=((lambda s: 0.0 < s.q < 1.0, "quantile level q must lie in (0, 1)"),),
        xi=lambda s: lambda lam, xp=math, c=-math.log1p(-s.q): c / lam,
        phi=lambda s, n: _power(-math.log1p(-s.q), 1),
        tate_phi=lambda s, n: _power(-math.log1p(-s.q) * n / (n - 1.0), 1),
        tate_mean=lambda s, n, lam: (n / (n - 1.0)) * (-math.log1p(-s.q) / lam)),
    Kind.MOMENT: _KindRow(
        params=("p",),
        checks=(_FINITE_P, (lambda s: s.p > -1.0, "moment exponent requires p > -1")),
        xi=lambda s: (lambda lam, xp=math, p=float(s.p), g=_in_range(
            "the moment target coefficient", lambda: math.exp(log_gamma(s.p + 1.0))):
                      g / lam ** p),
        phi=_moment_phi,
        verify_args=("moment_p",)),
    Kind.SURVIVAL: _KindRow(
        params=("t",),
        checks=(_POSITIVE_T,),
        xi=lambda s: lambda lam, xp=math, t=float(s.t): xp.exp(-lam * t),
        phi=lambda s, n: _indicator_sum([(1, float(s.t) / n)], n - 1),
        delta_content=True),
    Kind.MAX_CDF_POWER: _KindRow(
        params=("t", "m"),
        checks=(_POSITIVE_T, _COPIES),
        xi=lambda s: lambda lam, xp=math, t=float(s.t), m=int(s.m): (-xp.expm1(-lam * t)) ** m,
        phi=lambda s, n: _indicator_sum(_max_cdf_terms(s, n), n - 1, 1.0),
        delta_content=True,
        # the 1959 form carries exponent n-2 where n-1 belongs
        tate_phi=lambda s, n: _indicator_sum(_max_cdf_terms(s, n), n - 2, 1.0),
        tate_mean=lambda s, n, lam: (
            (lam * s.m * s.t / ((n - 1.0) * -math.expm1(lam * s.t)) + 1.0)
            * (-math.expm1(-lam * s.t)) ** s.m)),
    Kind.MIN_SURVIVAL: _KindRow(
        params=("t", "m"),
        checks=(_POSITIVE_T, _COPIES),
        xi=lambda s: lambda lam, xp=math, t=float(s.t), m=int(s.m): xp.exp(-lam * m * t),
        phi=lambda s, n: _indicator_sum([(1, int(s.m) * float(s.t) / n)], n - 1),
        delta_content=True),
    Kind.PDF: _KindRow(
        params=("t",),
        checks=(_POSITIVE_T,),
        xi=lambda s: lambda lam, xp=math, t=float(s.t): lam * xp.exp(-lam * t),
        phi=_pdf_phi,
        delta_content=True),
    Kind.MEAN_PAST_LIFETIME: _KindRow(
        params=("t",),
        checks=(_POSITIVE_T,),
        xi=lambda s: lambda lam, xp=math, t=float(s.t): _mean_past_lifetime_target(t, lam, xp),
        phi=_mean_past_lifetime_phi,
        delta_content=True),
    Kind.MGF: _KindRow(
        params=("t",),
        checks=((lambda s: math.isfinite(s.t), "mgf requires finite t"),),
        xi=lambda s: lambda lam, xp=math, t=float(s.t): lam / (lam - t),
        phi=_mgf_phi,
        pole=lambda s: float(s.t)),
    Kind.EXPECTED_SHORTFALL: _KindRow(
        params=("p",),
        checks=((lambda s: 0.0 < s.p < 1.0, "expected-shortfall level p must lie in (0, 1)"),),
        xi=lambda s: lambda lam, xp=math, c=-math.log1p(-s.p) + 1.0: c / lam,
        phi=lambda s, n: _power(-math.log1p(-s.p) + 1.0, 1),
        verify_args=("q",)),
    Kind.CUSTOM: _KindRow(
        params=("custom_transform",),
        xi=_custom_xi),
}
