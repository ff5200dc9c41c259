"""Closed-form unbiased estimator catalogue for exp(lambda) samples.

Each estimator is a deterministic function of the sample mean (the sample
mean is sufficient here), vectorized over the mean so the quadrature oracle
and the Monte Carlo harness can evaluate millions of points per call.

The catalogue covers: rate-parameter powers, quantiles, real moments, the
survival function, CDF powers of the maximum of m copies, the survival
function of the minimum of m copies, the density, the mean past lifetime,
the moment generating function and expected shortfall.  Alongside each
unbiased form, plug-in maximum-likelihood estimates and exact variance
formulas for the moment estimators are provided for comparison studies.

Every per-kind fact -- parameters and their checks, the target xi (which
the inversion engines also read as the transfer function), the estimator
and the Tate (1959) form where one exists -- is one row of the
``_CATALOGUE`` table at the end of this module; the public estimator
functions and the dispatching functions here and in the other modules look
rows up instead of branching on the kind.  A row states each estimator once,
as a ``_Phi`` whose value, derivative and kinks, and the facts the oracle
reads (support start, indicator exponent, power at 0), all come from
``_power`` (coef * mean^r) or ``_indicator_sum`` (c0 + sum c 1{mean >= a}
(1 - a/mean)^e, each term through the one kernel ``_indicator_power``).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import hyp1f1

from .errors import DomainError, RangeError, SpecError
from .special import _log_gamma_ratio, _log_variance_ratio, log_gamma

__all__ = [
    "Kind", "Family", "FunctionalSpec", "Sample", "EstimateResult",
    "target_value", "rate_power", "quantile", "moment", "survival",
    "max_cdf_power", "min_survival", "pdf_at", "mean_past_lifetime", "mgf",
    "expected_shortfall", "estimate", "mle_estimate", "phi_function",
    "closed_form_variance_unbiased", "closed_form_variance_mle",
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
        if not all(0.0 < v < math.inf for v in obs):
            raise DomainError("observations must be finite and strictly positive")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "n", len(obs))
        object.__setattr__(self, "mean", float(np.mean(obs)))


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
# argument plumbing
# ---------------------------------------------------------------------------

def _check_n(n) -> int:
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError("sample size n must be a positive integer")
    return int(n)


def _check_positive(name: str, value) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be finite and strictly positive")
    return v


# ---------------------------------------------------------------------------
# target values xi(lambda)
# ---------------------------------------------------------------------------

def target_value(spec: FunctionalSpec, lam):
    """Population value of the functional at rate ``lam``.

    A scalar ``lam`` gives a ``float`` computed with ``math``; an ndarray of
    rates gives an ndarray computed elementwise with numpy.  numpy's
    exp/expm1/log1p can differ from ``math``'s in the last ulp, so scalars
    keep the ``math`` path.  A target with a positive real pole (the MGF's
    at t) needs every rate above it.
    """
    if np.ndim(lam) == 0:
        xp, lam = math, _check_positive("lambda", lam)
    else:
        xp, lam = np, np.asarray(lam, dtype=float)
        if not (np.all(np.isfinite(lam)) and np.all(lam > 0.0)):
            raise DomainError("lambda must be finite and strictly positive")
    row = _CATALOGUE[spec.kind]
    pole = row.pole(spec)
    if pole > 0.0 and np.any(lam <= pole):
        raise DomainError(f"{spec.kind.value} target requires lambda > {pole:g}")
    try:
        return row.xi(spec)(lam, xp)
    except OverflowError as exc:
        raise RangeError(f"{spec.kind.value} target leaves double range") from exc


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
    with np.errstate(all="ignore"):  # the series replaces what overflows here
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

    t * sum_k 1{mean >= tk/n} (1 - tk/(n mean))^{n-1} - mean.  Indicator
    terms vanish beyond floor(n mean / t); for n >= 2 the sum is also cut
    per point where its remaining tail falls below 2^-60 of the k = 0 term,
    which is below double precision, so the work per point is bounded
    independently of n.  Memory is O(points).
    """
    return phi_function(FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=t), n)(sample_mean)


def mgf(sample_mean, n, t):
    """Unbiased estimate of E[e^{tX}].

    Kummer's function M(1, n, w) with w = n t mean, which equals
    e^{w} gamma(n, w) / w^{n-1} + 1 (DLMF 8.5.1); t = 0 gives M(1, n, 0) = 1.
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
    return _mean_checked(_estimator(spec, n).value)


def _estimator(spec: FunctionalSpec, n: int) -> _Phi:
    # the row's estimator at this n: value, derivative and kinks
    n = _check_n(n)
    row = _CATALOGUE[spec.kind]
    if row.phi is None:
        raise SpecError(f"no closed form for kind {spec.kind.value!r};"
                        " use the Laplace inversion engine")
    return row.phi(spec, n)


def _mean_checked(kernel: Callable[[np.ndarray], np.ndarray]):
    # the one check on the means, for every estimator family; float for a scalar
    def phi(sample_mean):
        x = np.asarray(sample_mean, dtype=float)
        if x.size and (not np.all(np.isfinite(x)) or np.any(x <= 0.0)):
            raise DomainError("sample mean must be finite and strictly positive")
        out = kernel(x)
        return float(out) if x.ndim == 0 else out
    return phi


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
        return EstimateResult(float(np.mean(arr ** spec.p)), spec, sample.n,
                              Family.MLE_PLUGIN)
    return EstimateResult(target_value(spec, 1.0 / sample.mean), spec, sample.n,
                          Family.MLE_PLUGIN)


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
    bracket = math.expm1(_log_variance_ratio(n, p))
    return math.exp(2.0 * log_gamma(p + 1.0)) * lam ** (-2.0 * p) * bracket


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
    bracket = math.expm1(log_gamma(2.0 * p + 1.0) - 2.0 * log_gamma(p + 1.0))
    return math.exp(2.0 * log_gamma(p + 1.0)) * lam ** (-2.0 * p) * bracket / n


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
    ``params``); ``skip(spec, n, lam)``: the ``verify`` grid cells outside
    the domain; ``tate_phi(spec, n)``: the biased 1959 estimator, a
    :class:`_Phi` built the same way; ``tate_mean``: its exact expectation.
    """

    params: tuple[str, ...]
    xi: Callable
    checks: tuple = ()
    phi: Optional[Callable] = None
    delta_content: bool = False
    pole: Callable = lambda spec: 0.0
    verify_args: Optional[tuple[str, ...]] = None
    skip: Callable = lambda spec, n, lam: False
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
    estimators bounded there).  The oracle reads the last three to choose
    its window, whether to split at the kinks and how to integrate from 0.
    """

    value: Callable[[np.ndarray], np.ndarray]
    prime: Callable[[float], float]
    kinks: Callable[[float], list[float]] = lambda upper: []
    exponent: float = math.inf
    support_start: float = 0.0
    small_mean_power: float = 0.0


def _power(coef: float, r: float) -> _Phi:
    # coef * mean^r
    return _Phi(lambda x: coef * x ** r, lambda mu: r * coef * mu ** (r - 1),
                small_mean_power=r)


def _indicator_power(x, a, e: int):
    # 1{x >= a} (1 - a/x)^e as exp(e log1p(-a/x)), a few ulps whatever e where
    # the power of a rounded base loses about e ulps.  Clamping x to a makes
    # the log -inf below a, so the term is 0 there without a gate; e = 0 is
    # the bare indicator, since 0 * -inf is nan.
    if e == 0:
        return 1.0 * (x >= a)
    with np.errstate(divide="ignore"):
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
    if p >= n - shift:
        name, bound = ("Tate rate-power", "n-1") if shift else ("rate-power", "n")
        raise DomainError(f"{name} needs p < {bound} (got p={spec.p}, n={n})")
    return _power(math.exp(-_log_gamma_ratio(n - shift, -p) - p * math.log(n)), -p)


def _moment_phi(spec: FunctionalSpec, n: int) -> _Phi:
    p = float(spec.p)
    return _power(math.exp(log_gamma(p + 1.0) + p * math.log(n) - _log_gamma_ratio(n, p)), p)


def _max_cdf_terms(spec: FunctionalSpec, n: int) -> list[tuple[int, float]]:
    # [P(X <= t)]^m = (1 - e^{-lam t})^m expanded: C(m, k) (-1)^k at a = kt/n
    t, m = float(spec.t), int(spec.m)
    return [(math.comb(m, k) * (-1) ** k, k * t / n) for k in range(1, m + 1)]


def _pdf_phi(spec: FunctionalSpec, n: int) -> _Phi:
    if n < 2:
        raise DomainError("the density estimator requires n >= 2")
    return _indicator_sum([((n - 1.0) / n, float(spec.t) / n)], n - 2, over_x=True)


def _mean_past_lifetime_phi(spec: FunctionalSpec, n: int) -> _Phi:
    # t (1 + sum_{k >= 1} 1{x >= tk/n} (1 - tk/(n x))^{n-1}) - x: the value has
    # its own kernel, the derivative and kinks read the terms up to a bound
    t = float(spec.t)

    def kinks(upper):
        return [k * t / n for k in range(1, math.ceil(n * upper / t) + 1)]
    return _Phi(lambda x: _mean_past_lifetime_sum(x, n, t),
                lambda mu: _indicator_sum([(t, a) for a in kinks(mu)], n - 1, t).prime(mu) - 1.0,
                kinks, n - 1)


def _mean_past_lifetime_sum(x: np.ndarray, n: int, t: float) -> np.ndarray:
    if x.size == 0:
        return np.empty(x.shape)
    order = np.argsort(x, axis=None, kind="stable")
    xs = x.reshape(-1)[order]
    k_hi = int(math.floor(n * float(xs[-1]) / t))
    if n > 1:
        # Term k is at most e^{-ck} with c = (n-1)t/(n mean), so the tail
        # after K is at most e^{-c(K+1)}/(1 - e^{-c}) <= e^{-c(K+1)}(1+c)/c.
        # That is below 2^-60 (60 ln 2 = 41.59 nats) once
        # c(K+1) >= 41.59 + ln(1 + 1/c), which K = ceil((42 + ln(1 + 1/c))/c)
        # satisfies.  K grows with the mean, so for each k the points that
        # still need term k form a suffix of the sorted means.
        c = (n - 1) * t / (n * xs)
        k_tail = np.ceil((42.0 + np.log1p(1.0 / c)) / c)
        k_hi = min(k_hi, int(k_tail[-1]))
    ks = np.arange(1, k_hi + 1)
    a = t * ks / n
    lo = np.searchsorted(xs, a)  # first point with x >= a_k
    if n > 1:
        lo = np.maximum(lo, np.searchsorted(k_tail, ks))
    total = np.zeros_like(xs)
    # smallest terms first, so each point's sum is added from its tail up
    if xs.size == 1:
        # one point: its terms in one vector, accumulated in the same order
        terms = _indicator_power(xs, a[lo == 0], n - 1)
        if terms.size:
            total[0] = np.cumsum(terms[::-1])[-1]
    else:
        for s, a_k in zip(lo[::-1].tolist(), a[::-1].tolist()):
            total[s:] += _indicator_power(xs[s:], a_k, n - 1)
    val = np.empty_like(xs)
    val[order] = t * (1.0 + total) - xs
    return val.reshape(x.shape)


def _mgf_phi(spec: FunctionalSpec, n: int) -> _Phi:
    t = float(spec.t)
    w_per_mean = n * t

    def value(x):
        val = hyp1f1(1.0, n, w_per_mean * x)
        if not np.all(np.isfinite(val)):
            raise RangeError("MGF estimate overflowed double precision")
        return val

    def prime(mu):
        # d/dw M(1, n, w) = M(2, n+1, w)/n (DLMF 13.3.15), w = n t mean
        return t * float(hyp1f1(2.0, n + 1.0, w_per_mean * mu))
    return _Phi(value, prime)


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
        skip=lambda s, n, lam: s.p >= n,
        tate_phi=lambda s, n: _rate_power_phi(s, n, shift=1),
        # 1{p < n-1} in the expectation table
        tate_mean=lambda s, n, lam: (0.0 if s.p >= n - 1
                                     else (1.0 - s.p / (n - 1.0)) * lam ** s.p)),
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
        xi=lambda s: (lambda lam, xp=math, p=float(s.p), g=math.exp(log_gamma(s.p + 1.0)):
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
            (lam * s.m * s.t / ((n - 1.0) * (1.0 - math.exp(lam * s.t))) + 1.0)
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
        delta_content=True,
        skip=lambda s, n, lam: n < 2),
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
        pole=lambda s: float(s.t),
        skip=lambda s, n, lam: s.t >= lam),
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
