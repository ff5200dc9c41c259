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
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import hyp1f1

from .errors import DomainError, RangeError, SpecError
from .special import _log_gamma_ratio, log_gamma

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


# parameters each kind requires (all others must stay unset)
_REQUIRED_PARAMS = {
    Kind.RATE_POWER: ("p",),
    Kind.QUANTILE: ("q",),
    Kind.MOMENT: ("p",),
    Kind.SURVIVAL: ("t",),
    Kind.MAX_CDF_POWER: ("t", "m"),
    Kind.MIN_SURVIVAL: ("t", "m"),
    Kind.PDF: ("t",),
    Kind.MEAN_PAST_LIFETIME: ("t",),
    Kind.MGF: ("t",),
    Kind.EXPECTED_SHORTFALL: ("p",),
    Kind.CUSTOM: ("custom_transform",),
}


def _is_nonpositive_integer(p: float) -> bool:
    return p <= 0.0 and float(p).is_integer()


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
        required = _REQUIRED_PARAMS[self.kind]
        for name in ("p", "q", "t", "m", "custom_transform"):
            val = getattr(self, name)
            if name in required:
                if val is None:
                    raise SpecError(f"{self.kind.value} requires parameter {name!r}")
            elif val is not None:
                raise SpecError(f"{self.kind.value} does not take parameter {name!r}")
        if self.kind in (Kind.RATE_POWER, Kind.MOMENT):
            if not math.isfinite(self.p):
                raise SpecError("exponent p must be finite")
        if self.kind is Kind.RATE_POWER:
            if self.p == 0.0:
                raise SpecError("rate-power exponent p = 0 is excluded")
            if _is_nonpositive_integer(self.p) and not self.allow_negative_integer_p:
                raise SpecError(
                    "negative integer rate-power exponents need allow_negative_integer_p=True")
        if self.kind is Kind.MOMENT and self.p <= -1.0:
            raise SpecError("moment exponent requires p > -1")
        if self.kind in (Kind.QUANTILE,) and not (0.0 < self.q < 1.0):
            raise SpecError("quantile level q must lie in (0, 1)")
        if self.kind is Kind.EXPECTED_SHORTFALL and not (0.0 < self.p < 1.0):
            raise SpecError("expected-shortfall level p must lie in (0, 1)")
        if self.kind in (Kind.SURVIVAL, Kind.MAX_CDF_POWER, Kind.MIN_SURVIVAL,
                         Kind.PDF, Kind.MEAN_PAST_LIFETIME):
            if not (self.t > 0.0 and math.isfinite(self.t)):
                raise SpecError(f"{self.kind.value} requires t > 0")
        if self.kind is Kind.MGF and not math.isfinite(self.t):
            raise SpecError("mgf requires finite t")
        if self.kind in (Kind.MAX_CDF_POWER, Kind.MIN_SURVIVAL):
            if not (isinstance(self.m, numbers.Integral) and self.m >= 1):
                raise SpecError("m must be a positive integer")

    def params(self) -> dict:
        """Parameters actually carried by this spec, for reports."""
        out = {}
        for name in _REQUIRED_PARAMS[self.kind]:
            if name != "custom_transform":
                out[name] = getattr(self, name)
        return out


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
        arr = np.asarray(obs)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("observations must be finite and strictly positive")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "n", len(obs))
        object.__setattr__(self, "mean", float(np.mean(arr)))


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

def _mean_array(sample_mean, check: bool = True):
    arr = np.asarray(sample_mean, dtype=float)
    if check and arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("sample mean must be finite and strictly positive")
    return arr, arr.ndim == 0


def _ret(arr, scalar: bool):
    return float(arr) if scalar else arr


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
    keep the ``math`` path.
    """
    if np.ndim(lam) == 0:
        xp, lam = math, _check_positive("lambda", lam)
    else:
        xp, lam = np, np.asarray(lam, dtype=float)
        if not (np.all(np.isfinite(lam)) and np.all(lam > 0.0)):
            raise DomainError("lambda must be finite and strictly positive")
    k = spec.kind
    if k is Kind.RATE_POWER:
        return lam ** spec.p
    if k is Kind.QUANTILE:
        return -math.log1p(-spec.q) / lam
    if k is Kind.MOMENT:
        return math.exp(log_gamma(spec.p + 1.0)) / lam ** spec.p
    if k is Kind.SURVIVAL:
        return xp.exp(-lam * spec.t)
    if k is Kind.MAX_CDF_POWER:
        return (-xp.expm1(-lam * spec.t)) ** spec.m
    if k is Kind.MIN_SURVIVAL:
        return xp.exp(-lam * spec.m * spec.t)
    if k is Kind.PDF:
        return lam * xp.exp(-lam * spec.t)
    if k is Kind.MEAN_PAST_LIFETIME:
        return _mean_past_lifetime_target(spec.t, lam, xp)
    if k is Kind.MGF:
        if np.any(spec.t >= lam):
            raise DomainError("MGF target requires t < lambda")
        return lam / (lam - spec.t)
    if k is Kind.EXPECTED_SHORTFALL:
        return (-math.log1p(-spec.p) + 1.0) / lam
    if k is Kind.CUSTOM:
        xi = spec.custom_transform.eval_real
        if xp is math:
            return float(xi(lam))
        return np.vectorize(lambda v: float(xi(v)), otypes=[float])(lam)
    raise SpecError(f"unknown kind {k!r}")


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


# ---------------------------------------------------------------------------
# closed-form unbiased estimators
# ---------------------------------------------------------------------------

def rate_power(sample_mean, n, p):
    """Unbiased estimate of lambda^p: Gamma(n)/(n^p Gamma(n-p)) * mean^{-p}.

    Requires p < n and p != 0; negative integer p is accepted (the closed
    form stays finite there even though the transform derivation does not).
    """
    n = _check_n(n)
    p = float(p)
    if p == 0.0:
        raise DomainError("rate-power exponent p = 0 is excluded")
    if p >= n:
        raise DomainError(f"rate-power needs p < n (got p={p}, n={n})")
    x, scalar = _mean_array(sample_mean)
    coef = math.exp(-_log_gamma_ratio(n, -p) - p * math.log(n))
    return _ret(coef * x ** (-p), scalar)


def quantile(sample_mean, q):
    """Unbiased estimate of the qth quantile: -ln(1-q) * mean."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError("quantile level q must lie in (0, 1)")
    x, scalar = _mean_array(sample_mean)
    return _ret(-math.log1p(-q) * x, scalar)


def moment(sample_mean, n, p):
    """Unbiased estimate of E[X^p]: Gamma(p+1)Gamma(n)n^p/Gamma(p+n) * mean^p."""
    n = _check_n(n)
    p = float(p)
    if p <= -1.0:
        raise DomainError("moment exponent requires p > -1")
    x, scalar = _mean_array(sample_mean)
    coef = math.exp(log_gamma(p + 1.0) + p * math.log(n) - _log_gamma_ratio(n, p))
    return _ret(coef * x ** p, scalar)


def _indicator_power(x: np.ndarray, a: float, exponent: int) -> np.ndarray:
    # (1 - a/x)^exponent gated on x >= a; the gate must come first so the
    # base is never negative.
    ind = x >= a
    base = np.where(ind, 1.0 - a / x, 0.0)
    return np.where(ind, base ** exponent, 0.0)


def survival(sample_mean, n, t):
    """Unbiased estimate of P(X > t): (1 - t/(n mean))^{n-1} on {mean >= t/n}."""
    n = _check_n(n)
    t = _check_positive("t", t)
    x, scalar = _mean_array(sample_mean)
    return _ret(_indicator_power(np.atleast_1d(x), t / n, n - 1).reshape(x.shape), scalar)


def max_cdf_power(sample_mean, n, t, m):
    """Unbiased estimate of [P(X <= t)]^m via the alternating binomial sum."""
    n = _check_n(n)
    t = _check_positive("t", t)
    if not (isinstance(m, numbers.Integral) and m >= 1):
        raise DomainError("m must be a positive integer")
    x, scalar = _mean_array(sample_mean)
    xa = np.atleast_1d(x)
    total = np.ones(xa.shape)
    for k in range(1, int(m) + 1):
        total = total + math.comb(int(m), k) * (-1) ** k * _indicator_power(xa, k * t / n, n - 1)
    return _ret(total.reshape(x.shape), scalar)


def min_survival(sample_mean, n, t, m):
    """Unbiased estimate of [P(X > t)]^m: the survival form at horizon m*t."""
    n = _check_n(n)
    t = _check_positive("t", t)
    if not (isinstance(m, numbers.Integral) and m >= 1):
        raise DomainError("m must be a positive integer")
    x, scalar = _mean_array(sample_mean)
    return _ret(_indicator_power(np.atleast_1d(x), int(m) * t / n, n - 1).reshape(x.shape),
                scalar)


def pdf_at(sample_mean, n, t):
    """Unbiased estimate of the density at t; defined for n >= 2 only."""
    n = _check_n(n)
    if n < 2:
        raise DomainError("the density estimator requires n >= 2")
    t = _check_positive("t", t)
    x, scalar = _mean_array(sample_mean)
    xa = np.atleast_1d(x)
    val = ((n - 1.0) / n) * _indicator_power(xa, t / n, n - 2) / xa
    return _ret(val.reshape(x.shape), scalar)


def mean_past_lifetime(sample_mean, n, t):
    """Unbiased estimate of E[t - X | X <= t].

    t * sum_k 1{mean >= tk/n} (1 - tk/(n mean))^{n-1} - mean.  Indicator
    terms vanish beyond floor(n mean / t); for n >= 2 the sum is also cut
    per point where its remaining tail falls below 2^-60 of the k = 0 term,
    which is below double precision, so the work per point is bounded
    independently of n.  Memory is O(points).
    """
    n = _check_n(n)
    t = _check_positive("t", t)
    x, scalar = _mean_array(sample_mean)
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
        terms = (1.0 - a[lo == 0] / xs) ** (n - 1)
        if terms.size:
            total[0] = np.cumsum(terms[::-1])[-1]
    else:
        for s, a_k in zip(lo[::-1].tolist(), a[::-1].tolist()):
            total[s:] += (1.0 - a_k / xs[s:]) ** (n - 1)
    val = np.empty_like(xs)
    val[order] = t * (1.0 + total) - xs
    return _ret(val.reshape(x.shape), scalar)


def mgf(sample_mean, n, t):
    """Unbiased estimate of E[e^{tX}].

    Kummer's function M(1, n, w) with w = n t mean, which equals
    e^{w} gamma(n, w) / w^{n-1} + 1 (DLMF 8.5.1).  t = 0 short-circuits to 1.
    """
    n = _check_n(n)
    t = float(t)
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    x, scalar = _mean_array(sample_mean)
    if t == 0.0:
        return _ret(np.ones(np.shape(x)) if not scalar else np.float64(1.0), scalar)
    val = hyp1f1(1.0, n, n * t * x)
    if not np.all(np.isfinite(val)):
        raise RangeError("MGF estimate overflowed double precision")
    return _ret(val, scalar)


def expected_shortfall(sample_mean, p_level):
    """Unbiased estimate of the expected shortfall: (-ln(1-p) + 1) * mean."""
    p_level = float(p_level)
    if not (0.0 < p_level < 1.0):
        raise DomainError("expected-shortfall level must lie in (0, 1)")
    x, scalar = _mean_array(sample_mean)
    return _ret((-math.log1p(-p_level) + 1.0) * x, scalar)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def phi_function(spec: FunctionalSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized closed-form estimator mean -> estimate for a given n.

    The returned callable is what the quadrature oracle integrates and the
    Monte Carlo harness maps over replications.
    """
    n = _check_n(n)
    k = spec.kind
    if k is Kind.RATE_POWER:
        if spec.p >= n:
            raise DomainError(f"rate-power needs p < n (got p={spec.p}, n={n})")
        return lambda x: rate_power(x, n, spec.p)
    if k is Kind.QUANTILE:
        return lambda x: quantile(x, spec.q)
    if k is Kind.MOMENT:
        return lambda x: moment(x, n, spec.p)
    if k is Kind.SURVIVAL:
        return lambda x: survival(x, n, spec.t)
    if k is Kind.MAX_CDF_POWER:
        return lambda x: max_cdf_power(x, n, spec.t, spec.m)
    if k is Kind.MIN_SURVIVAL:
        return lambda x: min_survival(x, n, spec.t, spec.m)
    if k is Kind.PDF:
        return lambda x: pdf_at(x, n, spec.t)
    if k is Kind.MEAN_PAST_LIFETIME:
        return lambda x: mean_past_lifetime(x, n, spec.t)
    if k is Kind.MGF:
        return lambda x: mgf(x, n, spec.t)
    if k is Kind.EXPECTED_SHORTFALL:
        return lambda x: expected_shortfall(x, spec.p)
    raise SpecError(f"no closed form for kind {k.value!r};"
                    " use the Laplace inversion engine")


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
    valid for p > -n/2; the bracket is computed with expm1 of the log-ratio
    so near-equality (small |p|) keeps full precision.
    """
    n = _check_n(n)
    p = float(p)
    lam = _check_positive("lambda", lam)
    if p <= -n / 2.0:
        raise DomainError(f"variance formula requires p > -n/2 (got p={p}, n={n})")
    bracket = math.expm1(_log_gamma_ratio(n, 2.0 * p) - 2.0 * _log_gamma_ratio(n, p))
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
