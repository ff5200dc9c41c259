"""Property sweeps: every closed-form estimator against 60-digit mpmath, and
the quadrature oracle on every closed-form kind.

For each closed-form kind, Hypothesis draws n log-uniformly in [1, 2e4], a
rate lambda log-uniformly in [1e-3, 1e3] and a mean within a factor 20 of
1/lambda (time-like parameters scale with 1/lambda, so each draw is a
scale-free cell).  Each draw checks that

- ``phi_function`` agrees with an mpmath evaluation of the paper's formula
  to the bound stated for its kind below, or raises ``ExpunbiasError``;
- the estimator's derivative (``_Phi.prime``) agrees with ``mp.diff`` of
  the same formula to its bound;
- neither call emits a warning.

The bounds, with eps = 2^-52:

- rate power and moment: 1e-13 relative (Gamma-ratio coefficient and one
  power);
- quantile and expected shortfall: 1e-15 relative;
- MGF: 1e-10 relative (scipy's Kummer function);
- indicator sums: each term c (1 - a/x)^e is computed as exp(y) with
  y = e log1p(-a/x), so its rounding error is a few eps times
  1 + |y| + kappa, with kappa = e (a/x)/(1 - a/x) the condition number of
  the base; and a sum of K terms adds K eps of its absolute size.  The
  bound is ``_SUM_EPS`` eps times sum |c term| (1 + |y| + kappa + K), plus
  the constant and linear parts, and the same over the derivative's terms.

Exponents and MGF arguments are drawn with |p|, |t/lambda| >= 1e-6: below
about 1e-25 ``mp.diff`` at 60 digits cannot resolve the slope, which is how
the sweep's first shrunk counter-examples (p = 4.8e-101 and t = 1e-300 at
n = 1, mean 1) failed.  ``_REGRESSIONS`` keeps, as explicit cases, cells
where indicator powers computed as a power of the rounded base 1 - a/x lost
about e ulps per term.

The oracle sweep (``test_sweep_verify_unbiasedness``) draws n the same way
and lambda in [0.05, 30], and checks that ``verify_unbiasedness`` certifies
each cell below its 1e-9 tolerance or raises ``ExpunbiasError``, without a
warning.
"""

import math
import warnings

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expunbias.errors import ExpunbiasError, RangeError
from expunbias.estimators import FunctionalSpec, Kind, _estimator, phi_function
from expunbias.oracle import verify_unbiasedness

EPS = 2.0 ** -52
_SUM_EPS = 8.0
_SMOOTH_REL = {Kind.RATE_POWER: 1e-13, Kind.MOMENT: 1e-13,
              Kind.QUANTILE: 1e-15, Kind.EXPECTED_SHORTFALL: 1e-15, Kind.MGF: 1e-10}
_N_MAX = 20_000


def _indicator_form(spec, n):
    """(c0, [(c, a_double, a_exact, e)], over_x, linear) of an indicator kind.

    The estimator is c0 + sum c 1{x >= a} (1 - a/x)^e, divided by x when
    over_x, minus linear * x; the indicator compares in double, as stated.
    """
    t = mp.mpf(spec.t)
    if spec.kind is Kind.SURVIVAL:
        return 0, [(1, spec.t / n, t / n, n - 1)], False, 0
    if spec.kind is Kind.MIN_SURVIVAL:
        return 0, [(1, spec.m * spec.t / n, spec.m * t / n, n - 1)], False, 0
    if spec.kind is Kind.MAX_CDF_POWER:
        return 1, [((-1) ** k * math.comb(spec.m, k), k * spec.t / n, k * t / n, n - 1)
                   for k in range(1, spec.m + 1)], False, 0
    if spec.kind is Kind.PDF:
        return 0, [(mp.mpf(n - 1) / n, spec.t / n, t / n, n - 2)], True, 0
    assert spec.kind is Kind.MEAN_PAST_LIFETIME
    return t, None, False, 1


def _mpl_terms(spec, n, x):
    # terms until the rest is below 1e-40 of the sum (they decay geometrically)
    t, xm = mp.mpf(spec.t), mp.mpf(x)
    terms, k = [], 1
    while x >= k * spec.t / n:
        terms.append((t, k * spec.t / n, t * k / n, n - 1))
        if n > 1 and (1 - t * k / (n * xm)) ** (n - 1) < mp.mpf(10) ** -40:
            break
        k += 1
    return terms


def _reference(spec, n, x):
    """mp function of the mean, and the error budgets of value and derivative."""
    if spec.kind in _SMOOTH_REL:
        p, q, t = (mp.mpf(v) if v is not None else None for v in (spec.p, spec.q, spec.t))
        if spec.kind is Kind.RATE_POWER:
            f = lambda xm: mp.gamma(n) / (mp.mpf(n) ** p * mp.gamma(n - p)) * xm ** -p
        elif spec.kind is Kind.MOMENT:
            f = lambda xm: mp.gamma(p + 1) * mp.gamma(n) * mp.mpf(n) ** p / mp.gamma(p + n) * xm ** p
        elif spec.kind is Kind.QUANTILE:
            f = lambda xm: -mp.log1p(-q) * xm
        elif spec.kind is Kind.EXPECTED_SHORTFALL:
            f = lambda xm: (1 - mp.log1p(-p)) * xm
        else:
            f = lambda xm: mp.hyp1f1(1, n, n * t * xm, maxterms=10 ** 6)
        rel = _SMOOTH_REL[spec.kind]
        return f, rel * abs(f(mp.mpf(x))), rel * abs(mp.diff(f, mp.mpf(x)))
    c0, terms, over_x, linear = _indicator_form(spec, n)
    if terms is None:
        terms = _mpl_terms(spec, n, x)
    xm = mp.mpf(x)

    def f(z):
        live = [(c, a, e) for c, a_dbl, a, e in terms if x >= a_dbl]
        s = c0 + sum(c * (1 - a / z) ** e for c, a, e in live)
        return (s / z if over_x else s) - linear * z

    k = len(terms)
    value_budget = abs(c0) + linear * xm
    slope_budget = linear
    for c, a_dbl, a, e in terms:
        if x < a_dbl or x == a:
            continue
        u = 1 - a / xm
        kappa = e * (a / xm) / u
        term = abs(c) * u ** e
        slope = abs(c) * e * u ** (e - 1) * a / xm ** 2
        value_budget += term * (1 + abs(e * mp.log(u)) + kappa + k)
        slope_budget += slope * (1 + abs((e - 1) * mp.log(u)) + kappa + k)
        if over_x:
            slope_budget += term * (1 + abs(e * mp.log(u)) + kappa + k) / xm
    scale = 1 / xm if over_x else 1
    return f, _SUM_EPS * EPS * value_budget * scale, _SUM_EPS * EPS * slope_budget * scale


def _check(spec, n, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = phi_function(spec, n)(x)
        except ExpunbiasError:
            return
        assert math.isfinite(got)
        with mp.workdps(60):
            f, value_tol, slope_tol = _reference(spec, n, x)
            ref = f(mp.mpf(x))
            assert abs(got - ref) <= value_tol, (got, float(ref), float(value_tol))
            est = _estimator(spec, n)
            if x in est.kinks(x):
                return  # no derivative on a kink
            slope = est.prime(x)
            ref_slope = mp.diff(f, mp.mpf(x))
            assert abs(slope - ref_slope) <= slope_tol, (slope, float(ref_slope),
                                                          float(slope_tol))


_log_uniform = lambda lo, hi: st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _cells(draw, kind):
    n_min = 2 if kind is Kind.PDF else 1  # the density estimator needs n >= 2
    n = min(_N_MAX, max(n_min, round(draw(_log_uniform(n_min, _N_MAX)))))
    lam = draw(_log_uniform(1e-3, 1e3))
    x = draw(_log_uniform(0.05, 20.0)) / lam
    # mp.diff at 60 digits cannot resolve the slope of x^p or e^{tx} below
    # |p|, |t x| ~ 1e-25
    nonzero = lambda lo, hi: st.floats(lo, hi).filter(lambda v: abs(v) >= 1e-6)
    if kind is Kind.RATE_POWER:
        spec = FunctionalSpec(kind, p=draw(nonzero(-3.0, 3.0)), allow_negative_integer_p=True)
    elif kind is Kind.MOMENT:
        spec = FunctionalSpec(kind, p=draw(nonzero(-0.9, 4.0)))
    elif kind is Kind.QUANTILE:
        spec = FunctionalSpec(kind, q=draw(st.floats(0.01, 0.99)))
    elif kind is Kind.EXPECTED_SHORTFALL:
        spec = FunctionalSpec(kind, p=draw(st.floats(0.01, 0.99)))
    elif kind is Kind.MGF:
        spec = FunctionalSpec(kind, t=draw(nonzero(-3.0, 0.9)) * lam)
    elif kind in (Kind.MAX_CDF_POWER, Kind.MIN_SURVIVAL):
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.05, 5.0)) / lam,
                              m=draw(st.integers(1, 4)))
    else:
        # the mean-past-lifetime reference sums about 90 x / t terms
        lo = 0.2 if kind is Kind.MEAN_PAST_LIFETIME else 0.05
        spec = FunctionalSpec(kind, t=draw(_log_uniform(lo, 5.0)) / lam)
    return spec, n, x


_CLOSED_FORM = [kind for kind in Kind if kind is not Kind.CUSTOM]


@pytest.mark.parametrize("kind", _CLOSED_FORM, ids=lambda k: k.value)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_against_mpmath(kind, data):
    _check(*data.draw(_cells(kind)))


@st.composite
def _verify_cells(draw, kind):
    """(spec, n, lam) with n log-uniform in [1, 2e4] and lam in [0.05, 30].

    Time-like parameters are u/lam with u log-uniform in [0.05, 30], so the
    targets run from (lam t)^m ~ 1e-6 (max-cdf-power) to e^{-120}
    (min-survival).  Mean-past-lifetime draws lam t in [0.025, 5] only: its
    estimator sums about 42 mean/t terms per point, one numpy call per term,
    so a cell at lam t = 0.0025 takes up to 28 s (at n <= 7 the oracle also
    splits at each of about 40/(lam t) kinks).
    """
    n = min(_N_MAX, max(1, round(draw(_log_uniform(1, _N_MAX)))))
    lam = draw(_log_uniform(0.05, 30.0))
    if kind is Kind.RATE_POWER:
        spec = FunctionalSpec(kind, p=draw(st.floats(-3.0, 3.0).filter(bool)),
                              allow_negative_integer_p=True)
    elif kind is Kind.MOMENT:
        spec = FunctionalSpec(kind, p=draw(st.floats(-0.9, 4.0)))
    elif kind is Kind.QUANTILE:
        spec = FunctionalSpec(kind, q=draw(st.floats(0.01, 0.99)))
    elif kind is Kind.EXPECTED_SHORTFALL:
        spec = FunctionalSpec(kind, p=draw(st.floats(0.01, 0.99)))
    elif kind is Kind.MGF:
        spec = FunctionalSpec(kind, t=draw(st.floats(-3.0, 0.9)) * lam)
    elif kind in (Kind.MAX_CDF_POWER, Kind.MIN_SURVIVAL):
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.05, 30.0)) / lam,
                              m=draw(st.integers(1, 4)))
    elif kind is Kind.MEAN_PAST_LIFETIME:
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.025, 5.0)) / lam)
    else:
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.05, 30.0)) / lam)
    return spec, n, lam


@pytest.mark.parametrize("kind", _CLOSED_FORM, ids=lambda k: k.value)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_verify_unbiasedness(kind, data):
    _check_verify(*data.draw(_verify_cells(kind)))


def _check_verify(spec, n, lam, typed=ExpunbiasError):
    # the oracle certifies the cell to its tolerance or raises a typed error,
    # without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = verify_unbiasedness(spec, n, lam)
        except typed:
            return
    assert report.rel_bias < 1e-9, (spec, n, lam, report.rel_bias)


@pytest.mark.parametrize("p,n,lam", [
    # x^-99.5 overflows near 0, where the density underflows: the integrand
    # was nan and the oracle ended in a QuadratureError after an overflow
    # warning
    (99.5, 100, 1.0),
    # the target 30^19999.9 raised an untyped OverflowError
    (19999.9, 20_000, 30.0),
])
def test_large_rate_power_certifies_or_range_error(p, n, lam):
    _check_verify(FunctionalSpec(Kind.RATE_POWER, p=p), n, lam, typed=RangeError)


_REGRESSIONS = [
    # (1 - a/x)^e as a power of the rounded base was off by 8.9e-9 here
    (FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=3), 5000, 20.0),
    (FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=3), 20_000, 5.0),
    (FunctionalSpec(Kind.SURVIVAL, t=1.0), 20_000, 0.5),
]


@pytest.mark.parametrize("spec,n,x", _REGRESSIONS,
                         ids=lambda v: v.kind.value if isinstance(v, FunctionalSpec) else str(v))
def test_regressions(spec, n, x):
    _check(spec, n, x)
