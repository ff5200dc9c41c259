"""Property sweeps: every closed-form estimator against 60-digit mpmath, and
the quadrature oracle on every closed-form kind.

For each closed-form kind, Hypothesis draws n log-uniformly in [1, 2e4], a
rate lambda log-uniformly in [1e-3, 1e3] and a mean within a factor 20 of
1/lambda (time-like parameters scale with 1/lambda, so each draw is a
scale-free cell).  Each draw checks that

- ``phi_function`` agrees with an mpmath evaluation of the paper's formula
  to the bound stated for its kind below, or raises ``ExpunbiasError``;
- the target's slope lambda xi'(lambda) that the CLT scale and the Tate law
  read (``estimators._lam_xi_slope``, the complex step of the row's xi)
  agrees with lambda times ``mp.diff`` of the target written out in mpmath,
  to 1e-13 relative plus 32 eps xi, the rounding that xi's own expression
  leaves in the slope where it cancels (the MGF's lambda/(lambda - t) at
  lambda >> t, mean-past-lifetime's direct form just above its series
  cutoff);
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
  the constant part;
- mean-past-lifetime: 1e-14 relative, and at n = 1 also ``_SUM_EPS`` eps
  times t + 2x, the rounding of t(1 + K) - x (``test_mean_past_lifetime_grid``
  adds fixed means across the switch of forms and on kinks).

Exponents and MGF arguments are drawn with |p|, |t/lambda| >= 1e-6: below
about 1e-25 ``mp.diff`` at 60 digits cannot resolve the slope, which is how
the sweep's first shrunk counter-examples (p = 4.8e-101 and t = 1e-300 at
n = 1, mean 1) failed.  ``_REGRESSIONS`` keeps, as explicit cases, cells
where indicator powers computed as a power of the rounded base 1 - a/x lost
about e ulps per term.

The oracle sweeps draw n log-uniformly in [1, 1e7] (the MGF's in [1, 1e6],
where a cell already costs 0.13 s) and lambda in [0.05, 30], and check
that ``verify_unbiasedness`` (every closed-form kind, n >= 1) and
``verify_tate_bias`` (every kind whose row states xi as atoms, n >= 2)
certify each cell below the 1e-9 tolerance or raise ``ExpunbiasError``,
without a warning.

The contour sweep (``test_sweep_contour_engine``) draws n log-uniformly in
[1, 1e4], a mean in [1e-3, 1e3], one of the five smooth kinds (the MGF with
t mean in [-3, 3]) or the user transform lambda/(lambda + 1), and checks
that ``generic_phi`` on the saddle-centred contour returns within 1e-12 of
the closed form in 60-digit mpmath (for the user transform
1F1(1; n; -n mean)) or raises ``InversionError``, without a warning;
``test_contour_regressions`` keeps the cells where a check was missing.

``test_atoms_sum_to_target`` checks each finite-atom row's two statements
of xi against each other: its atoms c lam^r e^{-a lam} summed in double
against ``target_value``, to the rounding bound in its docstring.

The CLI sweep (``test_sweep_cli``) runs ``cli.main`` on drawn argument lists
of every subcommand: ``estimate`` under all three engines, ``verify``,
``verify --tate``, ``compare`` and ``clt``, with parameters that are
sometimes outside their domains.  Each run must end with exit code 0, 2, 3
or 4 (1, threshold exceeded, only from ``verify``), print exactly one
stderr line starting with ``error:`` or ``numerical failure:`` on exit 2, 3
or 4 and nothing on stderr otherwise, and emit no warning.
``_CLI_REGRESSIONS`` keeps the runs that ended in a traceback before.
"""

import contextlib
import io
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expunbias import cli
from expunbias.errors import DomainError, ExpunbiasError, InversionError, RangeError
from expunbias.estimators import (_CATALOGUE, FunctionalSpec, Kind, Sample, _lam_xi_slope,
                                  closed_form_variance_mle, closed_form_variance_unbiased,
                                  mle_estimate, phi_function, target_value,
                                  tate_expected_value, tate_phi_function)
from expunbias.laplace import (InversionConfig, InversionMethod, TransferFunction,
                               builtin_transfer_function, generic_phi)
from expunbias.oracle import verify_tate_bias, verify_unbiasedness

EPS = 2.0 ** -52
_SUM_EPS = 8.0
_SMOOTH_REL = {Kind.RATE_POWER: 1e-13, Kind.MOMENT: 1e-13,
              Kind.QUANTILE: 1e-15, Kind.EXPECTED_SHORTFALL: 1e-15, Kind.MGF: 1e-10}
_N_MAX = 20_000
# the oracle sweeps' largest n, and the MGF's (scipy's hyp1f1 costs 0.13 s a
# cell at 1e6 and 0.4 s at 1e7)
_ORACLE_N_MAX, _MGF_ORACLE_N_MAX = 10 ** 7, 10 ** 6


def _indicator_form(spec, n):
    """(c0, [(c, a_double, a_exact, e)], over_x) of an indicator kind.

    The estimator is c0 + sum c 1{x >= a} (1 - a/x)^e, divided by x when
    over_x; the indicator compares in double, as stated.
    """
    t = mp.mpf(spec.t)
    if spec.kind is Kind.SURVIVAL:
        return 0, [(1, spec.t / n, t / n, n - 1)], False
    if spec.kind is Kind.MIN_SURVIVAL:
        return 0, [(1, spec.m * spec.t / n, spec.m * t / n, n - 1)], False
    if spec.kind is Kind.MAX_CDF_POWER:
        return 1, [((-1) ** k * math.comb(spec.m, k), k * spec.t / n, k * t / n, n - 1)
                   for k in range(1, spec.m + 1)], False
    assert spec.kind is Kind.PDF
    return 0, [(mp.mpf(n - 1) / n, spec.t / n, t / n, n - 2)], True


def _mpl_reference(spec, n, x):
    """The mean-past-lifetime estimator as an mp function of the mean.

    The defining sum t sum_k 1{x >= tk/n} (1 - tk/(n z))^(n-1) - z over the
    terms k that are live at x, while they number at most about 3000; past
    that (n >= 2, x/t > 30) the terminating Euler-Maclaurin form with
    mpmath's Bernoulli numbers and polynomials.
    """
    t, xm = mp.mpf(spec.t), mp.mpf(x)
    if n == 1 or min(n, 100) * x / spec.t <= 3000:
        ks, k = [], 0
        while x >= k * spec.t / n:
            ks.append(k)
            if n > 1 and (1 - t * k / (n * xm)) ** (n - 1) < mp.mpf(10) ** -40:
                break
            k += 1
        return lambda z: t * mp.fsum((1 - t * k / (n * z)) ** (n - 1) for k in ks) - z

    def f(z):
        c = t / (n * z)
        bracket = mp.mpf(0.5)
        for j in range(1, n // 2 + 1):
            term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.ff(n - 1, 2 * j - 1) * c ** (2 * j - 1)
            bracket += term
            if abs(term) < mp.mpf(10) ** -65:
                break
        if n <= 40:  # past it, at x/t > 30, below 1e-60 of the value
            bracket -= c ** (n - 1) * mp.bernpoly(n, 1 / c - mp.floor(1 / c)) / n
        return t * bracket
    return f


def _reference(spec, n, x):
    """mp function of the mean and the error budget of its value at x."""
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
        return f, _SMOOTH_REL[spec.kind] * abs(f(mp.mpf(x)))
    xm = mp.mpf(x)
    if spec.kind is Kind.MEAN_PAST_LIFETIME:
        f = _mpl_reference(spec, n, x)
        # at n = 1, t(1 + K) - x rounds to a few ulps of t(1 + K) + x
        return f, 1e-14 * abs(f(xm)) + (_SUM_EPS * EPS * (spec.t + 2 * xm) if n == 1 else 0)
    c0, terms, over_x = _indicator_form(spec, n)

    def f(z):
        live = [(c, a, e) for c, a_dbl, a, e in terms if x >= a_dbl]
        s = c0 + sum(c * (1 - a / z) ** e for c, a, e in live)
        return s / z if over_x else s

    k = len(terms)
    value_budget = abs(c0)
    for c, a_dbl, a, e in terms:
        if x < a_dbl or x == a:
            continue
        u = 1 - a / xm
        kappa = e * (a / xm) / u
        value_budget += abs(c) * u ** e * (1 + abs(e * mp.log(u)) + kappa + k)
    return f, _SUM_EPS * EPS * value_budget * (1 / xm if over_x else 1)


def _xi_reference(spec):
    """The target xi as an mp function of lambda, written out."""
    p, q, t = (mp.mpf(v) if v is not None else None for v in (spec.p, spec.q, spec.t))
    return {
        Kind.RATE_POWER: lambda lam: lam ** p,
        Kind.QUANTILE: lambda lam: -mp.log1p(-q) / lam,
        Kind.MOMENT: lambda lam: mp.gamma(p + 1) / lam ** p,
        Kind.SURVIVAL: lambda lam: mp.exp(-lam * t),
        Kind.MAX_CDF_POWER: lambda lam: (-mp.expm1(-lam * t)) ** spec.m,
        Kind.MIN_SURVIVAL: lambda lam: mp.exp(-lam * spec.m * t),
        Kind.PDF: lambda lam: lam * mp.exp(-lam * t),
        Kind.MEAN_PAST_LIFETIME: lambda lam: t / -mp.expm1(-lam * t) - 1 / lam,
        Kind.MGF: lambda lam: lam / (lam - t),
        Kind.EXPECTED_SHORTFALL: lambda lam: (1 - mp.log1p(-p)) / lam,
    }[spec.kind]


def _check(spec, n, x, lam=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if lam is not None:
            # lambda xi' within 1e-13, past 32 eps xi where xi's expression cancels
            got = _lam_xi_slope(spec, lam)
            with mp.workdps(60):
                xi = _xi_reference(spec)
                ref = lam * mp.diff(xi, mp.mpf(lam))
                bound = 32 * EPS * abs(xi(mp.mpf(lam)))
                assert abs(got - ref) <= 1e-13 * abs(ref) + bound, (got, float(ref), lam)
        try:
            got = phi_function(spec, n)(x)
        except ExpunbiasError:
            return
        assert math.isfinite(got)
        with mp.workdps(60):
            f, value_tol = _reference(spec, n, x)
            ref = f(mp.mpf(x))
            assert abs(got - ref) <= value_tol, (got, float(ref), float(value_tol))


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
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.05, 5.0)) / lam)
    return spec, n, x, lam


_CLOSED_FORM = [kind for kind in Kind if kind is not Kind.CUSTOM]


@pytest.mark.parametrize("kind", _CLOSED_FORM, ids=lambda k: k.value)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_against_mpmath(kind, data):
    _check(*data.draw(_cells(kind)))


_ATOM_KINDS = [kind for kind in _CLOSED_FORM if _CATALOGUE[kind].atoms is not None]


@pytest.mark.parametrize("kind", _ATOM_KINDS, ids=lambda k: k.value)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_atoms_sum_to_target(kind, data):
    """A row's atoms c lam^r e^{-a lam} sum to its xi, in double, within
    _SUM_EPS eps sum |term| (1 + |ln |c|| + a lam + K) for K atoms: each term
    rounds its exp of ln c or of -a lam, and the sum adds K roundings of its
    absolute size.  Max-cdf-power's terms are O(1) and cancel, so there the
    bound is absolute, about eps 2^m, however small the target."""
    spec, _, x, _ = data.draw(_cells(kind))
    lam = data.draw(_log_uniform(0.05, 20.0)) / x
    r, atoms, *log_c = _CATALOGUE[kind].atoms(spec)
    if log_c:
        atoms = [(math.exp(log_c[0]), 0.0)]
    terms = [c * lam ** r * math.exp(-a * lam) for c, a in atoms]
    budget = sum(abs(term) * (1 + abs(math.log(abs(c))) + a * lam + len(atoms))
                 for term, (c, a) in zip(terms, atoms))
    got, want = sum(terms), target_value(spec, lam)
    assert abs(got - want) <= _SUM_EPS * EPS * budget, (got, want, budget)


_LAW_NS = (2, 3, 4, 6, 10, 30, 1000)
_LAW_RATES = (1e-10, 1e-7, 1e-4, 0.01, 0.3, 1.0, 2.0, 5.0, 17.0, 50.0)
_LAW_CASES = [
    (FunctionalSpec(Kind.RATE_POWER, p=0.5), _LAW_NS),
    (FunctionalSpec(Kind.RATE_POWER, p=-1.5), _LAW_NS),
    # 1 - p/(n-1) = 1/30 at n = 4: the bias cancels all but 1/30 of xi
    (FunctionalSpec(Kind.RATE_POWER, p=2.9), _LAW_NS[2:]),
    (FunctionalSpec(Kind.QUANTILE, q=0.3), _LAW_NS),
    (FunctionalSpec(Kind.MOMENT, p=2.0), _LAW_NS),
    (FunctionalSpec(Kind.MOMENT, p=-0.5), _LAW_NS),
    (FunctionalSpec(Kind.SURVIVAL, t=0.5), _LAW_NS),
    (FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=3), _LAW_NS),
    (FunctionalSpec(Kind.MIN_SURVIVAL, t=0.5, m=3), _LAW_NS),
    (FunctionalSpec(Kind.PDF, t=0.5), _LAW_NS[1:]),  # the Tate density needs n >= 3
    (FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.9), _LAW_NS),
    # m = n - 1: xi - lam xi'/(n-1) is O(lam t) of xi, down to 1e-20 of it
    *[(FunctionalSpec(Kind.MAX_CDF_POWER, t=1e-10, m=n - 1), (n,)) for n in _LAW_NS[:5]],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec,ns", _LAW_CASES, ids=["-".join(
    [s.kind.value, *(f"{name}={value}" for name, value in s.params().items())])
    for s, _ in _LAW_CASES])
def test_tate_law_against_mpmath(spec, ns):
    """Tate's expectation xi - lam xi'/(n-1) against 60-digit mpmath, xi
    written out and lam xi' taken by ``mp.diff`` in ln lam, within 32 eps
    (|xi| + |lam xi'|/(n-1)): the rounding of xi and of the complex step.
    Where the two terms nearly cancel that is large relative to the value,
    and it is the trade-off of the law: max-cdf-power at m = n - 1 and
    lam t = 1e-10 reads up to 2e-6 relative, where the closed form that the
    law replaced read 8.3e-8; both forms are ill-conditioned there.  The
    largest error here is 11 eps (|xi| + |lam xi'|/(n-1)), the rate power
    p = 2.9 at n = 4, lam = 1e-10."""
    for n in ns:
        for lam in _LAW_RATES:
            got = tate_expected_value(spec, n, lam)
            with mp.workdps(60):
                xi = _xi_reference(spec)
                value = xi(mp.mpf(lam))
                slope = mp.diff(lambda s: xi(mp.exp(s)), mp.log(mp.mpf(lam)))
                ref = value - slope / (n - 1)
                bound = 32 * EPS * (abs(value) + abs(slope) / (n - 1))
                assert abs(got - ref) <= bound, (n, lam, got, float(ref), float(bound))


@st.composite
def _verify_cells(draw, kind, n_min=1):
    """(spec, n, lam) with n log-uniform in [n_min, 1e7] (1e6 for the MGF) and
    lam in [0.05, 30].

    Time-like parameters are u/lam with u log-uniform in [0.05, 30], so the
    targets run from (lam t)^m ~ 1e-6 (max-cdf-power) to e^{-120}
    (min-survival).  Mean-past-lifetime draws lam t from 0.0025: at n <= 7
    the oracle splits its cells at each of about 40 n/(lam t) kinks.
    """
    n_max = _MGF_ORACLE_N_MAX if kind is Kind.MGF else _ORACLE_N_MAX
    n = min(n_max, max(n_min, round(draw(_log_uniform(n_min, n_max)))))
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
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.0025, 30.0)) / lam)
    else:
        spec = FunctionalSpec(kind, t=draw(_log_uniform(0.05, 30.0)) / lam)
    return spec, n, lam


@pytest.mark.parametrize("kind", _CLOSED_FORM, ids=lambda k: k.value)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_verify_unbiasedness(kind, data):
    _check_verify(*data.draw(_verify_cells(kind)))


@pytest.mark.parametrize("kind", _ATOM_KINDS, ids=lambda k: k.value)
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_verify_tate_bias(kind, data):
    _check_verify(*data.draw(_verify_cells(kind, n_min=2)), verify=verify_tate_bias)


def _check_verify(spec, n, lam, typed=ExpunbiasError, verify=verify_unbiasedness):
    # the oracle certifies the cell to its tolerance or raises a typed error,
    # without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = verify(spec, n, lam)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p,n,lam", [
    (99.5, 100, 0.05), (99.5, 100, 1.0), (99.5, 100, 30.0), (150.5, 200, 30.0),
    # the coefficient Gamma(n)/(n^p Gamma(n - p)) underflows to 0 here, its
    # log does not
    (19999.9, 20_000, 1.0),
])
def test_rate_power_factors_out_of_range_apart_certify(p, n, lam):
    # x^-p overflows near 0 where the density underflows, so each factor
    # leaves double range where their product does not: RangeError before
    # the product was formed from logs there
    report = verify_unbiasedness(FunctionalSpec(Kind.RATE_POWER, p=p), n, lam)
    assert report.rel_bias < 1e-9


def _user_xi(lam):
    return lam / (lam + 1.0)


@st.composite
def _contour_cells(draw):
    """(spec or None for the user transform lambda/(lambda + 1), n, mean)."""
    n = round(10 ** (4 * draw(st.integers(0, 100)) / 100))
    x = draw(_log_uniform(1e-3, 1e3))
    kind = draw(st.sampled_from(sorted(_SMOOTH_REL, key=lambda k: k.value) + [None]))
    if kind is Kind.RATE_POWER:
        p = draw(st.floats(-3.0, min(3.0, n - 0.01)).filter(lambda v: v != 0.0))
        return FunctionalSpec(kind, p=p, allow_negative_integer_p=True), n, x
    if kind is Kind.MOMENT:
        return FunctionalSpec(kind, p=draw(st.floats(-0.9, 4.0))), n, x
    if kind is Kind.QUANTILE:
        return FunctionalSpec(kind, q=draw(st.floats(0.01, 0.99))), n, x
    if kind is Kind.EXPECTED_SHORTFALL:
        return FunctionalSpec(kind, p=draw(st.floats(0.01, 0.99))), n, x
    if kind is Kind.MGF:
        return FunctionalSpec(kind, t=draw(st.floats(-3.0, 3.0)) / x), n, x
    return None, n, x


def _check_contour(spec, n, x):
    # the contour engine returns within 1e-12 of the closed form in 60-digit
    # mpmath, or raises InversionError; never a warning
    xi = (TransferFunction(_user_xi, _user_xi) if spec is None
          else builtin_transfer_function(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = generic_phi(xi, n, InversionConfig(InversionMethod.TALBOT))(x)
        except InversionError:
            return
    with mp.workdps(60):
        if spec is None:
            ref = mp.hyp1f1(1, n, -n * mp.mpf(x), maxterms=10 ** 6)
        else:
            ref = _reference(spec, n, x)[0](mp.mpf(x))
        assert abs(got - ref) <= 1e-12 * abs(ref), (spec, n, x, got, float(ref))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cell=_contour_cells())
def test_sweep_contour_engine(cell):
    _check_contour(*cell)


@pytest.mark.parametrize("spec,n,x", [
    # t mean = 1.5 puts the apex past the saddle: the terms cancel by a
    # factor 3e6, and without the rounding-floor check the sum came back
    # 1.8e-11 off with fine and coarse agreeing
    pytest.param(FunctionalSpec(Kind.MGF, t=0.5), 200, 3.0, id="mgf-floor"),
    # e^-mean at n = 1: the floor is 9e-11 of the sum, which a threshold of
    # 1e-10 would pass, and the sum is 3.4e-11 off
    pytest.param(None, 1, 15.94667741033006, id="user-n1-floor"),
    # the kernel's phase 2 sqrt(n) (w0 - 1) v aliased alike on both grids of
    # too few intervals: 2e35 times the value, with no error
    pytest.param(FunctionalSpec(Kind.MGF, t=438.87719448457784), 821, 0.006079667312686928,
                 id="mgf-alias"),
    # xi = lam^r with |r| >> n turns the integrand 2|r|/sqrt(n) radians per
    # unit v, past what the grids resolve, and both aliased alike: 4e303 for
    # 1, and 1.3e181 for 1e-3, until the probe node read xi's phase rate
    pytest.param(FunctionalSpec(Kind.MOMENT, p=170.0), 1, 1.0, id="moment-p170"),
    pytest.param(FunctionalSpec(Kind.RATE_POWER, p=-326.0017183665089,
                                allow_negative_integer_p=True), 51, 3.6305770052232273,
                 id="rate-power-p-326"),
])
def test_contour_regressions(spec, n, x):
    _check_contour(spec, n, x)


_CLI_COMMANDS = ("estimate closed", "estimate talbot", "estimate gaver-stehfest",
                 "verify", "verify --tate", "compare", "clt")


def _number(value) -> str:
    return repr(float(value))


def _opt(name: str, value) -> str:
    # one token, so that argparse does not read "-1e-05" as an option
    return f"--{name.replace('_', '-')}={value}"


@st.composite
def _cli_runs(draw, data_dir):
    """An argument list for ``cli.main``.

    n is log-uniform in [1, 2e4] (up to 2000 for ``compare``, which draws
    full samples) and lambda in [1e-3, 1e3].  Time-like parameters are
    u/lambda with u log-uniform in [1e-3, 30] or in [-1, 0] (out of domain,
    except for the MGF), levels lie in [0.01, 0.99] or [-0.2, 1.2], copies m
    in [1, 5] or 0, and exponents in [-3, 3] or [-1000, 1000]; the second,
    partly invalid, range is drawn one time in ten.  ``verify --tate`` draws
    the kinds with a 1959 form, those whose row states xi as atoms.
    """
    command = draw(st.sampled_from(_CLI_COMMANDS))
    kind = draw(st.sampled_from(_ATOM_KINDS if command == "verify --tate" else _CLOSED_FORM))
    lam = draw(_log_uniform(1e-3, 1e3))
    # integers spread the log scale more evenly than Hypothesis's floats do
    n_max = 2000 if command == "compare" else _N_MAX
    n = round(n_max ** (draw(st.integers(0, 100)) / 100))

    def mostly(usual, rare):
        # one draw in ten from ``rare``
        return draw(rare if draw(st.integers(0, 9)) == 0 else usual)

    level = _number(mostly(st.floats(0.01, 0.99), st.floats(-0.2, 1.2)))
    exponent = _number(mostly(st.floats(-3.0, 3.0), st.floats(-1000.0, 1000.0)))
    values = {
        "p": level if kind is Kind.EXPECTED_SHORTFALL else exponent, "q": level,
        "t": _number(mostly(_log_uniform(1e-3, 30.0), st.floats(-1.0, 0.0)) / lam),
        "m": mostly(st.integers(1, 5), st.just(0)),
    }
    seed = draw(st.integers(0, 2 ** 32))
    row = _CATALOGUE[kind]
    # verify reads some parameters from options of other names (the moment's p from --moment-p)
    flags = (row.verify_args or row.params) if command.startswith("verify") else row.params
    options = [_opt(flag, values[name]) for name, flag in zip(row.params, flags)]
    sizes = ["--n", str(n), _opt("lambda", _number(lam))]
    if command == "compare":
        return ["compare", _opt("p", exponent), *sizes,
                "--reps", str(draw(st.integers(1, 200))), "--seed", str(seed)]
    if command == "clt":
        return ["clt", "--kind", kind.value, *options, *sizes,
                "--reps", str(draw(st.integers(1, 2000))), "--seed", str(seed)]
    if command.startswith("verify"):
        return ["verify", *command.split()[1:], "--kinds", kind.value, *options, *sizes]
    path = data_dir / "obs.txt"
    rng = np.random.default_rng(seed)
    path.write_text("".join(f"{v!r}\n" for v in rng.exponential(1.0 / lam, n).tolist()))
    return ["estimate", "--kind", kind.value, *options, "--data", str(path),
            "--engine", command.split()[1]]


def _check_cli(argv):
    # exit 0 (or 1 from verify, threshold exceeded) with a clean stderr, or
    # 2, 3, 4 with one error line, and no warning either way
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    allowed = {0, 1, 2, 3, 4} if argv[0] == "verify" else {0, 2, 3, 4}
    assert code in allowed, (argv, code, lines)
    if code in (0, 1):
        assert lines == [], (argv, lines)
    else:
        assert len(lines) == 1 and lines[0].startswith(("error:", "numerical failure:")), \
            (argv, code, lines)
    return code


@pytest.fixture(scope="module")
def cli_data_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_sweep")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_cli(cli_data_dir, data):
    _check_cli(data.draw(_cli_runs(cli_data_dir)))


_CLI_REGRESSIONS = [
    # clt_summary divided by a zero second moment: ZeroDivisionError, exit 1
    pytest.param(["clt", "--kind", "quantile", "--q", "0.5", "--n", "5", "--lambda", "1",
                  "--reps", "1", "--seed", "3"], 3, id="clt-reps-1"),
    # the exact pth-moment variance overflowed: OverflowError, exit 1
    pytest.param(["compare", "--p", "400", "--n", "5", "--lambda", "1000", "--reps", "300",
                  "--seed", "1"], 4, id="compare-p400"),
    # the empirical variance overflowed with a RuntimeWarning first
    pytest.param(["compare", "--p", "60", "--n", "5", "--lambda", "0.001", "--reps", "300",
                  "--seed", "1"], 4, id="compare-p60"),
    # the mean-past-lifetime sum asked numpy for about 1e45 terms: ValueError;
    # its value is checked in test_cli_mean_past_lifetime_tiny_t
    pytest.param(["estimate", "--kind", "mean-past-lifetime", "--t", "1.4e-45",
                  "--data", "DATA"], 0, id="estimate-mpl-tiny-t"),
    # s^n underflowed to 0 on the fixed Talbot contour: ZeroDivisionError,
    # then exit 4; the saddle-centred contour returns xi = 1's estimate, 1
    pytest.param(["estimate", "--kind", "mgf", "--t", "0", "--data", "DATA200",
                  "--engine", "talbot"], 0, id="estimate-mgf-talbot"),
    # the oracle's Gamma(n) window ended before the mass of x^11.5 times the
    # density: rel_bias 2.5e-7, exit 1 on correct code
    pytest.param(["verify", "--tate", "--kinds", "rate-power", "--p=-11.5", "--n", "2"], 0,
                 id="verify-tate-rate-power-p-11.5"),
    # a power estimator's factors leave double range apart: exit 4 with a
    # RangeError naming the estimate
    pytest.param(["verify", "--kinds", "rate-power", "--p", "99.5", "--n", "100",
                  "--lambda", "0.05,1,30"], 0, id="verify-rate-power-p99.5"),
    # no cell in the domain: exit 0 with no rows
    pytest.param(["verify", "--tate", "--kinds", "quantile", "--n", "1"], 3,
                 id="verify-tate-empty-grid"),
]


@pytest.mark.parametrize("argv,code", _CLI_REGRESSIONS)
def test_cli_regressions(argv, code, cli_data_dir):
    data = {"DATA": "0.43\n1.12\n0.71\n", "DATA200": "1000.0\n" * 200}
    for name, text in data.items():
        (cli_data_dir / name).write_text(text)
    assert _check_cli([str(cli_data_dir / arg) if arg in data else arg for arg in argv]) == code


def test_cli_mean_past_lifetime_tiny_t(cli_data_dir):
    # about 1.6e45 indicator terms at n = 3, once a RangeError (exit 4): the
    # value against the exact power sums sum_{k<=m} (N - k)^2
    # = (m + 1) N^2 - 2 N S_1 + S_2, N = 3 mean/t, m = floor(N), in mpmath
    path = cli_data_dir / "tiny_t.txt"
    path.write_text("0.43\n1.12\n0.71\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["estimate", "--kind", "mean-past-lifetime", "--t", "1.4e-45",
                         "--data", str(path)]) == 0
    got = json.loads(out.getvalue())["results"][0]["value"]
    mean, t = Sample([0.43, 1.12, 0.71]).mean, 1.4e-45
    with mp.workdps(150):
        big_n = 3 * mp.mpf(mean) / mp.mpf(t)
        m = mp.floor(big_n)
        total = ((m + 1) * big_n ** 2 - 2 * big_n * m * (m + 1) / 2
                 + m * (m + 1) * (2 * m + 1) / 6) / big_n ** 2
        ref = mp.mpf(t) * total - mp.mpf(mean)
    assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)


_MPL_GRID_N = [1, 2, 3, 4, 7, 13, 30, 200, 2000, 20000]


@pytest.mark.parametrize("n", _MPL_GRID_N)
def test_mean_past_lifetime_grid(n):
    """Values on both sides of the switch between the sum (mean < t)
    and the Euler-Maclaurin form, one ulp either side of it included, out to
    mean/t = 1000, and at n = 1 and 2 on kinks tk/n and their neighbours."""
    t = 3.0
    spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=t)
    xs = [0.3 * t, 0.77 * t, math.nextafter(t, 0.0), math.nextafter(t, math.inf), 1.3 * t,
          3.0 * t, 10.0 * t, 100.0 * t, 1000.0 * t]
    for k in (1, 2, 3, 7, 20) if n <= 2 else ():
        kink = k * t / n
        xs += [math.nextafter(kink, 0.0), kink, math.nextafter(kink, math.inf)]
    assert np.all(np.isfinite(phi_function(spec, n)(np.array(xs))))
    for x in xs:
        _check(spec, n, x)


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


# ---------------------------------------------------------------------------
# the output-range rule at the ends of double range
# ---------------------------------------------------------------------------

_RANGE_SPECS = [
    *(FunctionalSpec(Kind.RATE_POWER, p=p, allow_negative_integer_p=True)
      for p in (-30.0, -0.5, 0.5, 29.5)),
    *(FunctionalSpec(Kind.MOMENT, p=p) for p in (-0.5, 2.0, 30.0, 200.0)),
    FunctionalSpec(Kind.QUANTILE, q=0.5),
    FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
    *(FunctionalSpec(kind, t=0.5) for kind in (Kind.SURVIVAL, Kind.PDF, Kind.MEAN_PAST_LIFETIME)),
    *(FunctionalSpec(kind, t=0.5, m=2) for kind in (Kind.MAX_CDF_POWER, Kind.MIN_SURVIVAL)),
    *(FunctionalSpec(Kind.MGF, t=t) for t in (-1.0, 0.5)),
]
_RANGE_MEANS = (1e-300, 1e-20, 1e20, 1.7e308)
_RANGE_RATES = (1e-320, 1e-200, 1e200)
_RANGE_NS = (1, 2, 30, 200)


def _finite_or_typed(call, *where):
    # a finite value, or RangeError or DomainError, and no warning either way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except (RangeError, DomainError):
            return
    value = getattr(value, "value", value)
    assert np.all(np.isfinite(value)), (where, value)


@pytest.mark.parametrize("spec", _RANGE_SPECS, ids=lambda s: "-".join(
    [s.kind.value, *(f"{name}={value}" for name, value in s.params().items())]))
def test_range_sweep_estimators_and_targets(spec):
    """Both families at extreme means, the targets and Tate expectations at
    extreme rates, and the MLE plug-ins at extreme observations."""
    for n in _RANGE_NS:
        for factory in (phi_function, tate_phi_function):
            for x in _RANGE_MEANS:
                _finite_or_typed(lambda: factory(spec, n)(x), factory, n, x)
                _finite_or_typed(lambda: factory(spec, n)(np.array([1.0, x])), factory, n, x)
        for lam in _RANGE_RATES:
            _finite_or_typed(lambda: tate_expected_value(spec, n, lam), n, lam)
    for lam in _RANGE_RATES:
        _finite_or_typed(lambda: target_value(spec, lam), lam)
        _finite_or_typed(lambda: target_value(spec, np.array([1.0, lam])), lam)
    for x in _RANGE_MEANS:
        for plugin in (False, True):
            _finite_or_typed(lambda: mle_estimate(spec, Sample([x, x]), moment_plugin=plugin),
                             x, plugin)


def test_range_sweep_variances_and_special_functions():
    for p in (-0.4, 0.5, 2.0, 60.0, 400.0):
        for n in _RANGE_NS:
            for lam in (*_RANGE_RATES, 1.0):
                _finite_or_typed(lambda: closed_form_variance_unbiased(p, n, lam), p, n, lam)
                _finite_or_typed(lambda: closed_form_variance_mle(p, n, lam), p, n, lam)
