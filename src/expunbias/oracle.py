"""Quadrature oracle: exact expectations under the sample-mean law.

For an exp(lambda) sample of size n the sample mean follows Gamma(n, n*lambda),
so E[phi(mean)] is a one-dimensional integral.  This module evaluates such
expectations with adaptive Gauss-Kronrod quadrature and checks the
estimators that ``estimators`` builds: ``verify_unbiasedness`` certifies a
corrected estimator against its target, and ``verify_tate_bias`` a biased
1959 estimator against its exact expectation.  It builds no estimator, and
checks counts and rates with the rules in ``errors``; ``tate_estimate``,
``tate_expected_value`` and ``tate_phi_function`` are defined there and
re-exported here.

``verify_row`` checks one (kind, n, family) at a list of rates in one pass:
it builds the estimator once, and ``_quadrature.gauss_kronrod_row`` refines
all the cells together, so each round calls the estimator once and the
density once for every cell still refining.  Each cell refines exactly as it
would alone, and an estimator's value at a mean depends on that mean alone,
so its numbers, and the typed error it raises, do not depend on the other
rates of the row; ``verify_unbiasedness``, ``verify_tate_bias`` and
``expectation`` are rows of one.  The standard Gamma(k) quantiles behind
each window are cached per k and divided by the cell's rate.

Each cell is integrated over a window [L, U] taken from the integrand
phi * density, not from the density alone.  L is where the estimator's
support starts: the smallest indicator boundary of a sum with no constant
term (survival, min-survival, density), 0 otherwise.  U is L plus the
Gamma(n + r, rate) quantile at upper tail mass 1e-16, where r > 0 is the
power of an estimator c mean^r (0 otherwise).  For a survival-type term
(1 - a/x)^(n-1) x^(n-1) e^{-n lam x} is a Gamma density shifted by a, and
for a power c x^r x^(n-1) e^{-n lam x} a Gamma(n + r) one, so the window
keeps all but 1e-16 of the integrand however small the target.  The window
starts split at L plus the Gamma(n + r, rate) quantiles at the normal
scores -8..8, which puts 17 breakpoints across the peak, so most cells
certify in the first round.  A pole c > 0 moves that mesh to 1/(lam - c), so
the density's own Gamma(n, n lam) mesh is added: the MGF's integrand peaks
at 1/lam, narrower at n = 1e6 than the first mesh segment.  The quadrature
also splits at the estimator's indicator kinks, but only where its indicator
exponent e is at most 6: the estimator is C^(e-1) there, and past that the
mesh and the 15-point rule resolve the kinks unsplit.  At e = 4 and 5 they
did not: across its kinks the 15- and 7-point rules err alike, so their
difference is no bound, and mean-past-lifetime cells at n = 5 and 6 read up
to 3e-9 and 3e-10.  A power estimator whose integrand grows like x^alpha,
alpha < 0, at 0 (a rate power p > n - 1, a negative moment at n = 1) gets
its first 2^-52 of the first quantile in closed form.  The integrand, phi *
density, is computed under the output-range rule ``errors._in_range``, per
cell: where a power estimator c mean^r or the density is not a normal
double, the product is exp(ln c + r ln mean + ln density), so a rate power
x^-p that overflows where the density underflows still gives its integrand.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy import special as _sp

from ._quadrature import gauss_kronrod_row
from .errors import (DomainError, ExpunbiasError, RangeError, _check_n, _check_positive,
                     _in_range)
from .estimators import (_CATALOGUE, Family, FunctionalSpec, _estimate_name, _estimator,
                         _tate_law, tate_estimate, tate_expected_value, tate_phi_function,
                         target_value)
from .special import _stirling_remainder

__all__ = [
    "VerificationReport", "gamma_mean_density", "expectation",
    "verify_unbiasedness", "tate_estimate", "tate_expected_value",
    "verify_tate_bias", "verify_row",
]

_REL_BIAS_FLOOR = 1e-300
_TAIL_MASS = 1e-16
# the initial mesh: Gamma quantiles at these normal scores
_MESH_SCORES = np.arange(-8.0, 9.0)
# indicator exponents up to this one get a split at each kink
_SPLIT_EXPONENT = 6
# width of the closed-form head of a singular integrand, relative to the
# first quantile
_HEAD_SCALE = 2.0 ** -52
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one oracle-vs-target comparison."""

    spec: FunctionalSpec
    n: int
    lam: float
    oracle_expectation: float
    target: float
    abs_bias: float
    rel_bias: float
    quad_abs_err_estimate: float
    estimator_family: Family


def _log_norms(n: int, lams: Iterable[float]) -> list[float]:
    # ln lam + ln(n/2pi)/2 - R(n) at each rate, R(n) taken once
    half, remainder = 0.5 * math.log(n / (2.0 * math.pi)), _stirling_remainder(n)
    return [math.log(lam) + half - remainder for lam in lams]


def _log_density(y, n: int, log_norm):
    # the log density of the mean at y = lam x, log_norm from _log_norms
    return (log_norm + (n - 1) * np.log(y) if n > 1 else log_norm) - n * (y - 1.0)


def gamma_mean_density(x, n, lam):
    """Density of the sample mean: (n lam)^n x^{n-1} e^{-n lam x} / Gamma(n).

    With y = lam x and Stirling's form of Gamma(n), the log density is
    ln lam + ln(n/2pi)/2 - R(n) + (n-1) ln y - n (y-1), which has no n ln n
    terms to cancel (nor, at n = 1, the ln y term).  Vectorized over x; the
    density is 0 at x < 0, and one outside double range raises
    :class:`RangeError`.
    """
    n, lam = _check_n(n), _check_positive("lambda", lam)
    arr = np.asarray(x, dtype=float)
    out = _in_range("the sample-mean density", lambda: np.where(arr < 0.0, 0.0, np.exp(
        _log_density(lam * np.abs(arr), n, _log_norms(n, [lam])[0]))))
    return float(out) if arr.ndim == 0 else out


@functools.lru_cache(maxsize=1024)
def _standard_window(k: float) -> tuple[float, np.ndarray]:
    # the standard Gamma(k) quantiles at upper tail mass _TAIL_MASS and at
    # the normal scores _MESH_SCORES
    mesh = _sp.gammaincinv(k, _sp.ndtr(_MESH_SCORES))
    mesh.flags.writeable = False
    return float(_sp.gammainccinv(k, _TAIL_MASS)), mesh


def _window(k: float, lam: float, rate: float, lower: float) -> tuple[float, np.ndarray, float]:
    # [lower, upper] and the mesh inside it: lower plus the Gamma(k, rate)
    # quantile at tail mass _TAIL_MASS, and lower plus the quantiles at the
    # normal scores _MESH_SCORES
    _check_positive(f"the tail rate at lambda = {lam!r}", rate)
    tail, mesh = _standard_window(k)
    upper = lower + tail / rate
    if not math.isfinite(upper):
        raise DomainError(f"lambda = {lam!r} puts the sample mean's upper quadrature "
                          "cutoff beyond double range")
    return lower, lower + mesh / rate, upper


def _attempt(compute: Callable, *args):
    # compute(*args), or the typed error it raises
    try:
        return compute(*args)
    except ExpunbiasError as exc:
        return exc


def _row_integrand(phi: Callable[[np.ndarray], np.ndarray], n: int, lams: dict[int, float],
                   name: Optional[str] = None, log_coef: Optional[float] = None, r: float = 0.0):
    # phi * density for the cells at the rates lams[cell], as gauss_kronrod_row
    # calls it.  The cells of a call are evaluated together; if one breaks a
    # rule, each is evaluated alone, which gives it the first error the rules
    # raise for it: with a name (verify), a mean that is not finite and
    # positive, then an estimate out of range where the product is too (named
    # so), then the product out of range.  log_coef: ln c of a power
    # estimator c mean^r, see the module docstring.
    log_norms = dict(zip(lams, _log_norms(n, lams.values())))

    def product_name(c: int) -> str:
        return f"estimator * density at n={n}, lambda={lams[c]!r}"

    def product(active, x, sizes):
        with np.errstate(all="ignore"):
            value = np.asarray(phi(x), dtype=float)
            log_pdf = _log_density(np.array([lams[c] for c in active]).repeat(sizes) * x, n,
                                   np.array([log_norms[c] for c in active]).repeat(sizes))
            density = np.exp(log_pdf)
            out = value * density
            if log_coef is not None:
                # c mean^r >= 0 and density >= 0
                bad = ~((np.minimum(value, density) >= _TINY)
                        & (np.maximum(value, density) <= _HUGE))
                if bad.any():
                    out[bad] = np.exp(log_coef + r * np.log(x[bad]) + log_pdf[bad])
        return value, out

    def f(active: list[int], xs: list[np.ndarray]) -> list:
        sizes = [part.size for part in xs]
        x = np.concatenate(xs)
        try:
            out = product(active, x, sizes)[1]
        except (ArithmeticError, ExpunbiasError):
            out = None
        if (out is not None and np.isfinite(out).all()
                and (name is None or ((x > 0.0) & (x < math.inf)).all())):
            ends = itertools.accumulate(sizes)
            return [out[end - size:end] for size, end in zip(sizes, ends)]
        if len(active) > 1:
            return [f([c], [part])[0] for c, part in zip(active, xs)]
        c = active[0]
        try:
            if name is not None:
                _check_positive("sample mean", x, True)
            try:
                value, out = product(active, x, sizes)
            except (OverflowError, ZeroDivisionError) as exc:
                raise RangeError(f"{name or product_name(c)} leaves double range") from exc
            _in_range(name or product_name(c), lambda: value[~np.isfinite(out)])
            return [_in_range(product_name(c), lambda: out)]
        except ExpunbiasError as exc:
            return [exc]
    return f


def _integrate_row(phi: Callable[[np.ndarray], np.ndarray], n: int, cells: list, rel_tol: float,
                   alpha: float = 0.0, **integrand) -> list:
    # Per cell -- (lam, window, kinks, ...) or the error it raised -- the
    # integral of phi * density at lam over the window as (value, err), or the error;
    # the cells refine in one gauss_kronrod_row pass.  alpha: the integrand
    # grows like (x - lower)^alpha at each window's start; integrand: the
    # rules _row_integrand applies.
    try:
        _check_positive("rel_tol", rel_tol)
        _check_n(n)
    except ExpunbiasError as exc:  # every cell not failed yet fails alike
        return [c if isinstance(c, ExpunbiasError) else exc for c in cells]

    def start(cell):
        # the cell's interval, breakpoints and head width
        lam, (lower, mesh, upper), kinks, *_ = cell
        _check_positive("lambda", lam)
        breakpoints = [*mesh.tolist(), *kinks]
        if alpha >= 0.0:
            return lower, upper, breakpoints, 0.0
        # No polynomial rule converges on a singular power, so [lower,
        # lower + eps] is integrated as that power, f(lower + eps) eps/(alpha + 1):
        # the rest of the integrand is smooth there and moves by a relative
        # rate * eps < n 2^-52 across it.  A geometric mesh, ratio 4, leads
        # from eps up to the first quantile.
        eps = float(mesh[0] - lower) * _HEAD_SCALE
        return (lower + eps, upper,
                [*(lower + eps * 4.0 ** np.arange(1, 26)).tolist(), *breakpoints], eps)

    out = [c if isinstance(c, ExpunbiasError) else _attempt(start, c) for c in cells]
    live = [i for i, o in enumerate(out) if not isinstance(o, ExpunbiasError)]
    f = _row_integrand(phi, n, {i: cells[i][0] for i in live}, **integrand)
    if alpha < 0.0 and live:
        for i, v in zip(live, f(live, [np.array([out[i][0]]) for i in live])):
            out[i] = v if isinstance(v, ExpunbiasError) else \
                (*out[i][:3], float(v[0]) * out[i][3] / (alpha + 1.0))
        live = [i for i in live if not isinstance(out[i], ExpunbiasError)]
    results = gauss_kronrod_row(lambda active, xs: f([live[a] for a in active], xs),
                                [out[i][:3] for i in live], rel_tol=rel_tol)
    for i, result in zip(live, results):
        out[i] = result if isinstance(result, Exception) else (out[i][3] + result[0], result[1])
    return out


def _one(outcomes: list):
    # the one outcome of a row of one, raised if it is an error
    outcome, = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def expectation(estimator: Callable[[np.ndarray], np.ndarray], n: int, lam: float,
                rel_tol: float = 1e-9, *, kinks: Iterable[float] = (),
                tail_rate: Optional[float] = None) -> tuple[float, float]:
    """E[estimator(mean)] for mean ~ Gamma(n, n*lam), with an error estimate.

    The integral runs over [0, U], U the Gamma(n, rate) quantile at upper
    tail mass 1e-16.  The rate is n*lam, or ``tail_rate`` where the
    estimator grows like e^{c x} (MGF): there the integrand decays at rate
    n*lam - c, not n*lam.  The interval starts split at the Gamma(n, rate)
    quantiles at the normal scores -8..8, so the peak is resolved before any
    refinement, and at ``kinks``, points where the integrand is non-smooth
    (indicator boundaries).
    """
    rate = n * lam if tail_rate is None else float(tail_rate)
    return _one(_integrate_row(estimator, n, [(lam, _window(n, lam, rate, 0.0), kinks)], rel_tol))


def verify_row(spec: FunctionalSpec, n: int, family: Family, lams: Sequence[float],
               rel_tol: float = 1e-9) -> list[Union[VerificationReport, ExpunbiasError]]:
    """The family's estimator at n against its expectation at each rate of ``lams``.

    Returns per rate, in order, a :class:`VerificationReport` or the typed
    error that rate's cell raises alone; an estimator that does not build
    (the kind or n outside the family's domain) raises for the whole row.
    For the corrected family the target is ``target_value``, for the Tate
    family ``tate_expected_value`` (the *biased* expectation, so a small
    rel_bias there means the historical bias is reproduced exactly).  The
    estimator is built once, and every cell's quadrature rounds share one
    estimator call and one density call; each cell's numbers are those it
    gets alone.
    """
    est = _estimator(spec, n, family)
    n = int(n)
    # An estimator whose target has a real pole c > 0 grows like e^{n c mean},
    # so the integrand decays at rate n (lam - c) rather than n lam.
    pole = max(_CATALOGUE[spec.kind].pole(spec), 0.0)
    k = n + max(est.small_mean_power, 0)

    def cell(lam):
        # the window names a lambda whose cutoff leaves double range, so it
        # comes before the target; a window puts lam in (0, inf), which the
        # Tate expectation takes past the rules the build checked.  Past
        # exponent _SPLIT_EXPONENT the estimator is smooth enough at its
        # kinks for the mesh and the 15-point rule
        window = _window(k, lam, n * (lam - pole), est.support_start)
        target = (_tate_law(spec, n, float(lam)) if family is Family.TATE_BIASED
                  else target_value(spec, lam))
        splits = est.kinks(window[2]) if est.exponent <= _SPLIT_EXPONENT else []
        if pole > 0.0:  # and the density's own mesh, see the module docstring
            splits = [*splits, *_window(n, lam, n * lam, 0.0)[1].tolist()]
        return lam, window, splits, target

    cells = [_attempt(cell, lam) for lam in lams]
    # phi times the density x^(n-1) grows like x^(n - 1 + r) near a window's start at 0
    alpha = n - 1 + est.small_mean_power if est.support_start == 0.0 else 0.0
    results = _integrate_row(est.value, n, cells, rel_tol, alpha=alpha,
                             name=_estimate_name(spec, n, family), log_coef=est.log_coef,
                             r=est.small_mean_power)
    reports: list = []
    for lam, c, result in zip(lams, cells, results):
        if isinstance(result, Exception):
            reports.append(result)
            continue
        (value, err), expected = result, c[3]
        abs_bias = abs(value - expected)
        rel_bias = abs_bias / max(abs(expected), _REL_BIAS_FLOOR)
        reports.append(VerificationReport(spec, n, lam, value, expected, abs_bias, rel_bias,
                                          err, family))
    return reports


def verify_unbiasedness(spec: FunctionalSpec, n: int, lam: float,
                        rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the closed-form estimator vs its target."""
    return _one(verify_row(spec, n, Family.CLOSED_FORM_UNBIASED, [lam], rel_tol))


def verify_tate_bias(spec: FunctionalSpec, n: int, lam: float,
                     rel_tol: float = 1e-9) -> VerificationReport:
    """Quadrature expectation of the biased estimator vs Tate's law.

    The ``target`` field of the report is the *biased* expectation, so a
    small rel_bias here means the historical bias is reproduced exactly.
    """
    return _one(verify_row(spec, n, Family.TATE_BIASED, [lam], rel_tol))
