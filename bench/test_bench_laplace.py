"""pytest-benchmark cases for one inversion point and one single-point
estimate.

Every case calls a public entry point only, so the same file measures any
commit of the package:

    PYTHONPATH=src python -m pytest bench/test_bench_laplace.py \
        --benchmark-json=bench-laplace.json

``testpaths`` in pyproject.toml is ``tests``, so the plain test run does
not collect these cases.  The Gaver-Stehfest cases run the escalating order
ladder of the generic estimator: the moment stops at order 26 at n = 2 and
climbs to the top order, 40, at n = 10; the real-only user transform has no
complex evaluator and stops at 32 at n = 5.  The MGF case sums on the
abscissae shifted right of its pole (sigma > 0), the one path that still
divides by s^n at every abscissa.  The float-only transform answers in
double precision, so its ladder stops at order 20.  The Talbot cases sum
the fixed 32-node contour: the moment at n = 5, and the user transform
with a complex evaluator (the default engine for it) at n = 20, the
largest n of the ``inversion`` workload.  The last case is the
mean-past-lifetime estimator on one point, as the CLI ``estimate`` command
and the finite-difference check of ``asymptotic_variance`` call it.  The
checks after each timed call keep a wrong answer from passing as a fast one.
"""

import mpmath as mp
import numpy as np
import pytest

from expunbias.estimators import (FunctionalSpec, Kind, Sample, mean_past_lifetime, mgf,
                                  moment)
from expunbias.laplace import (InversionConfig, InversionMethod, TransferFunction,
                               builtin_transfer_function, generic_unbiased_estimate)

GS = InversionConfig(method=InversionMethod.GAVER_STEHFEST)
TALBOT = InversionConfig(method=InversionMethod.TALBOT)
MOMENT = FunctionalSpec(Kind.MOMENT, p=0.5)


def _sample(n):
    return Sample([float(v) for v in np.random.default_rng(n).exponential(1.0, n)])


def _user_real_reference(x, n):
    # xi = lam/(lam + 1): invL{ xi(s/n)/s^n } = invL{ 1/(s^(n-1) (s + n)) },
    # the convolution of e^{-n u} with u^(n-2)/(n-2)!
    with mp.workdps(30):
        inner = mp.quad(lambda u: mp.exp(-n * u) * (x - u) ** (n - 2), [0, x])
        return float(mp.gamma(n) / mp.factorial(n - 2) * inner / mp.mpf(x) ** (n - 1))


@pytest.mark.parametrize("n", [2, 10])
def test_gaver_stehfest_moment(benchmark, n):
    sample = _sample(n)
    xi = builtin_transfer_function(MOMENT)
    res = benchmark(generic_unbiased_estimate, xi, sample, GS, MOMENT)
    assert res.value == pytest.approx(moment(sample.mean, n, 0.5), rel=1e-9)


def test_gaver_stehfest_user_real(benchmark):
    n = 5
    sample = _sample(n)
    xi = TransferFunction(eval_real=lambda lam: lam / (lam + 1.0))
    res = benchmark(generic_unbiased_estimate, xi, sample)
    assert res.value == pytest.approx(_user_real_reference(sample.mean, n), rel=1e-9)


def test_gaver_stehfest_mgf_shifted(benchmark):
    n, spec = 5, FunctionalSpec(Kind.MGF, t=0.5)
    sample = _sample(n)
    xi = builtin_transfer_function(spec)
    res = benchmark(generic_unbiased_estimate, xi, sample, GS, spec)
    assert res.value == pytest.approx(mgf(sample.mean, n, 0.5), rel=1e-9)


def test_gaver_stehfest_float_only(benchmark):
    n = 5
    sample = _sample(n)
    xi = TransferFunction(eval_real=lambda lam: float(lam / (lam + 1.0)))
    res = benchmark(generic_unbiased_estimate, xi, sample)
    assert res.value == pytest.approx(_user_real_reference(sample.mean, n), rel=1e-5)


def test_talbot_moment(benchmark):
    n = 5
    sample = _sample(n)
    xi = builtin_transfer_function(MOMENT)
    res = benchmark(generic_unbiased_estimate, xi, sample, TALBOT, MOMENT)
    assert res.value == pytest.approx(moment(sample.mean, n, 0.5), rel=1e-9)


def test_talbot_user_complex(benchmark):
    n = 20
    sample = _sample(n)
    user = lambda lam: lam / (lam + 1.0)
    xi = TransferFunction(eval_real=user, eval_complex=user)
    res = benchmark(generic_unbiased_estimate, xi, sample)
    assert res.value == pytest.approx(_user_real_reference(sample.mean, n), rel=1e-9)


def test_mean_past_lifetime_one_point(benchmark):
    n, t, x = 200, 0.5, 1.0
    out = benchmark(mean_past_lifetime, x, n, t)
    total, k = 0.0, 0
    while x >= t * k / n:
        total += (1.0 - t * k / (n * x)) ** (n - 1)
        k += 1
    assert out == pytest.approx(t * total - x, rel=1e-12)
