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
complex evaluator and stops at 32 at n = 5.  ``test_gaver_stehfest_point``
runs the rate power, the quantile and the expected shortfall at n = 5, so
that each smooth built-in has a Gaver-Stehfest case.  The MGF case sums on the
abscissae shifted right of its pole (sigma > 0), the one path that still
divides by s^n at every abscissa.  The float-only transform answers in
double precision, so its ladder stops at order 20.  The Talbot cases run
the saddle-centred contour ("talbot", the complex engine): the moment at
n = 5 through ``generic_unbiased_estimate``, the user transform with a
complex evaluator (the default engine for it) at n = 20, and one contour
point, a built estimator called on one mean, at n = 2, 20 and 200 (past
n = 32 the fixed Talbot contour of earlier versions raised
``InversionError``, so n = 200 fails there).  ``test_generic_estimate_op``
times one whole op of the ``inversion`` workload of ``perfbench``, the
moment p = 2 at n = 5 on either engine: the spec, its transfer function,
the config, the ``Sample`` and the estimate, all built per call as
``perfbench/workloads.run_op`` builds them; ``test_sample`` times the
sample's validation and mean alone, at n = 5 and 2,000.  The last case is
the mean-past-lifetime estimator on one point, as the CLI ``estimate``
command calls it.  The checks after each timed call keep a wrong answer
from passing as a fast one.
"""

import mpmath as mp
import numpy as np
import pytest

from expunbias.estimators import (FunctionalSpec, Kind, Sample, expected_shortfall,
                                  mean_past_lifetime, mgf, moment, quantile, rate_power)
from expunbias.laplace import (InversionConfig, InversionMethod, TransferFunction,
                               builtin_transfer_function, generic_phi,
                               generic_unbiased_estimate)

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


# the other unshifted built-ins, each one point at n = 5, against its closed form
GS_POINTS = {
    "rate-power": (FunctionalSpec(Kind.RATE_POWER, p=0.5), lambda x, n: rate_power(x, n, 0.5)),
    "quantile": (FunctionalSpec(Kind.QUANTILE, q=0.5), lambda x, n: quantile(x, 0.5)),
    "expected-shortfall": (FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
                           lambda x, n: expected_shortfall(x, 0.5)),
}


@pytest.mark.parametrize("kind", sorted(GS_POINTS))
def test_gaver_stehfest_point(benchmark, kind):
    n = 5
    spec, closed = GS_POINTS[kind]
    sample = _sample(n)
    xi = builtin_transfer_function(spec)
    res = benchmark(generic_unbiased_estimate, xi, sample, GS, spec)
    assert res.value == pytest.approx(closed(sample.mean, n), rel=1e-9)


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


@pytest.mark.parametrize("n", [2, 20, 200])
def test_contour_point(benchmark, n):
    phi = generic_phi(builtin_transfer_function(MOMENT), n, TALBOT)
    value = benchmark(phi, 1.3)
    assert value == pytest.approx(moment(1.3, n, 0.5), rel=1e-12)


def test_talbot_user_complex(benchmark):
    n = 20
    sample = _sample(n)
    user = lambda lam: lam / (lam + 1.0)
    xi = TransferFunction(eval_real=user, eval_complex=user)
    res = benchmark(generic_unbiased_estimate, xi, sample)
    assert res.value == pytest.approx(_user_real_reference(sample.mean, n), rel=1e-9)


@pytest.mark.parametrize("method", ["talbot", "gaver-stehfest"])
def test_generic_estimate_op(benchmark, method):
    n = 5
    sample = _sample(n)
    obs = list(sample.observations)

    def op():
        spec = FunctionalSpec(Kind.MOMENT, p=2.0)
        return generic_unbiased_estimate(builtin_transfer_function(spec), Sample(obs),
                                         InversionConfig(method=InversionMethod(method)),
                                         spec=spec)
    res = benchmark(op)
    assert res.value == pytest.approx(moment(sample.mean, n, 2.0), rel=1e-9)


@pytest.mark.parametrize("n", [5, 2000])
def test_sample(benchmark, n):
    obs = list(_sample(n).observations)
    sample = benchmark(Sample, obs)
    assert sample.n == n and sample.mean == float(np.mean(obs))


def test_mean_past_lifetime_one_point(benchmark):
    n, t, x = 200, 0.5, 1.0
    out = benchmark(mean_past_lifetime, x, n, t)
    total, k = 0.0, 0
    while x >= t * k / n:
        total += (1.0 - t * k / (n * x)) ** (n - 1)
        k += 1
    assert out == pytest.approx(t * total - x, rel=1e-12)
