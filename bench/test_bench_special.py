"""pytest-benchmark cases for the gamma-function kernel: the MGF estimator,
one moment coefficient and two oracle cells whose cost is mostly the mean's
density.

Every case calls a public entry point only, so the same file measures any
commit of the package:

    PYTHONPATH=src python -m pytest bench/test_bench_special.py \
        --benchmark-json=bench-special.json

``testpaths`` in pyproject.toml is ``tests``, so the plain test run does
not collect these cases.  The MGF runs at n = 5 and at n = 171, the
largest n whose (n-1)! is finite in double precision, on one point and on
16,384 means drawn from their Gamma(n, n) law, with t = 0.5.  The checks
after each timed call keep a wrong answer from passing as a fast one.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from expunbias.estimators import FunctionalSpec, Kind, mgf, moment
from expunbias.oracle import verify_unbiasedness

T = 0.5


def _mgf_reference(x, n):
    with mp.workdps(40):
        return float(mp.hyp1f1(1, n, n * mp.mpf(T) * mp.mpf(x)))


@pytest.mark.parametrize("n", [5, 171])
def test_mgf_one_point(benchmark, n):
    x = 1.3
    out = benchmark(mgf, x, n, T)
    assert out == pytest.approx(_mgf_reference(x, n), rel=1e-9)


@pytest.mark.parametrize("n", [5, 171])
def test_mgf_16384_points(benchmark, n):
    xs = np.random.default_rng(n).gamma(n, 1.0 / n, 16_384)
    out = benchmark(mgf, xs, n, T)
    assert out.shape == xs.shape and np.all(np.isfinite(out))
    for i in range(0, xs.size, 1024):
        assert out[i] == pytest.approx(_mgf_reference(xs[i], n), rel=1e-9)


def test_moment_one_call(benchmark):
    x, n, p = 1.3, 30, 0.5
    out = benchmark(moment, x, n, p)
    with mp.workdps(40):
        ref = mp.gamma(p + 1) * mp.gamma(n) * mp.mpf(n) ** p / mp.gamma(n + mp.mpf(p)) \
            * mp.mpf(x) ** p
    assert out == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("spec,n", [(FunctionalSpec(Kind.MGF, t=T), 30),
                                    (FunctionalSpec(Kind.QUANTILE, q=0.5), 1000)],
                         ids=["mgf-n30", "quantile-n1000"])
def test_verify_cell(benchmark, spec, n):
    rep = benchmark(verify_unbiasedness, spec, n, 1.0)
    assert rep.rel_bias < 1e-9 and math.isfinite(rep.oracle_expectation)
