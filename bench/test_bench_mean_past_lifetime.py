"""pytest-benchmark cases for the mean-past-lifetime estimator.

    PYTHONPATH=src python -m pytest bench/test_bench_mean_past_lifetime.py \
        --benchmark-json=bench-mpl.json

The first case evaluates the estimator on 2^15 Gamma(n, n) means at
t = 0.5, the shape in which a Monte Carlo run (lambda = 1) hands it one
block of replicate means.  The second runs whole oracle cells at
t = 0.05, lambda = 0.05 for n = 1..7, once each: there the oracle splits at
every kink tk/n below its cutoff (about 17,000 of them), so the cost of one
point of the estimator, times about 250,000 points per call, sets the cell's
time.  Each timed call is followed by a check against a 50-digit mpmath sum,
so that a wrong answer cannot pass as a fast one.
"""

import mpmath as mp
import numpy as np
import pytest

from expunbias.estimators import FunctionalSpec, Kind, mean_past_lifetime
from expunbias.oracle import verify_unbiasedness


def _reference(x, n, t):
    # the defining sum in 50 digits, the indicator x >= tk/n in double
    with mp.workdps(50):
        xm, total, k = mp.mpf(x), mp.mpf(0), 0
        while x >= t * k / n:
            term = (1 - mp.mpf(t) * k / (n * xm)) ** (n - 1)
            total += term
            if n > 1 and term < mp.mpf(10) ** -40 * total:
                break
            k += 1
        return float(t * total - xm)


@pytest.mark.parametrize("n", [2, 30, 200])
def test_mean_past_lifetime_monte_carlo_block(benchmark, n):
    t = 0.5
    xs = np.random.default_rng(n).gamma(n, 1.0 / n, 1 << 15)
    out = benchmark(mean_past_lifetime, xs, n, t)
    for i in range(0, xs.size, 4099):
        assert out[i] == pytest.approx(_reference(float(xs[i]), n, t), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n", range(1, 8))
def test_verify_mean_past_lifetime_small_lambda_t(benchmark, n):
    spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.05)
    report = benchmark.pedantic(verify_unbiasedness, args=(spec, n, 0.05), rounds=1)
    assert report.rel_bias < 1e-9
