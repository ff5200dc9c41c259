"""pytest-benchmark cases for one oracle cell and the estimator it integrates.

Every case calls a public entry point only, so the same file measures any
commit of the package:

    PYTHONPATH=src python -m pytest bench/test_bench_oracle.py \
        --benchmark-json=bench-oracle.json

``testpaths`` in pyproject.toml is ``tests``, so the plain test run does
not collect these cases.  The mean-past-lifetime estimator is the costliest
integrand of the catalogue: the first case evaluates it on as many points as
one quadrature call at n = 200 hands it, the next three run whole oracle
cells (the last of them at t = 0.05, with about 50,000 kinks tk/n below the
cutoff, once: an oracle that splits at each of them takes seconds), and the
last runs a cheap ``verify`` through the CLI, where argument parsing is a
visible share of the op.  The checks after each timed call
keep a wrong answer from passing as a fast one.
"""

import json

import numpy as np
import pytest
from scipy import stats

from expunbias import cli
from expunbias.estimators import FunctionalSpec, Kind, mean_past_lifetime
from expunbias.oracle import verify_unbiasedness

T = 0.5
LAM = 0.5


def _loop_reference(x, n, t):
    # the defining sum term by term, for a handful of points
    total, k = 0.0, 0
    while x >= t * k / n:
        total += (1.0 - t * k / (n * x)) ** (n - 1)
        k += 1
    return t * total - x


def test_mean_past_lifetime_points(benchmark):
    n = 200
    # 20k points spread over the support the oracle integrates at lambda = 0.5
    upper = stats.gamma.isf(1e-16, n, scale=1.0 / (n * LAM))
    xs = np.linspace(upper / 20_000, upper, 20_000)
    out = benchmark(mean_past_lifetime, xs, n, T)
    for i in (0, 4_999, 9_999, 19_999):
        assert out[i] == pytest.approx(_loop_reference(float(xs[i]), n, T), rel=1e-10)


@pytest.mark.parametrize("n", [30, 200])
def test_verify_mean_past_lifetime(benchmark, n):
    spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=T)
    report = benchmark(verify_unbiasedness, spec, n, LAM)
    assert report.rel_bias < 1e-9


def test_verify_mean_past_lifetime_dense_kinks(benchmark):
    spec = FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=0.05)
    report = benchmark.pedantic(verify_unbiasedness, args=(spec, 1000, LAM), rounds=1)
    assert report.rel_bias < 1e-9


def test_cli_verify_cheap_cell(benchmark, tmp_path):
    out = tmp_path / "verify.json"
    argv = ["verify", "--kinds", "quantile", "--n", "5", "--lambda", "1.0",
            "--out", str(out)]
    assert benchmark(cli.main, argv) == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 1 and rows[0]["rel_bias"] < 1e-9
