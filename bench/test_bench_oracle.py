"""pytest-benchmark cases for one oracle cell and the estimator it integrates.

Every case calls a public entry point only, so the same file measures any
commit of the package:

    PYTHONPATH=src python -m pytest bench/test_bench_oracle.py \
        --benchmark-json=bench-oracle.json

``testpaths`` in pyproject.toml is ``tests``, so the plain test run does
not collect these cases.  The first case evaluates the mean-past-lifetime
estimator on as many points as one quadrature call at n = 200 hands it, the
next three run whole oracle cells of it (the last of them at t = 0.05, with about 50,000 kinks tk/n below the
cutoff, once: an oracle that splits at each of them takes seconds), the
next runs a cheap ``verify`` through the CLI, where argument parsing is a
visible share of the op, the next two certify one three-rate row of the
moment estimator, through the CLI and in process (one ``verify_row`` call
where the package has it, one ``verify_unbiasedness`` call per rate
before), and the last two time Tate's expectation at one rate and a
three-rate 1959 row in process for the rate power, the quantile and
max-cdf-power, so the cost of that expectation per cell is on record.  The
checks after each timed call keep a wrong answer from passing as a fast
one.
"""

import json

import numpy as np
import pytest
from scipy import stats

from expunbias import cli, oracle
from expunbias.estimators import (Family, FunctionalSpec, Kind, mean_past_lifetime,
                                  tate_expected_value, target_value)
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


ROW_LAMS = [0.5, 1.0, 2.0]


def test_cli_verify_row(benchmark, tmp_path):
    out = tmp_path / "verify.json"
    argv = ["verify", "--kinds", "moment", "--n", "30", "--lambda", "0.5,1,2",
            "--out", str(out)]
    assert benchmark(cli.main, argv) == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 3 and all(row["rel_bias"] < 1e-9 for row in rows)


def _verify_row(spec, n, lams):
    row = getattr(oracle, "verify_row", None)
    if row is None:
        return [verify_unbiasedness(spec, n, lam) for lam in lams]
    return row(spec, n, Family.CLOSED_FORM_UNBIASED, lams)


def test_verify_row_in_process(benchmark):
    spec = FunctionalSpec(Kind.MOMENT, p=2.0)
    reports = benchmark(_verify_row, spec, 30, ROW_LAMS)
    assert [r.lam for r in reports] == ROW_LAMS
    assert all(r.rel_bias < 1e-9 for r in reports)


TATE_SPECS = [FunctionalSpec(Kind.RATE_POWER, p=0.5), FunctionalSpec(Kind.QUANTILE, q=0.5),
              FunctionalSpec(Kind.MAX_CDF_POWER, t=0.5, m=2)]


@pytest.mark.parametrize("spec", TATE_SPECS, ids=lambda s: s.kind.value)
def test_tate_expected_value(benchmark, spec):
    # off the target by the 1959 bias: (1 - p/(n-1)) lam^p, n/(n-1) times the
    # quantile, and for max-cdf-power at lam t = 1 below it
    value = benchmark(tate_expected_value, spec, 30, 2.0)
    factor = {Kind.RATE_POWER: 1.0 - 0.5 / 29, Kind.QUANTILE: 30 / 29}.get(spec.kind)
    if factor is not None:
        assert value == pytest.approx(factor * target_value(spec, 2.0), rel=1e-14)
    else:
        assert 0.0 < value < target_value(spec, 2.0)


@pytest.mark.parametrize("spec", TATE_SPECS, ids=lambda s: s.kind.value)
def test_verify_tate_row_in_process(benchmark, spec):
    reports = benchmark(oracle.verify_row, spec, 30, Family.TATE_BIASED, ROW_LAMS)
    assert [r.lam for r in reports] == ROW_LAMS
    assert all(r.rel_bias < 1e-9 for r in reports)
