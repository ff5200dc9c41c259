"""pytest-benchmark cases for the Monte Carlo layer.

Every case calls a public entry point only, so the same file measures any
commit of the package:

    PYTHONPATH=src python -m pytest bench/test_bench_montecarlo.py \
        --benchmark-json=bench-montecarlo.json

``testpaths`` in pyproject.toml is ``tests``, so the plain test run does
not collect these cases.  Each op simulates 2**15 replications (two blocks)
at lambda = 1, except the ``_collect`` cases, which time the block loop
itself (Gamma(n) mean draws and the survival estimator) at 2 and 16 blocks;
blocks run on one thread per CPU, so report the core count with the
numbers.  The checks after the timed call keep a wrong answer from passing
as a fast one.
"""

import math

import pytest
from scipy import integrate, stats

from expunbias import cli
from expunbias.estimators import Family, FunctionalSpec, Kind, phi_function, target_value
from expunbias.montecarlo import (BLOCK_SIZE, McConfig, _collect, _draw_means, clt_check,
                                  empirical_bias)

REPS = 1 << 15
SEED = 20_251


def _check_unbiased(summary, spec):
    assert abs(summary.mean - target_value(spec, 1.0)) < 5.0 * summary.std_error


@pytest.mark.parametrize("n", [1, 2, 30, 200])
def test_empirical_bias_closed_form(benchmark, n):
    spec = FunctionalSpec(Kind.SURVIVAL, t=0.5)
    summary = benchmark(empirical_bias, spec, McConfig(REPS, n, 1.0, SEED))
    _check_unbiased(summary, spec)


def test_empirical_bias_mle_plugin(benchmark):
    spec = FunctionalSpec(Kind.SURVIVAL, t=0.5)
    summary = benchmark(empirical_bias, spec, McConfig(REPS, 30, 1.0, SEED),
                        Family.MLE_PLUGIN)
    # the plug-in exp(-t/mean) is biased; its expectation over mean ~ Gamma(30, 30)
    law = stats.gamma(30, scale=1.0 / 30)
    expected, _ = integrate.quad(lambda x: math.exp(-0.5 / x) * law.pdf(x), 0.0, math.inf)
    assert abs(summary.mean - expected) < 5.0 * summary.std_error


def test_clt_check(benchmark):
    spec = FunctionalSpec(Kind.MOMENT, p=1.0)
    summary = benchmark(clt_check, spec, McConfig(REPS, 200, 1.0, SEED))
    assert abs(summary.mean) < 5.0 * summary.std_error
    assert abs(summary.variance - 1.0) < 0.05
    assert math.isfinite(summary.ks_statistic)


def test_cli_clt_hist(benchmark, tmp_path):
    # the clt subcommand in process: draw, standardise, summarise, write both files
    out, hist = tmp_path / "out.json", tmp_path / "hist.csv"
    argv = ["clt", "--kind", "moment", "--p", "1", "--n", "200", "--lambda", "1",
            "--reps", str(REPS), "--seed", str(SEED), "--out", str(out), "--hist", str(hist)]
    assert benchmark(cli.main, argv) == 0
    counts = [int(row.split(",")[2]) for row in hist.read_text().splitlines()[1:]]
    assert sum(counts) == REPS


@pytest.mark.parametrize("n", [2, 30, 200])
@pytest.mark.parametrize("blocks", [2, 16])
def test_collect_means(benchmark, blocks, n):
    spec = FunctionalSpec(Kind.SURVIVAL, t=0.5)
    phi = phi_function(spec, n)
    config = McConfig(blocks * BLOCK_SIZE, n, 1.0, SEED)
    values, = benchmark(_collect, config, lambda xbar: (phi(xbar),), 1, _draw_means)
    std_error = math.sqrt(values.var(ddof=1) / values.size)
    assert abs(values.mean() - target_value(spec, 1.0)) < 5.0 * std_error
