"""Acceptance suite.

One test per criterion; each prints a single [ACCEPTANCE] PASS/FAIL line and
asserts every cell of its grid at the stated tolerance.  Criterion 6 is
asserted exactly as stated even though its p = 2 cell conflicts with the
exact finite-n sampling law (see the failure message for the arithmetic).
"""

import math
import time

import numpy as np

from expunbias.cli import main
from expunbias.estimators import (FunctionalSpec, Kind,
                                  closed_form_variance_mle,
                                  closed_form_variance_unbiased, mgf, moment,
                                  quantile, rate_power,
                                  expected_shortfall, target_value)
from expunbias.laplace import (InversionConfig, InversionMethod,
                               builtin_transfer_function, generic_phi)
from expunbias.montecarlo import (McConfig, _collect, clt_check,
                                  empirical_bias, variance_comparison)
from expunbias.oracle import (tate_expected_value, verify_tate_bias,
                              verify_unbiasedness)
from expunbias.special import log_gamma

P_GRID = (-0.4, 0.5, 1.0, 2.0)          # -0.5 + eps with eps = 0.1
Q_GRID = (0.25, 0.5, 0.9)
T_GRID = (0.5, 1.0, 2.0)
M_GRID = (1, 2, 3)
N_GRID = (1, 2, 5, 10, 30)
LAM_GRID = (0.5, 1.0, 2.0)


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] criterion {num} ({title}): {status}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)


def _criterion1_cells():
    for n in N_GRID:
        for lam in LAM_GRID:
            for p in P_GRID:
                if p < n:
                    yield FunctionalSpec(Kind.RATE_POWER, p=p), n, lam
            for q in Q_GRID:
                yield FunctionalSpec(Kind.QUANTILE, q=q), n, lam
            for p in P_GRID:
                yield FunctionalSpec(Kind.MOMENT, p=p), n, lam
            for t in T_GRID:
                yield FunctionalSpec(Kind.SURVIVAL, t=t), n, lam
                for m in M_GRID:
                    yield FunctionalSpec(Kind.MAX_CDF_POWER, t=t, m=m), n, lam
                    yield FunctionalSpec(Kind.MIN_SURVIVAL, t=t, m=m), n, lam
                if n >= 2:
                    yield FunctionalSpec(Kind.PDF, t=t), n, lam
                yield FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=t), n, lam
                if t < lam:
                    yield FunctionalSpec(Kind.MGF, t=t), n, lam
            for q in Q_GRID:
                yield FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=q), n, lam


def test_criterion_1_oracle_unbiasedness_grid():
    started = time.perf_counter()
    failures = []
    cells = 0
    for spec, n, lam in _criterion1_cells():
        cells += 1
        report = verify_unbiasedness(spec, n, lam, rel_tol=1e-9)
        if not report.rel_bias < 1e-7:
            failures.append((spec.kind.value, spec.params(), n, lam,
                             report.rel_bias))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    detail = f"{len(failures)} of {cells} cells exceeded 1e-7; " \
             f"runtime {elapsed:.1f}s (budget 60s); first: {failures[:3]}"
    _report(1, "oracle unbiasedness grid", ok, detail)
    assert not failures, detail
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_tate_bias_reproduction():
    failures = []
    # quadrature expectation of the biased estimators vs their closed forms
    for n in (3, 5, 10):
        for lam in LAM_GRID:
            for p in (0.5, 1.0):
                if p < n - 1:
                    r = verify_tate_bias(FunctionalSpec(Kind.RATE_POWER, p=p), n, lam)
                    if not r.rel_bias < 1e-8:
                        failures.append(("rate-power", p, n, lam, r.rel_bias))
            for q in Q_GRID:
                r = verify_tate_bias(FunctionalSpec(Kind.QUANTILE, q=q), n, lam)
                if not r.rel_bias < 1e-8:
                    failures.append(("quantile", q, n, lam, r.rel_bias))
            for m in M_GRID:
                r = verify_tate_bias(
                    FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=m), n, lam)
                if not r.rel_bias < 1e-8:
                    failures.append(("max-cdf-power", m, n, lam, r.rel_bias))
    # the quantile factor is exactly n/(n-1) and the rate-power expectation
    # exactly (1 - p/(n-1)) lambda^p
    for n in (2, 3, 10):
        spec = FunctionalSpec(Kind.QUANTILE, q=0.5)
        ratio = tate_expected_value(spec, n, 1.0) / target_value(spec, 1.0)
        if abs(ratio - n / (n - 1.0)) > 1e-12:
            failures.append(("quantile-factor", n, ratio))
    for n, p, lam in ((3, 1.0, 2.0), (5, 0.5, 1.0), (10, 1.0, 0.5)):
        got = tate_expected_value(FunctionalSpec(Kind.RATE_POWER, p=p), n, lam)
        want = (1.0 - p / (n - 1.0)) * lam ** p
        if abs(got - want) > 1e-12 * abs(want):
            failures.append(("rate-power-form", n, p, lam))
    ok = not failures
    _report(2, "Tate correction reproduction", ok, f"failures: {failures[:3]}")
    assert ok, failures


def _sample_variance(values: np.ndarray) -> float:
    centered = values - values.mean()
    return float(np.sum(centered ** 2)) / (values.size - 1)


def _central_from_raw(raw: list[float]) -> tuple[float, float]:
    """(mu2, mu4) from the first four raw moments."""
    m1, m2, m3, m4 = raw
    mu2 = m2 - m1 ** 2
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 ** 2 * m2 - 3.0 * m1 ** 4
    return mu2, mu4


def _se_of_variance(mu2: float, mu4: float, r: int) -> float:
    # Var(s^2) = (mu4 - sigma^4 (r-3)/(r-1)) / r
    return math.sqrt(max(mu4 - mu2 * mu2 * (r - 3.0) / (r - 1.0), 0.0) / r)


def _exact_se_unbiased(p: float, n: int, lam: float, r: int) -> float:
    """Exact SE of the MC variance of the unbiased estimator c*mean^p,
    from Gamma(n, n lam) moments.  Infinite when n + 4p <= 0."""
    if n + 4.0 * p <= 0.0:
        return math.inf
    log_c = (log_gamma(p + 1.0) + log_gamma(n) + p * math.log(n)
             - log_gamma(p + n))
    raw = [math.exp(k * log_c + log_gamma(n + k * p) - log_gamma(n)
                    - k * p * math.log(n * lam)) for k in (1, 2, 3, 4)]
    mu2, mu4 = _central_from_raw(raw)
    return _se_of_variance(mu2, mu4, r)


def _exact_se_mle(p: float, n: int, lam: float, r: int) -> float:
    """Exact SE of the MC variance of (1/n) sum X_i^p.

    E[X^{4p}] diverges for 4p <= -1, so for p in {-0.4, -0.25} this SE is
    genuinely infinite and the 4-SE acceptance band is vacuous there.
    """
    if 4.0 * p <= -1.0:
        return math.inf
    raw_y = [math.exp(log_gamma(k * p + 1.0) - k * p * math.log(lam))
             for k in (1, 2, 3, 4)]
    mu2_y, mu4_y = _central_from_raw(raw_y)
    mu2 = mu2_y / n
    mu4 = (mu4_y + 3.0 * (n - 1.0) * mu2_y ** 2) / n ** 3
    return _se_of_variance(mu2, mu4, r)


def test_criterion_3_variance_dominance_and_monte_carlo():
    reps = 10 ** 6
    failures = []
    vacuous = []
    seed = 20_000
    for p in (-0.4, -0.25, 0.5, 1.5, 2.0, 3.0):
        for n in (2, 5, 10, 30):
            for lam in LAM_GRID:
                cu = closed_form_variance_unbiased(p, n, lam)
                cm = closed_form_variance_mle(p, n, lam)
                if not cu < cm:
                    failures.append(("dominance", p, n, lam, cu, cm))
                seed += 1
                cfg = McConfig(reps, n, lam, seed)
                coef = math.exp(log_gamma(p + 1.0) + log_gamma(n)
                                + p * math.log(n) - log_gamma(p + n))

                def stats(x, coef=coef, p=p):
                    xbar = x.mean(axis=1)
                    return coef * xbar ** p, np.mean(x ** p, axis=1)

                u_vals, m_vals = _collect(cfg, stats, 2)
                s2u = _sample_variance(u_vals)
                s2m = _sample_variance(m_vals)
                seu = _exact_se_unbiased(p, n, lam, reps)
                sem = _exact_se_mle(p, n, lam, reps)
                if abs(s2u - cu) > 4.0 * seu:
                    failures.append(("mc-unbiased", p, n, lam, s2u, cu, seu))
                if math.isinf(sem):
                    # the MLE estimator has no fourth moment here; the 4-SE
                    # band covers everything, so record rather than compare
                    vacuous.append(("mc-mle", p, n, lam))
                elif abs(s2m - cm) > 4.0 * sem:
                    failures.append(("mc-mle", p, n, lam, s2m, cm, sem))
    # documented equality at p = 1
    for n in (2, 5, 10, 30):
        for lam in LAM_GRID:
            cu = closed_form_variance_unbiased(1.0, n, lam)
            cm = closed_form_variance_mle(1.0, n, lam)
            if abs(cu - cm) > 1e-12 * cm:
                failures.append(("equality-p1", n, lam, cu, cm))
    # the public comparison op wires the same quantities together
    emp_u, emp_m, cu, cm = variance_comparison(2.0, McConfig(10 ** 5, 5, 1.0, 7))
    if not (abs(cu - 52.0 / 15.0) < 1e-10 and abs(cm - 4.0) < 1e-10):
        failures.append(("wiring", cu, cm))
    ok = not failures
    _report(3, "variance dominance + Monte Carlo", ok, f"failures: {failures[:3]}")
    if vacuous:
        print(f"    note: {len(vacuous)} MLE cells (p in {{-0.4, -0.25}}) have "
              "an infinite variance-of-variance (no fourth moment of X^p); "
              "their 4-SE band is vacuous and they are recorded, not compared")
    assert ok, failures


def _criterion4_cases():
    for n in (2, 5, 10):
        for p in (0.5, 1.0, 2.0):
            if p < n:
                yield FunctionalSpec(Kind.RATE_POWER, p=p), n, \
                    lambda xb, n=n, p=p: rate_power(xb, n, p)
        yield FunctionalSpec(Kind.QUANTILE, q=0.5), n, \
            lambda xb: quantile(xb, 0.5)
        for p in (0.5, 1.0, 2.0):
            yield FunctionalSpec(Kind.MOMENT, p=p), n, \
                lambda xb, n=n, p=p: moment(xb, n, p)
        for t in (-0.5, 0.1, 0.5):
            yield FunctionalSpec(Kind.MGF, t=t), n, \
                lambda xb, n=n, t=t: mgf(xb, n, t)
        yield FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5), n, \
            lambda xb: expected_shortfall(xb, 0.5)


def test_criterion_4_generic_engine_equivalence():
    gs_cfg = InversionConfig(method=InversionMethod.GAVER_STEHFEST)
    talbot_cfg = InversionConfig(method=InversionMethod.TALBOT)
    failures = []
    cells = 0
    for spec, n, closed in _criterion4_cases():
        xi = builtin_transfer_function(spec)
        phi_gs = generic_phi(xi, n, gs_cfg)
        phi_tb = generic_phi(xi, n, talbot_cfg)
        for xbar in (0.5, 1.0, 2.0):
            cells += 1
            ref = closed(xbar)
            gs = phi_gs(xbar)
            tb = phi_tb(xbar)
            scale = max(abs(ref), 1e-300)
            if abs(gs - ref) / scale > 1e-6:
                failures.append(("gs-vs-closed", spec.kind.value, spec.params(),
                                 n, xbar, abs(gs - ref) / scale))
            if abs(tb - ref) / scale > 1e-6:
                failures.append(("talbot-vs-closed", spec.kind.value,
                                 spec.params(), n, xbar, abs(tb - ref) / scale))
            if abs(gs - tb) / max(abs(tb), 1e-300) > 1e-6:
                failures.append(("gs-vs-talbot", spec.kind.value, spec.params(),
                                 n, xbar, abs(gs - tb) / max(abs(tb), 1e-300)))
    ok = not failures
    _report(4, "generic-engine equivalence", ok,
            f"{len(failures)} of {cells} points failed; first: {failures[:3]}")
    assert ok, failures[:10]


_C5_SPECS = (
    FunctionalSpec(Kind.RATE_POWER, p=0.5),
    FunctionalSpec(Kind.QUANTILE, q=0.5),
    FunctionalSpec(Kind.MOMENT, p=2.0),
    FunctionalSpec(Kind.SURVIVAL, t=1.0),
    FunctionalSpec(Kind.MAX_CDF_POWER, t=1.0, m=2),
    FunctionalSpec(Kind.MIN_SURVIVAL, t=1.0, m=2),
    FunctionalSpec(Kind.PDF, t=1.0),
    FunctionalSpec(Kind.MEAN_PAST_LIFETIME, t=1.0),
    FunctionalSpec(Kind.MGF, t=0.1),
    FunctionalSpec(Kind.EXPECTED_SHORTFALL, p=0.5),
)


def test_criterion_5_monte_carlo_unbiasedness():
    started = time.perf_counter()
    reps = 10 ** 6
    lam = 1.0
    failures = []
    seed = 50_000
    for spec in _C5_SPECS:
        for n in (2, 10):
            seed += 1
            summary = empirical_bias(spec, McConfig(reps, n, lam, seed))
            target = target_value(spec, lam)
            dev = abs(summary.mean - target)
            if dev > 4.0 * summary.std_error:
                failures.append((spec.kind.value, spec.params(), n,
                                 summary.mean, target, dev / summary.std_error))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 300.0
    _report(5, "Monte Carlo unbiasedness", ok,
            f"failures: {failures[:3]}; runtime {elapsed:.0f}s (budget 300s)")
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_6_clt_normality():
    cells = (
        FunctionalSpec(Kind.MOMENT, p=1.0),
        FunctionalSpec(Kind.MOMENT, p=2.0),
        FunctionalSpec(Kind.QUANTILE, q=0.5),
    )
    failures = []
    for i, spec in enumerate(cells):
        summary = clt_check(spec, McConfig(10 ** 5, 200, 1.0, 60_000 + i))
        skew, _ = summary.standardized_moments
        if not (summary.ks_statistic < 0.015 and abs(skew) < 0.25):
            failures.append((spec.kind.value, spec.params(),
                             round(summary.ks_statistic, 4), round(skew, 4)))
    ok = not failures
    _report(6, "CLT normality bounds", ok,
            f"cells over bounds (kind, params, ks, skew): {failures}; "
            "the exact sampling law of the p=2 moment estimator at n=200 has "
            "skewness 5/sqrt(n)+O(1/n) = 0.3547 and normal-CDF distance "
            "0.0235, so the stated 0.25/0.015 bounds are not attainable "
            "for that cell")
    assert ok, (
        f"cells exceeding the stated bounds: {failures}. The p=2 cell fails "
        "by exact mathematics, not by implementation: phi = c*mean^2 with "
        "mean ~ Gamma(200, 200*lam) has skewness 0.3547 > 0.25 and KS "
        "distance to the normal 0.0235 > 0.015; any faithful implementation "
        "reproduces these values."
    )


def test_criterion_7_determinism(tmp_path):
    failures = []
    # byte-identical CLI reruns with identical manifests
    pairs = [
        ["verify", "--kinds", "quantile,survival", "--n", "2,5",
         "--lambda", "1.0"],
        ["compare", "--p", "2", "--n", "5", "--lambda", "1",
         "--reps", "50000", "--seed", "17"],
        ["clt", "--kind", "moment", "--p", "1", "--n", "50", "--lambda", "1",
         "--reps", "20000", "--seed", "23"],
    ]
    for i, args in enumerate(pairs):
        a = tmp_path / f"run{i}_a.json"
        b = tmp_path / f"run{i}_b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            failures.append(("rerun", args[0]))
    ok = not failures
    _report(7, "determinism", ok, f"failures: {failures}")
    assert ok, failures
