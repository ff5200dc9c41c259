"""Reference values and the output checker.

Every reference here is computed without the package under test: targets
and Tate expectations are written out from the paper's tables, closed-form estimators are evaluated in mpmath at 50 digits, and
plug-in expectations are integrated with scipy against the Gamma(n, n*lam)
law of the sample mean.
"""

from __future__ import annotations

import csv
import json
import math
import os

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammaln

from workloads import KIND_PARAMS, ORACLE_LAMBDAS, Op

# an empirical mean may sit this many standard errors from its expectation
MC_SE_LIMIT = 5.0
# relative error allowed on an inversion against its closed form
INVERSION_REL_TOL = 1e-6


def target(kind: str, prm: dict, lam):
    """xi(lambda) of a catalogue kind; numpy-vectorised over ``lam``."""
    lam = np.asarray(lam, dtype=float)
    if kind == "rate-power":
        return lam ** prm["p"]
    if kind == "quantile":
        return -math.log1p(-prm["q"]) / lam
    if kind == "moment":
        return math.gamma(prm["p"] + 1.0) / lam ** prm["p"]
    if kind == "survival":
        return np.exp(-lam * prm["t"])
    if kind == "max-cdf-power":
        return (-np.expm1(-lam * prm["t"])) ** prm["m"]
    if kind == "min-survival":
        return np.exp(-lam * prm["m"] * prm["t"])
    if kind == "pdf":
        return lam * np.exp(-lam * prm["t"])
    if kind == "mean-past-lifetime":
        return prm["t"] / -np.expm1(-lam * prm["t"]) - 1.0 / lam
    if kind == "mgf":
        return lam / (lam - prm["t"])
    if kind == "expected-shortfall":
        return (-math.log1p(-prm["p"]) + 1.0) / lam
    raise ValueError(f"no target for {kind!r}")


def tate_expectation(kind: str, prm: dict, n: int, lam: float) -> float:
    """Exact expectation of the biased 1959 estimator (Tate's tables)."""
    if kind == "rate-power":
        return (1.0 - prm["p"] / (n - 1.0)) * lam ** prm["p"]
    if kind == "quantile":
        return n / (n - 1.0) * (-math.log1p(-prm["q"]) / lam)
    t, m = prm["t"], prm["m"]
    return (lam * m * t / ((n - 1.0) * (1.0 - math.exp(lam * t))) + 1.0) \
        * (-math.expm1(-lam * t)) ** m


def plugin_expectation(kind: str, prm: dict, n: int, lam: float) -> float:
    """E[xi(1/mean)] for mean ~ Gamma(n, n*lam), by adaptive quadrature."""
    rate = n * lam

    def integrand(x):
        logpdf = n * math.log(rate) + (n - 1) * math.log(x) - rate * x - gammaln(n)
        return float(target(kind, prm, 1.0 / x)) * math.exp(logpdf)

    mu, sd = 1.0 / lam, 1.0 / (lam * math.sqrt(n))
    lo, hi = max(mu - 14.0 * sd, 0.0), mu + 16.0 * sd
    value, _ = integrate.quad(integrand, lo, hi, points=[mu], limit=400,
                              epsabs=0.0, epsrel=1e-11)
    return value


def closed_form_estimate(kind: str, sample: list[float]) -> float:
    """The unbiased estimator at the sample mean, in 50-digit arithmetic.

    ``user-*`` is xi = lambda/(lambda+1), whose estimator is 1F1(1; n; -n*mean);
    the MGF estimator is 1F1(1; n; n*t*mean) by the same Kummer identity.
    """
    n = len(sample)
    with mp.workdps(50):
        x = mp.fsum(mp.mpf(v) for v in sample) / n
        if kind.startswith("user-"):
            return float(mp.hyp1f1(1, n, -n * x))
        prm = KIND_PARAMS[kind]
        if kind == "rate-power":
            p = mp.mpf(prm["p"])
            return float(mp.gamma(n) / (mp.mpf(n) ** p * mp.gamma(n - p)) * x ** -p)
        if kind == "quantile":
            return float(-mp.log1p(-mp.mpf(prm["q"])) * x)
        if kind == "moment":
            p = mp.mpf(prm["p"])
            return float(mp.gamma(p + 1) * mp.gamma(n) * mp.mpf(n) ** p / mp.gamma(p + n) * x ** p)
        if kind == "mgf":
            return float(mp.hyp1f1(1, n, n * mp.mpf(prm["t"]) * x))
        if kind == "expected-shortfall":
            return float((-mp.log1p(-mp.mpf(prm["p"])) + 1) * x)
    raise ValueError(f"no closed form for {kind!r}")


def verify_rows(op: Op) -> int:
    """Rows ``verify`` writes for one kind and n over the lambda grid."""
    if op.params["kind"] == "mgf":
        return sum(1 for lam in ORACLE_LAMBDAS if KIND_PARAMS["mgf"]["t"] < lam)
    return len(ORACLE_LAMBDAS)


def reference(op: Op, cache: dict):
    """The value the output of ``op`` is checked against."""
    p = op.params
    if op.call == "verify":
        return verify_rows(op)
    if op.call == "clt":
        return 0.0
    if op.call == "eb":
        prm = KIND_PARAMS[p["kind"]]
        if p["family"] == "closed":
            return float(target(p["kind"], prm, p["lam"]))
        if p["family"] == "tate":
            return tate_expectation(p["kind"], prm, p["n"], p["lam"])
        key = ("plugin", p["kind"], p["n"], p["lam"])
        if key not in cache:
            cache[key] = plugin_expectation(p["kind"], prm, p["n"], p["lam"])
        return cache[key]
    return closed_form_estimate(p["kind"], p["sample"])


def _within(mean: float, expected: float, se: float) -> bool:
    return abs(mean - expected) <= MC_SE_LIMIT * se


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check(op: Op, result, ref, tmp: str) -> str | None:
    """None if ``result`` is correct for ``op``, else why it is not."""
    p = op.params
    if op.call in ("verify", "clt"):
        if result != 0:
            return f"exit code {result}"
        with open(os.path.join(tmp, "out.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["results"]
    if op.call == "verify":
        if len(rows) != ref:
            return f"{len(rows)} rows, expected {ref}"
        if any(r["kind"] != p["kind"] or r["n"] != p["n"] for r in rows):
            return "rows for another kind or n"
        return None
    if op.call == "clt":
        row = rows[0]
        if row["replications"] != p["reps"]:
            return f"{row['replications']} replications, expected {p['reps']}"
        if not _within(row["mean"], ref, row["std_error"]):
            return f"mean z {row['mean']:.3g} beyond {MC_SE_LIMIT:g} SE of 0"
        with open(os.path.join(tmp, "hist.csv"), encoding="utf-8") as fh:
            total = sum(int(r["count"]) for r in csv.DictReader(fh))
        return None if total == p["reps"] else f"histogram holds {total} of {p['reps']}"
    if op.call == "eb":
        if result.replications != p["reps"]:
            return f"{result.replications} replications, expected {p['reps']}"
        if not _within(result.mean, ref, result.std_error):
            return f"mean {result.mean:.6g} beyond {MC_SE_LIMIT:g} SE of {ref:.6g}"
        return None
    err = _rel_err(result.value, ref)
    return None if err <= INVERSION_REL_TOL else f"relative error {err:.3g}"
