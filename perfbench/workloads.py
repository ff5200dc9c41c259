"""Seeded op lists for the three benchmark workloads, and the code that runs one op.

An op is one call a user makes through a public entry point of the package:
``cli.main`` in process, ``montecarlo.empirical_bias`` or
``laplace.generic_unbiased_estimate``.  Every call goes through the module
attribute at call time, so the tracer can wrap those attributes without the
op code knowing.

Each workload builds one *round* of ops; the timed loop repeats whole rounds,
so every run holds each op class in the same share.  The seed only makes the
inputs: Monte Carlo seeds and the samples fed to the inversion engine.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from expunbias import cli, laplace, montecarlo
from expunbias.estimators import Family, FunctionalSpec, Kind, Sample
from expunbias.laplace import InversionConfig, InversionMethod, TransferFunction
from expunbias.montecarlo import McConfig

WORKLOADS = ("oracle-grid", "mc-xbar", "inversion")

# Parameters of each kind at the ``verify`` subcommand's defaults.
KIND_PARAMS = {
    "rate-power": {"p": 0.5},
    "quantile": {"q": 0.5},
    "moment": {"p": 2.0},
    "survival": {"t": 0.5},
    "max-cdf-power": {"t": 0.5, "m": 2},
    "min-survival": {"t": 0.5, "m": 2},
    "pdf": {"t": 0.5},
    "mean-past-lifetime": {"t": 0.5},
    "mgf": {"t": 0.5},
    "expected-shortfall": {"p": 0.5},
}
KINDS = tuple(KIND_PARAMS)
TATE_KINDS = ("rate-power", "quantile", "max-cdf-power")
# The MGF plug-in lam_hat/(lam_hat - t) is undefined whenever lam_hat <= t,
# which has positive probability at every n, so its expectation is infinite
# and no reference exists.  The moment kind's plug-in is the one the
# ``compare`` subcommand measures, which is not in the op mix.
MLE_KINDS = tuple(k for k in KINDS if k not in ("moment", "mgf"))
# (kind, params) pairs of the ``clt`` ops
CLT_SPECS = (("moment", {"p": 1.0}), ("rate-power", {"p": 0.5}), ("survival", {"t": 0.5}))
SMOOTH_KINDS = ("rate-power", "quantile", "moment", "mgf", "expected-shortfall")

ORACLE_N = (2, 5, 10, 30, 100, 200)
SLOW_CELLS = ("mean-past-lifetime", "mgf")
ORACLE_LAMBDAS = (0.5, 1.0, 2.0)
MC_N = (2, 30, 200)
# 2**15 replicates (2 blocks of 2**14).  At 2**17 one round of the 72 ops
# takes about 50 s on 2 cores, so a run could not hold the 100 correct ops
# its p90 needs within the benchmark's time budget; the reps x n draw still
# dominates at n = 200.
MC_XBAR_REPS = 1 << 15
INVERSION_N = (1, 2, 5, 10, 20, 50)
# ops (each on its own sample) per class and round
TALBOT_COPIES = 40
GAVER_STEHFEST_COPIES = 12

# Op classes known to fail at the commit that introduced this benchmark.
# They are left out of the timed rounds, so that no timed op fails, and run
# once per run instead, untimed (``known_failure_ops``); every result names
# which of them still fail.  ``correct`` in a result means no timed op failed.
KNOWN_FAILURES = {
    "oracle-grid": {"verify:mgf@n=200"},
    "mc-xbar": {"eb:mgf@n=200"},
    "inversion": (
        {f"talbot:{k}@n=50" for k in SMOOTH_KINDS} | {"user-complex@n=50"}
        | {f"gaver-stehfest:{k}@n={n}" for k in SMOOTH_KINDS for n in (20, 50)}
        | {"user-real@n=20", "user-real@n=50"}),
}


@dataclass
class Op:
    """One call: ``cls`` names the op class, ``call`` the entry point and
    ``params`` every input (JSON-serialisable)."""

    cls: str
    call: str
    params: dict


def _copies(ops: list[Op], count: int) -> list[Op]:
    return [Op(op.cls, op.call, dict(op.params)) for _ in range(count) for op in ops]


def _mc_seeds(seed: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, 0x6D63])
    return [int(v) for v in ss.generate_state(count, dtype=np.uint64)]


def _oracle_grid(seed: int) -> list[Op]:
    ops = []
    for n in ORACLE_N:
        cells = [Op(f"verify:{k}@n={n}", "verify", {"kind": k, "n": n, "tate": False})
                 for k in KINDS]
        cells += [Op(f"verify-tate:{k}@n={n}", "verify", {"kind": k, "n": n, "tate": True})
                  for k in TATE_KINDS]
        # The slow mean-past-lifetime and mgf cells run once per round and
        # every other cell three times: the ordinary cells get more samples
        # for their percentiles, and a round stays short enough that a run
        # holds several.
        ops += _copies([c for c in cells if c.params["kind"] in SLOW_CELLS], 1)
        ops += _copies([c for c in cells if c.params["kind"] not in SLOW_CELLS], 3)
    return ops


def _mc_xbar(seed: int) -> list[Op]:
    ops = []
    for n in MC_N:
        ops += [Op(f"eb:{k}@n={n}", "eb", {"kind": k, "family": "closed", "n": n})
                for k in KINDS]
        ops += [Op(f"eb-tate:{k}@n={n}", "eb", {"kind": k, "family": "tate", "n": n})
                for k in TATE_KINDS]
        ops += [Op(f"eb-mle:{k}@n={n}", "eb", {"kind": k, "family": "mle", "n": n})
                for k in MLE_KINDS]
        ops += [Op(f"clt:{k}@n={n}", "clt", {"kind": k, "spec": p, "n": n})
                for k, p in CLT_SPECS]
    for op, s in zip(ops, _mc_seeds(seed, len(ops))):
        op.params.update(reps=MC_XBAR_REPS, lam=1.0, seed=s)
    return ops


def _inversion(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 0x696E76])
    ops = []
    for n in INVERSION_N:
        talbot = [Op(f"talbot:{k}@n={n}", "invert", {"kind": k, "method": "talbot", "n": n})
                  for k in SMOOTH_KINDS]
        talbot.append(Op(f"user-complex@n={n}", "invert",
                         {"kind": "user-complex", "method": "talbot", "n": n}))
        gs = [Op(f"gaver-stehfest:{k}@n={n}", "invert",
                 {"kind": k, "method": "gaver-stehfest", "n": n}) for k in SMOOTH_KINDS]
        gs.append(Op(f"user-real@n={n}", "invert",
                     {"kind": "user-real", "method": "gaver-stehfest", "n": n}))
        # Talbot, the default engine, is cheap, so many copies buy each
        # Talbot class many samples at little cost, while the Gaver-Stehfest
        # ops still carry most of the time and set goodput.  Each op gets its
        # own sample.  The Gaver-Stehfest cost depends on the sample through
        # its order ladder, so each of its classes runs on a dozen samples
        # per round: with four, its median cost moved with the seed.
        ops += _copies(talbot, TALBOT_COPIES) + _copies(gs, GAVER_STEHFEST_COPIES)
    for op in ops:
        op.params["sample"] = [float(v) for v in rng.exponential(1.0, op.params["n"])]
    return ops


_BUILDERS = {"oracle-grid": _oracle_grid, "mc-xbar": _mc_xbar, "inversion": _inversion}

# cheap op run first in a fresh interpreter to finish lazy set-up
_WARMUP_CLASS = {"oracle-grid": "verify:moment@n=2", "mc-xbar": "eb:moment@n=2",
                 "inversion": "talbot:moment@n=5"}


def build_ops(workload: str, seed: int) -> list[Op]:
    """One round of ops for ``workload``; the same seed gives the same ops."""
    return [op for op in _BUILDERS[workload](seed) if op.cls not in KNOWN_FAILURES[workload]]


def known_failure_ops(workload: str, seed: int) -> list[Op]:
    """One op of each known failing class of ``workload``, in class order."""
    first = {}
    for op in _BUILDERS[workload](seed):
        if op.cls in KNOWN_FAILURES[workload]:
            first.setdefault(op.cls, op)
    return [first[cls] for cls in sorted(first)]


def warmup_op(workload: str, ops: list[Op]) -> Op:
    return next(op for op in ops if op.cls == _WARMUP_CLASS[workload])


def digest(ops: list[Op]) -> str:
    text = json.dumps([asdict(op) for op in ops], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------

def user_transform(lam):
    """xi(lambda) = lambda / (lambda + 1), the user functional of the
    inversion workload; plain arithmetic keeps mpmath and complex inputs."""
    return lam / (lam + 1.0)


def spec_of(kind: str) -> FunctionalSpec:
    return FunctionalSpec(Kind(kind), **KIND_PARAMS[kind])


def _num(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(v)


def cli_argv(op: Op, tmp: str) -> list[str]:
    """The command line of a ``verify`` or ``clt`` op."""
    p = op.params
    if op.call == "verify":
        argv = ["verify", "--kinds", p["kind"], "--n", str(p["n"]),
                "--lambda", ",".join(_num(v) for v in ORACLE_LAMBDAS)]
        return argv + (["--tate"] if p["tate"] else []) + ["--out", os.path.join(tmp, "out.json")]
    argv = ["clt", "--kind", p["kind"]]
    for name, val in p["spec"].items():
        argv += [f"--{name}", _num(val)]
    return argv + ["--n", str(p["n"]), "--lambda", _num(p["lam"]), "--reps", str(p["reps"]),
                   "--seed", str(p["seed"]), "--out", os.path.join(tmp, "out.json"),
                   "--hist", os.path.join(tmp, "hist.csv")]


_FAMILIES = {"closed": Family.CLOSED_FORM_UNBIASED, "tate": Family.TATE_BIASED,
             "mle": Family.MLE_PLUGIN}


def run_op(op: Op, tmp: str, wrap_transform=None):
    """Execute ``op`` and return what the program returned.

    ``wrap_transform(tf, method)`` lets the traced run wrap the transfer
    function the op builds, to count transform evaluations.
    """
    p = op.params
    if op.call in ("verify", "clt"):
        return cli.main(cli_argv(op, tmp))
    if op.call == "eb":
        config = McConfig(p["reps"], p["n"], p["lam"], p["seed"])
        return montecarlo.empirical_bias(spec_of(p["kind"]), config, _FAMILIES[p["family"]])
    # invert
    kind = p["kind"]
    if kind == "user-complex":
        xi, config, spec = TransferFunction(user_transform, user_transform), None, None
    elif kind == "user-real":
        xi, config, spec = TransferFunction(user_transform), None, None
    else:
        spec = spec_of(kind)
        xi = laplace.builtin_transfer_function(spec)
        config = InversionConfig(method=InversionMethod(p["method"]))
    if wrap_transform is not None:
        xi = wrap_transform(xi, p["method"])
    return laplace.generic_unbiased_estimate(xi, Sample(p["sample"]), config, spec=spec)
