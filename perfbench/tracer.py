"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces module attributes of ``expunbias`` with wrappers:
each public function is wrapped at the attribute its callers look up (``cli``
calls ``cli.verify_unbiasedness``, ``oracle`` calls
``oracle.adaptive_gauss_kronrod``, and so on), so no source file changes.
``montecarlo`` reaches its random generator through its ``np`` global, which
is replaced by a proxy that times and counts every draw.

A span records name, layer, start, end, parent span, op id and thread id;
spans stay in memory until the run ends.  A span opened on a worker thread
with nothing open on it takes as parent the innermost span open on the main
thread, which is the call waiting for the pool.  A layer's self time is the
sum over its spans of duration minus the union of the children's intervals.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

import expunbias
from expunbias import cli, estimators, laplace, montecarlo, oracle

# generator methods that return draws
_DRAW_METHODS = frozenset({"random", "standard_gamma", "gamma", "exponential",
                           "standard_exponential", "normal", "standard_normal", "uniform"})


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "t0", "t1", "op", "tid", "leaf_ns",
                 "info", "error")

    def to_json(self) -> list:
        return [self.sid, self.parent, self.name, self.layer, self.t0, self.t1, self.op,
                self.tid, self.info, self.error]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.missing: list[str] = []
        self.transform_evals: list[tuple[str, list[int]]] = []
        # (name, layer, [calls, ns]) per leaf function and thread
        self.leaves: list[tuple[str, str, list[int]]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span()
        span.sid = next(self._ids)
        if stack:
            span.parent = stack[-1].sid
        else:
            main = self._main_stack
            span.parent = main[-1].sid if main else None
        span.name, span.layer, span.op = name, layer, self.op
        span.tid = threading.get_ident()
        span.leaf_ns, span.info, span.error = 0, None, None
        stack.append(span)
        span.t0 = perf_counter_ns()
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.t1 = perf_counter_ns()
        self._stack().pop()
        if error is not None:
            span.error = type(error).__name__
        self.spans.append(span)

    def spanned(self, fn, name: str, layer: str, after=None):
        """``fn`` wrapped in a span; ``after(span, args, result)`` fills info."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            if after is not None:
                after(span, args, out)
            tracer.close(span)
            return out
        return wrapper

    def leaf(self, fn, name: str, layer: str):
        """``fn`` counted and timed without a span record, for calls made
        once per replicate; the time is taken out of the enclosing span's
        self time and credited to ``layer``."""
        tracer, local = self, threading.local()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                try:
                    tally = local.tally
                except AttributeError:  # first call on this thread
                    tally = local.tally = [0, 0]
                    with tracer._lock:
                        tracer.leaves.append((name, layer, tally))
                tally[0] += 1
                tally[1] += dt
                stack = tracer._stack()
                if stack:
                    stack[-1].leaf_ns += dt
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        p, s = self._patch, self.spanned
        p(cli, "main", lambda f: s(f, "cli.main", "cli"))
        for name in ("verify_unbiasedness", "verify_tate_bias"):
            p(cli, name, lambda f, name=name: s(f, f"oracle.{name}", "oracle"))
        p(oracle, "expectation", lambda f: s(f, "oracle.expectation", "oracle"))
        p(oracle, "gamma_mean_density",
          lambda f: s(f, "oracle.gamma_mean_density", "oracle", after=_points_of_arg))
        for mod in (oracle, montecarlo):
            p(mod, "tate_phi_function", lambda f: self._phi_factory(f, "oracle.tate_phi", "oracle"))
        for mod in (oracle, laplace):
            p(mod, "adaptive_gauss_kronrod", self._quadrature)
        for mod in (oracle, montecarlo, estimators):
            p(mod, "phi_function", lambda f: self._phi_factory(f, "estimators.phi", "estimators"))
        for mod in (cli, oracle, montecarlo):
            p(mod, "target_value", lambda f: self.leaf(f, "estimators.target", "estimators"))
        p(estimators, "lower_incomplete_gamma_int",
          lambda f: s(f, "special.incgamma", "special", after=_points_of_second_arg))
        for name in ("empirical_bias", "variance_comparison", "clt_check", "asymptotic_variance",
                     "_collect"):
            p(montecarlo, name, lambda f, name=name: s(f, f"montecarlo.{name}", "montecarlo"))
        for name in ("variance_comparison", "clt_check"):
            p(cli, name, lambda f, name=name: s(f, f"montecarlo.{name}", "montecarlo"))
        p(montecarlo, "np", lambda np_module: _NumpyProxy(np_module, self))
        p(laplace, "generic_unbiased_estimate",
          lambda f: s(f, "laplace.generic_unbiased_estimate", "laplace"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _phi_factory(self, factory, name: str, layer: str):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.spanned(factory(*args, **kwargs), name, layer, after=_points_of_arg)
        return make

    def _quadrature(self, agk):
        tracer = self

        @functools.wraps(agk)
        def wrapper(f, *args, **kwargs):
            span = tracer.open("quadrature.adaptive_gauss_kronrod", "quadrature")
            tally = [0, 0]  # integrand calls, points

            def integrand(x):
                tally[0] += 1
                tally[1] += np.size(x)
                return f(x)
            try:
                out = agk(integrand, *args, **kwargs)
            except expunbias.QuadratureError as exc:
                span.info = {"rounds": tally[0], "points": tally[1], "segments": exc.segments}
                tracer.close(span, exc)
                raise
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            span.info = {"rounds": tally[0], "points": tally[1], "segments": int(out[2])}
            tracer.close(span)
            return out
        return wrapper

    def wrap_transform(self, xi, method: str):
        """A copy of the transfer function whose evaluators count calls."""
        tally = [0]  # one op in one thread uses the copy, so no lock
        self.transform_evals.append((method, tally))

        def counted(fn):
            if fn is None:
                return None

            def evaluate(s):
                tally[0] += 1
                return fn(s)
            return evaluate
        return dataclasses.replace(xi, eval_real=counted(xi.eval_real),
                                   eval_complex=counted(xi.eval_complex))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["sid", "parent", "name", "layer", "t0_ns", "t1_ns",
                                            "op", "tid", "info", "error"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), separators=(",", ":")) + "\n")


def _points_of_arg(span: Span, args, out) -> None:
    span.info = {"points": int(np.size(args[0]))}


def _points_of_second_arg(span: Span, args, out) -> None:
    span.info = {"points": int(np.size(args[1]))}


class _GeneratorProxy:
    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _DRAW_METHODS:
            return attr

        def after(span, args, out):
            arr = np.asarray(out)
            span.info = {"rows": int(arr.shape[0]) if arr.ndim else 1,
                         "draws": int(arr.size), "bytes": int(arr.nbytes)}
        return self._tracer.spanned(attr, "montecarlo.draw", "montecarlo", after=after)


class _RandomProxy:
    def __init__(self, random_module, tracer: Tracer):
        self._random = random_module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._random, name)

    def Generator(self, *args, **kwargs):  # noqa: N802 - mirrors numpy's name
        return _GeneratorProxy(self._random.Generator(*args, **kwargs), self._tracer)

    def default_rng(self, *args, **kwargs):
        return _GeneratorProxy(self._random.default_rng(*args, **kwargs), self._tracer)


class _NumpyProxy:
    """Stands in for ``numpy`` inside ``montecarlo``; only ``random`` differs."""

    def __init__(self, np_module, tracer: Tracer):
        self._np = np_module
        self.random = _RandomProxy(np_module.random, tracer)

    def __getattr__(self, name):
        return getattr(self._np, name)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of every span: duration minus its children's union and leaves."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.t0, sp.t1))
    return {sp.sid: sp.t1 - sp.t0 - _union_ns(children.get(sp.sid, [])) - sp.leaf_ns
            for sp in spans}


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# (name, unit, better, per_round): the per-layer metrics in report order.
# Totals are divided by the rounds replayed, so runs that complete different
# numbers of rounds compare directly.
PER_LAYER = (
    ("cli.import_s", "s", "lower", False),
    ("cli.self_ms_per_op", "ms", "lower", False),
    ("cli.simulations_per_clt_op", "count", "lower", False),
    ("oracle.cells", "count", "lower", True),
    ("oracle.cell_p50_ms", "ms", "lower", False),
    ("oracle.cell_max_ms", "ms", "lower", False),
    ("oracle.self_s", "s", "lower", True),
    ("oracle.density_points", "count", "lower", True),
    ("quadrature.calls", "count", "lower", True),
    ("quadrature.segments", "count", "lower", True),
    ("quadrature.points", "count", "lower", True),
    ("quadrature.rounds", "count", "lower", True),
    ("quadrature.self_s", "s", "lower", True),
    ("quadrature.errors", "count", "lower", True),
    ("estimators.phi_calls", "count", "lower", True),
    ("estimators.phi_points", "count", "lower", True),
    ("estimators.phi_s", "s", "lower", True),
    ("estimators.phi_ns_per_point", "ns", "lower", False),
    ("estimators.target_calls", "count", "lower", True),
    ("estimators.target_s", "s", "lower", True),
    ("special.incgamma_calls", "count", "lower", True),
    ("special.incgamma_points", "count", "lower", True),
    ("special.incgamma_s", "s", "lower", True),
    ("montecarlo.replicates", "count", "lower", True),
    ("montecarlo.draws", "count", "lower", True),
    ("montecarlo.draw_mb_computed", "MB", "lower", True),
    ("montecarlo.self_s", "s", "lower", True),
    ("montecarlo.draws_per_s", "1/s", "higher", False),
    ("laplace.talbot.inversions", "count", "higher", True),
    ("laplace.talbot.p50_ms", "ms", "lower", False),
    ("laplace.talbot.transform_evals_per_inversion", "count", "lower", False),
    ("laplace.gaver-stehfest.inversions", "count", "higher", True),
    ("laplace.gaver-stehfest.p50_ms", "ms", "lower", False),
    ("laplace.gaver-stehfest.transform_evals_per_inversion", "count", "lower", False),
    ("errors.wrong", "count", "lower", False),
    ("errors.untyped", "count", "lower", False),
    ("errors.typed", "count", "lower", False),
    ("trace.overhead_frac", "fraction", "lower", False),
)

# what the trace cannot see from outside the package, and why
UNMEASURED = {
    "oracle kinks and cutoff per cell": "computed by private helpers inside "
        "verify_unbiasedness; their time is part of oracle.self_s",
    "quadrature error estimate per cell": "returned to the oracle, which keeps only the sum",
    "Gaver-Stehfest order reached": "the escalation ladder is internal; "
        "transform_evals_per_inversion shows how far it climbed (16+20+26+32+40 evals at most)",
    "montecarlo log transform, reductions and KS sort separately": "they run in private code "
        "between draws; all of it is montecarlo.self_s",
    "time waited for the chunk pool": "no span exists inside the pool's block function; "
        "the wait is self time of the montecarlo call that maps the blocks",
    "laplace convolution-quadrature": "not in the op mix",
}


def layer_metrics(tracer: Tracer, ops_run: list, rounds: int,
                  known: list[str]) -> dict[str, float]:
    """Per-layer figures from a traced replay of ``rounds`` whole rounds.

    ``ops_run[i]`` is the op traced with op id ``i``.  No timed op fails in a
    correct run, so the failure counts come from ``known``, the outcomes of
    the untimed run of one op per known failing class: ``ok``, ``wrong``,
    ``typed:<Error>`` or ``untyped:<Error>``.  ``cli.import_s`` and
    ``trace.overhead_frac`` are measured by the caller.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    layer_self = Counter()
    for sp in spans:
        by_name[sp.name].append(sp)
        layer_self[sp.layer] += selfs[sp.sid]
    leaf_calls, leaf_ns = Counter(), Counter()
    for name, layer, (calls, ns) in tracer.leaves:
        layer_self[layer] += ns
        leaf_calls[name] += calls
        leaf_ns[name] += ns

    def dur_ms(sp):
        return (sp.t1 - sp.t0) / 1e6

    def total_s(name):
        return sum(sp.t1 - sp.t0 for sp in by_name[name]) / 1e9

    def info_sum(name, field):
        return sum((sp.info or {}).get(field, 0) for sp in by_name[name])

    m = {}
    cli_spans = by_name["cli.main"]
    cli_ops = {sp.op for sp in cli_spans}
    m["cli.self_ms_per_op"] = (sum(selfs[sp.sid] for sp in cli_spans) / 1e6 / len(cli_ops)
                               if cli_ops else 0.0)
    clt_ops = {i for i, op in enumerate(ops_run) if op.call == "clt"}
    clt_rows = sum((sp.info or {}).get("rows", 0) for sp in by_name["montecarlo.draw"]
                   if sp.op in clt_ops)
    clt_reps = sum(ops_run[i].params["reps"] for i in clt_ops)
    m["cli.simulations_per_clt_op"] = clt_rows / clt_reps if clt_reps else 0.0

    cells = by_name["oracle.verify_unbiasedness"] + by_name["oracle.verify_tate_bias"]
    m["oracle.cells"] = len(cells)
    m["oracle.cell_p50_ms"] = _p50([dur_ms(sp) for sp in cells])
    m["oracle.cell_max_ms"] = max((dur_ms(sp) for sp in cells), default=0.0)
    m["oracle.self_s"] = layer_self["oracle"] / 1e9
    m["oracle.density_points"] = info_sum("oracle.gamma_mean_density", "points")

    quad = by_name["quadrature.adaptive_gauss_kronrod"]
    m["quadrature.calls"] = len(quad)
    for field in ("segments", "points", "rounds"):
        m[f"quadrature.{field}"] = info_sum("quadrature.adaptive_gauss_kronrod", field)
    m["quadrature.self_s"] = layer_self["quadrature"] / 1e9
    m["quadrature.errors"] = sum(1 for sp in quad if sp.error == "QuadratureError")

    m["estimators.phi_calls"] = len(by_name["estimators.phi"])
    m["estimators.phi_points"] = info_sum("estimators.phi", "points")
    m["estimators.phi_s"] = total_s("estimators.phi")
    m["estimators.phi_ns_per_point"] = (m["estimators.phi_s"] * 1e9 / m["estimators.phi_points"]
                                        if m["estimators.phi_points"] else 0.0)
    m["estimators.target_calls"] = leaf_calls["estimators.target"]
    m["estimators.target_s"] = leaf_ns["estimators.target"] / 1e9

    m["special.incgamma_calls"] = len(by_name["special.incgamma"])
    m["special.incgamma_points"] = info_sum("special.incgamma", "points")
    m["special.incgamma_s"] = total_s("special.incgamma")

    m["montecarlo.replicates"] = info_sum("montecarlo.draw", "rows")
    m["montecarlo.draws"] = info_sum("montecarlo.draw", "draws")
    m["montecarlo.draw_mb_computed"] = info_sum("montecarlo.draw", "bytes") / 1e6
    m["montecarlo.self_s"] = layer_self["montecarlo"] / 1e9
    draw_s = total_s("montecarlo.draw")
    m["montecarlo.draws_per_s"] = m["montecarlo.draws"] / draw_s if draw_s else 0.0

    inversions = defaultdict(list)
    for sp in by_name["laplace.generic_unbiased_estimate"]:
        inversions[ops_run[sp.op].params["method"]].append(dur_ms(sp))
    for method in ("talbot", "gaver-stehfest"):
        count = len(inversions[method])
        m[f"laplace.{method}.inversions"] = count
        m[f"laplace.{method}.p50_ms"] = _p50(inversions[method])
        evals = sum(t[0] for meth, t in tracer.transform_evals if meth == method)
        m[f"laplace.{method}.transform_evals_per_inversion"] = evals / count if count else 0.0
    m["errors.wrong"] = sum(1 for st in known if st == "wrong")
    m["errors.untyped"] = sum(1 for st in known if st.startswith("untyped:"))
    m["errors.typed"] = sum(1 for st in known if st.startswith("typed:"))
    for name, _, _, per_round in PER_LAYER:
        if per_round:
            m[name] /= rounds
    return m
