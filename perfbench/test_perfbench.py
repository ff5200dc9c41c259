"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _op(workload, cls, seed=11):
    ops = workloads.build_ops(workload, seed)
    return next(op for op in ops if op.cls == cls)


def _edit_row(tmp, edit):
    path = os.path.join(tmp, "out.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["results"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _shift_z(rows):
    rows[0]["mean"] = 6.0 * rows[0]["std_error"]


# op class -> how to perturb its output so that it is wrong
PERTURB = {
    ("oracle-grid", "verify:moment@n=2"): lambda res, tmp: _edit_row(tmp, lambda rows: rows.pop()),
    ("mc-xbar", "clt:moment@n=2"): lambda res, tmp: _edit_row(tmp, _shift_z),
    ("mc-xbar", "eb:moment@n=2"): lambda res, tmp: dataclasses.replace(
        res, mean=res.mean + 6.0 * res.std_error),
    ("inversion", "talbot:moment@n=5"): lambda res, tmp: dataclasses.replace(
        res, value=res.value * (1.0 + 1e-5)),
}


@pytest.mark.parametrize("workload,cls", sorted(PERTURB))
def test_checker_counts_a_perturbed_value_as_failed(workload, cls, tmp_path):
    tmp = str(tmp_path)
    op = _op(workload, cls)
    ref = refs.reference(op, {})
    result = workloads.run_op(op, tmp)
    assert refs.check(op, result, ref, tmp) is None
    perturbed = PERTURB[workload, cls](result, tmp)
    assert refs.check(op, perturbed if perturbed is not None else result, ref, tmp) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_op_digest(workload):
    assert workloads.digest(workloads.build_ops(workload, 5)) == \
        workloads.digest(workloads.build_ops(workload, 5))


@pytest.mark.parametrize("workload", ["mc-xbar", "inversion"])
def test_another_seed_gives_other_inputs(workload):
    assert workloads.digest(workloads.build_ops(workload, 5)) != \
        workloads.digest(workloads.build_ops(workload, 6))


def test_traced_and_untraced_runs_execute_the_same_ops(tmp_path):
    tmp = str(tmp_path)
    ops = workloads.build_ops("inversion", 3)
    ref_values = [refs.reference(op, {}) for op in ops]
    untraced = run.run_loop(ops, ref_values, tmp, seconds=0.05)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run.run_loop(ops, ref_values, tmp, order=[r.idx for r in untraced], tracer=tr)
    finally:
        tr.uninstall()
    assert [(r.idx, r.cls, r.status) for r in traced] == \
        [(r.idx, r.cls, r.status) for r in untraced]
    roots = [sp for sp in tr.spans if sp.layer == "bench"]
    assert [sp.name for sp in sorted(roots, key=lambda sp: sp.op)] == [r.cls for r in untraced]
    rounds = len(untraced) // len(ops)
    metrics = tracing.layer_metrics(tr, [ops[r.idx] for r in untraced], rounds, [])
    assert metrics["laplace.talbot.inversions"] + metrics["laplace.gaver-stehfest.inversions"] \
        == len(ops)


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(sid, parent, t0, t1):
        sp = tracing.Span()
        sp.sid, sp.parent, sp.t0, sp.t1, sp.leaf_ns = sid, parent, t0, t1, 0
        return sp
    # two pool threads whose children overlap inside one parent
    spans = [span(1, None, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)]
    assert tracing.self_times(spans) == {1: 40, 2: 40, 3: 40}


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e, _ = run.end_to_end([run.Record(0, "c", 0.1, "ok", None, 1e-4)] * 2, [1.0], 1024)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "inversion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_failures_are_probed_and_never_timed(workload):
    assert not {op.cls for op in workloads.build_ops(workload, 7)} \
        & workloads.KNOWN_FAILURES[workload]
    assert [op.cls for op in workloads.known_failure_ops(workload, 7)] == \
        sorted(workloads.KNOWN_FAILURES[workload])
