"""Closed-loop benchmark of the expunbias package.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src/``.
One client in one process sends the next op when the previous one returns.
The timed loop repeats the workload's round of ops, whole rounds only, until
the ops have used ``--seconds`` of wall time and at least 100 of them returned
a correct result; whole rounds keep the op mix identical from run to run.
Every op's output is checked against a reference computed without the package.
Op times are reported in reference units (``Kernel``), which cancel most of
the host's swings in speed.  The op classes known to fail run once each,
untimed, after the loop; no timed op is expected to fail.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half of ``--seconds``, replays exactly the same ops with every
layer wrapped in spans, and reports the per-layer metrics, per round of the
op list; the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# p90 needs ten correct ops beyond it
MIN_CORRECT_OPS = 100
# a run that cannot reach MIN_CORRECT_OPS stops after this multiple of --seconds
MAX_SECONDS_FACTOR = 3.0
SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60.0


@dataclass
class Record:
    idx: int          # position of the op in the round
    cls: str
    seconds: float
    status: str       # ok, wrong, typed:<Error> or untyped:<Error>
    why: str | None
    kernel_s: float = 0.0  # the reference kernel's time around the op


class Kernel:
    """A fixed basket of small computations timed between ops, to track the
    host's speed.

    The host's speed swings by up to a factor of two, in phases from under a
    second to minutes long, so wall times of the same op drift between runs
    far more than any bound could allow.  The kernel, timed at most
    ``INTERVAL_S`` before an op and again after it, slows down with the host;
    an op's time divided by the kernel's time around it moves much less.
    Metrics in ``ref`` units scale that ratio by ``REF_S``, so they read as
    seconds on a host where the kernel takes ``REF_S``, which is about its
    median time on the 2-vCPU machine the benchmark was written on.

    Different kinds of work slow down by different amounts when the host is
    busy, so the kernel is the geometric mean of six parts, one per kind of
    work the program does: interpreter loops, dicts and lists, vectorised
    numpy, a pass over 2 MB of memory, small complex arrays (as in Talbot's
    contour) and 30-digit mpmath (as in Gaver-Stehfest).  Each part's time is
    the median of ``REPEATS``.  No part calls the package.
    """

    REF_S = 165e-6
    INTERVAL_S = 0.1
    REPEATS = 3

    def __init__(self):
        import mpmath
        import numpy as np
        rng = np.random.default_rng(0x6B65726E)
        vec, block = rng.random(1 << 15), rng.random(1 << 18)
        contour = np.exp(1j * np.linspace(0.0, 3.0, 24))

        def interpreter():
            total = 0
            for i in range(1500):
                total += i * i

        def containers():
            table = {str(i): [i, 2 * i] for i in range(300)}
            sum(v[1] for v in table.values())

        def vector():
            np.log(vec).sum()
            np.sort(vec[:4096])

        def memory():
            (block * 1.0001).sum()

        def small_complex():
            total = 0
            for _ in range(20):
                total = total + (contour * contour / (contour + 2.0)).sum()

        def bigfloat():
            with mpmath.workdps(30):
                mpmath.fsum(mpmath.exp(mpmath.mpf(i) / 7) for i in range(12))

        self._parts = (interpreter, containers, vector, memory, small_complex, bigfloat)
        self.samples: list[tuple[int, float]] = []  # (next op's position, seconds)
        self._last = -math.inf
        for _ in range(5):
            self._time()

    def _time(self) -> float:
        log_sum = 0.0
        for part in self._parts:
            times = []
            for _ in range(self.REPEATS):
                t0 = perf_counter()
                part()
                times.append(perf_counter() - t0)
            log_sum += math.log(sorted(times)[self.REPEATS // 2])
        return math.exp(log_sum / len(self._parts))

    def before(self, position: int, force: bool = False) -> None:
        """Time the kernel if it last ran ``INTERVAL_S`` ago or more."""
        if force or perf_counter() - self._last >= self.INTERVAL_S:
            self.samples.append((position, self._time()))
            self._last = perf_counter()

    def bracket(self, records: list[Record]) -> None:
        """Set each record's ``kernel_s``: the mean of the kernel's times
        just before and just after its op."""
        self.before(len(records), force=True)
        k, n = 0, len(self.samples)
        for pos, rec in enumerate(records):
            while k + 1 < n and self.samples[k + 1][0] <= pos:
                k += 1
            rec.kernel_s = (self.samples[k][1] + self.samples[min(k + 1, n - 1)][1]) / 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values):
    return statistics.median(values) if values else 0.0


def time_setup(workload: str, seed: int, tmp: str) -> list[float]:
    """Seconds from process start to the end of the first op, per probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed), tmp],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            _fail(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return times


def time_cli_import() -> list[float]:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import expunbias.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout))
    return times


def _clear_outputs(tmp: str) -> None:
    for name in ("out.json", "hist.csv"):
        if os.path.exists(os.path.join(tmp, name)):
            os.remove(os.path.join(tmp, name))


def run_loop(ops, ref_values, tmp, *, seconds=None, order=None, tracer=None,
             kernel=None) -> list[Record]:
    """Run ops closed-loop: repeat whole rounds until they have used
    ``seconds``, or run the round positions listed in ``order``.  With a
    ``kernel``, time it between ops and set each record's ``kernel_s``."""
    import refs
    import workloads
    from expunbias import ExpunbiasError

    wrap = tracer.wrap_transform if tracer is not None else None
    records, busy, correct = [], 0.0, 0
    i = 0
    while True:
        if order is not None:
            if i >= len(order):
                break
            idx = order[i]
        else:
            idx = i % len(ops)
            if idx == 0 and ((busy >= seconds and correct >= MIN_CORRECT_OPS)
                             or busy >= seconds * MAX_SECONDS_FACTOR):
                break
        op = ops[idx]
        _clear_outputs(tmp)
        if kernel is not None:
            kernel.before(i)
        if tracer is not None:
            tracer.op = i
            root = tracer.open(op.cls, "bench")
        err = None
        t0 = perf_counter()
        try:
            result = workloads.run_op(op, tmp, wrap)
        except Exception as exc:  # an op's failure is a measurement, not an abort
            err = exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        if err is None:
            try:
                why = refs.check(op, result, ref_values[idx], tmp)
            except Exception as exc:  # unreadable output is a wrong result
                why = f"checker: {type(exc).__name__}: {exc}"
            status = "ok" if why is None else "wrong"
        else:
            kind = "typed" if isinstance(err, ExpunbiasError) else "untyped"
            status, why = f"{kind}:{type(err).__name__}", str(err)[:200]
        records.append(Record(idx, op.cls, dt, status, why))
        busy += dt
        correct += status == "ok"
        i += 1
    if kernel is not None:
        kernel.bracket(records)
    return records


def probe_known_failures(ops, tmp) -> dict:
    """Run each known failing op once, untimed: how it ends now."""
    import refs
    import workloads
    from expunbias import ExpunbiasError

    out = {}
    for op in ops:
        _clear_outputs(tmp)
        try:
            result = workloads.run_op(op, tmp)
            why = refs.check(op, result, refs.reference(op, {}), tmp)
            status = "ok" if why is None else "wrong"
        except Exception as exc:  # the failure is what the probe records
            kind = "typed" if isinstance(exc, ExpunbiasError) else "untyped"
            status, why = f"{kind}:{type(exc).__name__}", str(exc)[:200]
        out[op.cls] = {"status": status, "why": why}
    return out


def failures(records: list[Record]) -> dict:
    """Failed ops per class: how many, with which outcome, and one reason."""
    out = {}
    for r in records:
        if r.status != "ok":
            entry = out.setdefault(r.cls, {"count": 0, "statuses": {}, "why": r.why})
            entry["count"] += 1
            entry["statuses"][r.status] = entry["statuses"].get(r.status, 0) + 1
    return dict(sorted(out.items()))


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 \
        else _median(values)


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _ref_seconds(records: list[Record]) -> float:
    return sum(r.seconds / r.kernel_s for r in records) * Kernel.REF_S


def end_to_end(records: list[Record], setup: list[float],
               maxrss_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and their sample counts.

    Op times are taken in ``ref`` units (``Kernel``).  Latency is summarised
    per op class and then across classes by the geometric mean, so every
    class weighs the same and a percentile never sits on the step between
    two classes of different cost.  The same figures in wall time go to the
    sample counts.
    """
    def summary(cost):
        by_class = {}
        for r in records:
            if r.status == "ok":
                by_class.setdefault(r.cls, []).append(cost(r))
        correct = sum(len(v) for v in by_class.values())
        return (correct / sum(cost(r) for r in records),
                _geomean([_median(v) for v in by_class.values()]) * 1e3,
                _geomean([_p90(v) for v in by_class.values()]) * 1e3, by_class)

    goodput, p50, p90, _ = summary(lambda r: r.seconds * Kernel.REF_S / r.kernel_s)
    wall_goodput, wall_p50, wall_p90, by_class = summary(lambda r: r.seconds)
    kernel_s = [r.kernel_s for r in records]
    ok = [r.seconds for r in records if r.status == "ok"]
    metrics = {
        "goodput_ops_ref_s": (goodput, "ops/ref_s"),
        "class_p50_ref_ms": (p50, "ref_ms"),
        "class_p90_ref_ms": (p90, "ref_ms"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
    }
    samples = {"correct_ops": len(ok), "classes": len(by_class),
               "min_class_ops": min((len(v) for v in by_class.values()), default=0),
               "wall_goodput_ops_s": wall_goodput, "wall_class_p50_ms": wall_p50,
               "wall_class_p90_ms": wall_p90,
               "pooled_p50_ms": _median(ok) * 1e3, "pooled_p90_ms": _p90(ok) * 1e3,
               "kernel_us_p10_p50_p90": [v * 1e6 for v in statistics.quantiles(
                   kernel_s, n=10, method="inclusive")[::4]],
               "setup_probes": len(setup), "loop_wall_s": sum(r.seconds for r in records),
               "failed_frac": 1.0 - len(ok) / len(records)}
    return metrics, samples


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "expunbias")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "platform": platform.platform(), "git_commit": _git_commit(), "src_sha256": _src_digest(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "expunbias", "__init__.py")):
        _fail(f"no package source under {SRC}; run from the root of a source tree")
    sys.path.insert(0, SRC)
    import expunbias
    if os.path.dirname(os.path.dirname(os.path.realpath(expunbias.__file__))) != os.path.realpath(SRC):
        _fail(f"imported expunbias from {expunbias.__file__}, not from {SRC}")
    import refs
    import workloads
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return _run(args, workloads, refs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args, names) -> int:
    """Run each workload in a fresh process, as a single run would, and end
    with one result whose metric names carry the workload's name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            _fail(f"workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def _run(args, workloads, refs, tmp) -> int:
    ops = workloads.build_ops(args.workload, args.seed)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "op_digest": workloads.digest(ops), "round_ops": len(ops),
               "environment": environment()}
    if args.trace == 0:
        details["setup_probes_s"] = setup = time_setup(args.workload, args.seed, tmp)
    else:
        details["cli_import_probes_s"] = imports = time_cli_import()

    t0 = perf_counter()
    cache = {}
    ref_values = [refs.reference(op, cache) for op in ops]
    details["reference_s"] = perf_counter() - t0
    warm = workloads.warmup_op(args.workload, ops)
    workloads.run_op(warm, tmp)

    if args.trace == 0:
        records = run_loop(ops, ref_values, tmp, seconds=args.seconds, kernel=Kernel())
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # half as long, so that with its traced replay the run takes about
        # as long as an end-to-end run
        records = run_loop(ops, ref_values, tmp, seconds=args.seconds / 2, kernel=Kernel())
    fails = failures(records)
    known = probe_known_failures(workloads.known_failure_ops(args.workload, args.seed), tmp)
    details.update(ops_run=len(records), rounds=len(records) / len(ops), failing_classes=fails,
                   known_failures=known,
                   known_failures_fixed=sorted(c for c, e in known.items() if e["status"] == "ok"))

    if args.trace == 0:
        metrics, samples = end_to_end(records, setup, maxrss_kb)
        details["samples"] = samples
        _print_table(f"{args.workload} seed {args.seed}: end-to-end", metrics)
        print(f"  samples: {samples['correct_ops']} correct ops in {samples['classes']} classes, "
              f"at least {samples['min_class_ops']} per class; "
              f"failed_frac {samples['failed_frac']:.6g}")
    else:
        import tracer as tracing
        tr = tracing.Tracer()
        order = [r.idx for r in records]
        replay_ops = [ops[i] for i in order]
        tr.install()
        try:
            traced = run_loop(ops, ref_values, tmp, order=order, tracer=tr, kernel=Kernel())
        finally:
            tr.uninstall()
        fails_traced = failures(traced)
        m = tracing.layer_metrics(tr, replay_ops, len(records) // len(ops),
                                  [e["status"] for e in known.values()])
        m["cli.import_s"] = _median(imports)
        m["trace.overhead_frac"] = _ref_seconds(traced) / _ref_seconds(records) - 1.0
        metrics = {name: (m[name], unit) for name, unit, _, _ in tracing.PER_LAYER}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tr.write(trace_path)
        details.update(trace_file=os.path.relpath(trace_path, ROOT), spans=len(tr.spans),
                       traced_failing_classes=fails_traced,
                       same_outcomes=[r.status for r in traced] == [r.status for r in records],
                       unwrapped=tr.missing, unmeasured=tracing.UNMEASURED)
        fails = {**fails, **fails_traced}
        _print_table(f"{args.workload} seed {args.seed}: per layer (traced replay of "
                     f"{len(traced)} ops)", metrics)

    for cls, entry in fails.items():
        print(f"  FAILED {cls}: {entry['count']}x {entry['statuses']} ({entry['why']})")
    for cls, entry in known.items():
        tag = "fixed" if entry["status"] == "ok" else entry["status"]
        print(f"  known failure {cls}: {tag} ({entry['why']})")
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": not fails,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.status != "ok"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
