"""Where the time of an in-process ``verify`` op goes: parse, oracle, render, write.

    PYTHONPATH=SRC_DIR python bench/verify_split.py [--rounds R]

runs R rounds (default 5) of the ``oracle-grid`` op list of ``perfbench``
(209 ``verify`` ops, the seed does not change them) through ``cli.main``
in one process, after one warm-up round, and prints one JSON object: the
mean milliseconds per op of the whole ``cli.main`` call and of its parts.
The parts are timed by wrapping, at the attributes ``cli`` looks them up
at, the parser's ``parse_args``, ``verify_row``, ``_render`` and ``_emit``;
``other`` is the rest of the op (the grid checks and the manifest).  The
wrappers add the same few calls to every op of either tree.  The same file
measures any tree whose ``cli`` has those four names; the machine's speed
can drift between runs, so compare trees in alternating runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402
from expunbias import cli  # noqa: E402

PARTS = ("parse", "verify_row", "render", "write")


def _timed(fn, totals: dict, part: str):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[part] += time.perf_counter() - t0
    return wrapper


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    ops = workloads.build_ops("oracle-grid", 1)
    totals = dict.fromkeys(("op", *PARTS), 0.0)
    cli_parser = cli._parser()
    cli_parser.parse_args = _timed(cli_parser.parse_args, totals, "parse")
    cli.verify_row = _timed(cli.verify_row, totals, "verify_row")
    cli._render = _timed(cli._render, totals, "render")
    cli._emit = _timed(cli._emit, totals, "write")
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [workloads.cli_argv(op, tmp) for op in ops]
        for rnd in range(args.rounds + 1):
            if rnd == 1:  # the first round warms up and is not counted
                totals.update(dict.fromkeys(totals, 0.0))
            for argv in argvs:
                t0 = time.perf_counter()
                code = cli.main(argv)
                totals["op"] += time.perf_counter() - t0
                if code != 0:
                    raise SystemExit(f"{argv} exited {code}")
    count = args.rounds * len(ops)
    per_op = {part: 1e3 * seconds / count for part, seconds in totals.items()}
    per_op["other"] = per_op["op"] - sum(per_op[part] for part in PARTS)
    print(json.dumps({"ops": count, "cpus": len(os.sched_getaffinity(0)),
                      "ms_per_op": {k: round(v, 4) for k, v in per_op.items()}}))


if __name__ == "__main__":
    main()
