"""Set-up probe: a fresh interpreter imports the package, builds the op list
and runs the workload's warm-up op, then prints ``ready``.  ``run.py`` times
it from process start to that line.

usage: setup_probe.py WORKLOAD SEED TMPDIR
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> None:
    workload, seed, tmp = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    ops = workloads.build_ops(workload, seed)
    workloads.run_op(workloads.warmup_op(workload, ops), tmp)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
