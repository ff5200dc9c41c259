"""One sha256 per fixed command-line run of the package, to compare two trees.

    python bench/cli_digest.py SRC_DIR

runs ``python -m expunbias`` with ``PYTHONPATH=SRC_DIR`` on a fixed list of
manifests and prints ``<sha256>  <label>`` per run.  Each digest covers the
exit code, stdout, stderr and the ``--hist`` file where there is one.  Runs
happen one after another in a fresh temporary directory holding two data
files the script writes itself, and every path passed to the CLI is relative, so
the outputs of two source trees can be compared digest by digest (diff the
two listings).  A run that ends in a traceback prints the source path on
stderr, so its digest differs between trees whatever the code does.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile

# Parameters of each kind, as the ``verify`` subcommand's defaults set them.
KIND_ARGS = {
    "rate-power": ["--p", "0.5"],
    "quantile": ["--q", "0.5"],
    "moment": ["--p", "2.0"],
    "survival": ["--t", "0.5"],
    "max-cdf-power": ["--t", "0.5", "--m", "2"],
    "min-survival": ["--t", "0.5", "--m", "2"],
    "pdf": ["--t", "0.5"],
    "mean-past-lifetime": ["--t", "0.5"],
    "mgf": ["--t", "0.5"],
    "expected-shortfall": ["--p", "0.5"],
}
SMOOTH_KINDS = ("rate-power", "quantile", "moment", "mgf", "expected-shortfall")
DELTA_KINDS = tuple(kind for kind in KIND_ARGS if kind not in SMOOTH_KINDS)
DATA = "0.43\n1.12\n0.71\n2.04\n0.09\n# a comment\n\n0.88\n1.57\n"
# 200 observations: the exp(1) quantiles at levels (k + 1/2)/200
DATA_200 = "".join(f"{-math.log1p(-(k + 0.5) / 200):.6f}\n" for k in range(200))
HIST = "hist.csv"


def manifests() -> list[tuple[str, list[str]]]:
    runs = []
    for kind in KIND_ARGS:
        for fmt in ("json", "csv"):
            runs.append((f"verify {kind} {fmt}",
                         ["verify", "--kinds", kind, "--n", "1,2,5,10,30,100,200",
                          "--lambda", "0.5,1,2", "--format", fmt]))
    runs.append(("verify --tate", ["verify", "--tate", "--n", "2,3,10,30",
                                   "--lambda", "0.5,1,2"]))
    for p in ("0.5", "2"):
        for n in ("5", "200"):
            runs.append((f"compare p={p} n={n}",
                         ["compare", "--p", p, "--n", n, "--lambda", "1",
                          "--reps", "20000", "--seed", "7"]))
    for kind, args in KIND_ARGS.items():
        for n in ("2", "30", "200"):
            runs.append((f"clt {kind} n={n}",
                         ["clt", "--kind", kind, *args, "--n", n, "--lambda", "1",
                          "--reps", "20000", "--seed", "11", "--hist", HIST]))
    for kind, args in KIND_ARGS.items():
        runs.append((f"estimate {kind} closed",
                     ["estimate", "--kind", kind, *args, "--data", "data.txt"]))
    for kind in SMOOTH_KINDS:
        for engine in ("talbot", "gaver-stehfest"):
            runs.append((f"estimate {kind} {engine}",
                         ["estimate", "--kind", kind, *KIND_ARGS[kind], "--data", "data.txt",
                          "--engine", engine]))
            runs.append((f"estimate {kind} {engine} n=200",
                         ["estimate", "--kind", kind, *KIND_ARGS[kind],
                          "--data", "data200.txt", "--engine", engine]))
    runs += [
        ("malformed verify --n 2,x", ["verify", "--kinds", "quantile", "--n", "2,x"]),
        ("malformed verify --n ''", ["verify", "--kinds", "quantile", "--n", ""]),
        ("malformed verify --lambda 1,abc",
         ["verify", "--kinds", "quantile", "--lambda", "1,abc"]),
        ("malformed clt --hist-bins -3",
         ["clt", "--kind", "quantile", "--q", "0.5", "--n", "5", "--lambda", "1",
          "--reps", "1000", "--hist", HIST, "--hist-bins", "-3"]),
        ("malformed clt --hist-bins 0",
         ["clt", "--kind", "quantile", "--q", "0.5", "--n", "5", "--lambda", "1",
          "--reps", "1000", "--hist", HIST, "--hist-bins", "0"]),
        ("malformed verify --jobs 0", ["verify", "--kinds", "quantile", "--jobs", "0"]),
        ("malformed compare --jobs 0",
         ["compare", "--p", "1", "--n", "5", "--lambda", "1", "--reps", "1000",
          "--jobs", "0"]),
        ("malformed verify --threshold nan",
         ["verify", "--kinds", "quantile", "--threshold", "nan"]),
        ("malformed verify --rel-tol nan", ["verify", "--kinds", "quantile", "--rel-tol", "nan"]),
        ("verify --lambda 1e-320", ["verify", "--kinds", "quantile", "--lambda", "1e-320"]),
        ("verify moment --moment-p 0.5",
         ["verify", "--kinds", "moment", "--moment-p", "0.5", "--n", "1,2,5,10,30,100,200",
          "--lambda", "0.5,1,2"]),
        ("estimate moment p=0.5 talbot",
         ["estimate", "--kind", "moment", "--p", "0.5", "--data", "data.txt",
          "--engine", "talbot"]),
    ]
    # the generic engine refuses these kinds (exit 3)
    for kind in DELTA_KINDS:
        for engine in ("talbot", "gaver-stehfest"):
            runs.append((f"estimate {kind} {engine}",
                         ["estimate", "--kind", kind, *KIND_ARGS[kind], "--data", "data.txt",
                          "--engine", engine]))
    return runs


def digest(src_dir: str, workdir: str, argv: list[str]) -> str:
    hist = os.path.join(workdir, HIST)
    if os.path.exists(hist):
        os.remove(hist)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir))
    proc = subprocess.run([sys.executable, "-m", "expunbias", *argv], cwd=workdir, env=env,
                          capture_output=True, check=False)
    h = hashlib.sha256()
    for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
        h.update(len(part).to_bytes(8, "little") + part)
    if os.path.exists(hist):
        with open(hist, "rb") as fh:
            h.update(b"hist" + fh.read())
    return h.hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python bench/cli_digest.py SRC_DIR", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in (("data.txt", DATA), ("data200.txt", DATA_200)):
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for label, argv in manifests():
            print(f"{digest(sys.argv[1], workdir, argv)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
