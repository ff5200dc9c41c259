"""One sha256 per fixed command-line run of the package, to compare two trees.

    python bench/cli_digest.py SRC_DIR
    python bench/cli_digest.py SRC_DIR OTHER_SRC_DIR

runs ``python -m expunbias`` with ``PYTHONPATH=SRC_DIR`` on a fixed list of
manifests and prints ``<sha256>  <label>`` per run.  Given a second tree, it
runs each manifest on both and prints only the labels whose digests differ,
exiting 1 if any do.  Each digest covers the exit code, stdout, stderr and
the ``--hist`` file where there is one.  Runs happen one after another in a
fresh temporary directory holding two data files the script writes itself,
and every path passed to the CLI is relative, so the outputs of two source
trees can be compared digest by digest.  A run that ends in a traceback
prints the source path on stderr, so its digest differs between trees
whatever the code does.
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
# means at the end of double range: one observation of 1.7e308, and 30 of 1e11
DATA_HUGE = "1.7e308\n"
DATA_BIG_30 = "1e11\n" * 30
# one observation on the mean-past-lifetime kink 2t at t = 0.5, and 2000 exp(1) quantiles
DATA_KINK = "1.0\n"
DATA_2000 = "".join(f"{-math.log1p(-(k + 0.5) / 2000):.6f}\n" for k in range(2000))
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
        ("malformed verify --threshold nan",
         ["verify", "--kinds", "quantile", "--threshold", "nan"]),
        ("malformed verify --rel-tol nan", ["verify", "--kinds", "quantile", "--rel-tol", "nan"]),
        ("verify --lambda 1e-320", ["verify", "--kinds", "quantile", "--lambda", "1e-320"]),
        # one failing cell amid certified ones: the run ends with that cell's
        # error, a window DomainError (exit 3), a QuadratureError (exit 4)
        # and a power estimator whose factors leave double range apart
        ("verify quantile --lambda 1,1e-320,2",
         ["verify", "--kinds", "quantile", "--lambda", "1,1e-320,2"]),
        ("verify max-cdf-power --m 5 --lambda 1,0.00667,2",
         ["verify", "--kinds", "max-cdf-power", "--t", "1", "--m", "5", "--n", "2",
          "--lambda", "1,0.00667,2"]),
        ("verify rate-power --p 99.5 --n 100 --lambda 0.05,1,30",
         ["verify", "--kinds", "rate-power", "--p", "99.5", "--n", "100",
          "--lambda", "0.05,1,30"]),
        ("verify moment --moment-p 0.5",
         ["verify", "--kinds", "moment", "--moment-p", "0.5", "--n", "1,2,5,10,30,100,200",
          "--lambda", "0.5,1,2"]),
        ("estimate moment p=0.5 talbot",
         ["estimate", "--kind", "moment", "--p", "0.5", "--data", "data.txt",
          "--engine", "talbot"]),
        # one replicate has no spread to standardise (exit 3)
        ("clt --reps 1",
         ["clt", "--kind", "quantile", "--q", "0.5", "--n", "5", "--lambda", "1",
          "--reps", "1", "--seed", "3"]),
        # the exact pth-moment variance leaves double range (exit 4)
        ("compare p=400 lambda=1000",
         ["compare", "--p", "400", "--n", "5", "--lambda", "1000", "--reps", "300",
          "--seed", "1"]),
        # no cell of the grid lies in the domain (exit 3)
        ("verify rate-power --n 0", ["verify", "--kinds", "rate-power", "--n", "0"]),
        ("verify mgf --lambda=-1", ["verify", "--kinds", "mgf", "--lambda=-1"]),
        ("verify mgf --lambda 0", ["verify", "--kinds", "mgf", "--lambda", "0"]),
        ("verify --tate quantile --n 1",
         ["verify", "--tate", "--kinds", "quantile", "--n", "1"]),
        # each builder boundary: the cells whose estimator builds run
        ("verify --tate rate-power --p 1.5 --n 1,2,3,4",
         ["verify", "--tate", "--kinds", "rate-power", "--p", "1.5", "--n", "1,2,3,4"]),
        ("verify rate-power --p 2.5 --n 1,2,3",
         ["verify", "--kinds", "rate-power", "--p", "2.5", "--n", "1,2,3"]),
        ("verify pdf --n 1,2", ["verify", "--kinds", "pdf", "--n", "1,2"]),
        ("verify mgf --t 0.5 --lambda 0.25,0.5,1",
         ["verify", "--kinds", "mgf", "--t", "0.5", "--lambda", "0.25,0.5,1"]),
        # power estimators whose integrand's mass lies past the Gamma(n) window
        ("verify --tate rate-power --p=-11.5 --n 2",
         ["verify", "--tate", "--kinds", "rate-power", "--p=-11.5", "--n", "2"]),
        ("verify moment --moment-p 30 --n 30",
         ["verify", "--kinds", "moment", "--moment-p", "30", "--n", "30"]),
        # a small slope next to an O(1) estimate, within the difference's rounding
        ("clt moment p=1e-07 n=16406",
         ["clt", "--kind", "moment", "--p=1e-07", "--n", "16406", "--lambda=1.0000001",
          "--reps", "2000", "--seed", "1"]),
        ("clt mgf t=8.918e-05 n=8202",
         ["clt", "--kind", "mgf", "--t=8.918e-05", "--n", "8202", "--lambda=32.13",
          "--reps", "2000", "--seed", "1"]),
        # fixed Talbot past n = 32 (exit 4)
        ("estimate moment p=0.5 talbot n=50",
         ["estimate", "--kind", "moment", "--p", "0.5", "--data", "data50.txt",
          "--engine", "talbot"]),
        # estimates that leave double range (exit 4)
        ("estimate expected-shortfall mean=1.7e308",
         ["estimate", "--kind", "expected-shortfall", "--p", "0.5", "--data", "huge.txt"]),
        ("estimate mgf n=30 mean=1e11",
         ["estimate", "--kind", "mgf", "--t", "0.5", "--data", "big30.txt"]),
        # scipy's M(1, 30, w) is nan at w = -3e12
        ("estimate mgf t=-1 n=30 mean=1e11",
         ["estimate", "--kind", "mgf", "--t", "-1", "--data", "big30.txt"]),
        # about 5e45 indicator terms, summed by the closed form
        ("estimate mean-past-lifetime --t 1.4e-45",
         ["estimate", "--kind", "mean-past-lifetime", "--t", "1.4e-45", "--data", "data.txt"]),
        ("estimate mean-past-lifetime n=1 on a kink",
         ["estimate", "--kind", "mean-past-lifetime", "--t", "0.5", "--data", "kink.txt"]),
        ("estimate mean-past-lifetime n=2000",
         ["estimate", "--kind", "mean-past-lifetime", "--t", "0.5", "--data", "data2000.txt"]),
        # most of the sample-mean law below the direct-sum switch at t, and
        # the kinks split up to n = 7
        ("verify mean-past-lifetime --t 0.05",
         ["verify", "--kinds", "mean-past-lifetime", "--t", "0.05", "--n", "1,2,3,7,8,30,200",
          "--lambda", "0.5,1,2"]),
        # the mean 0.25 lies below the switch, so the delta-method slope is the direct sum's
        ("clt mean-past-lifetime t=0.5 n=30 lambda=4",
         ["clt", "--kind", "mean-past-lifetime", "--t", "0.5", "--n", "30", "--lambda", "4",
          "--reps", "20000", "--seed", "11", "--hist", HIST]),
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
    trees = sys.argv[1:]
    if len(trees) not in (1, 2):
        print("usage: python bench/cli_digest.py SRC_DIR [OTHER_SRC_DIR]", file=sys.stderr)
        return 2
    differ = False
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in (("data.txt", DATA), ("data200.txt", DATA_200),
                           ("data50.txt", "".join(DATA_200.splitlines(True)[::4])),
                           ("huge.txt", DATA_HUGE), ("big30.txt", DATA_BIG_30),
                           ("kink.txt", DATA_KINK), ("data2000.txt", DATA_2000)):
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for label, argv in manifests():
            digests = [digest(tree, workdir, argv) for tree in trees]
            if len(trees) == 1:
                print(f"{digests[0]}  {label}", flush=True)
            elif digests[0] != digests[1]:
                differ = True
                print(label, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
