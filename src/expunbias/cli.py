"""Command-line front end.

Subcommands:

* ``estimate``  -- closed-form unbiased estimate from a data file
* ``verify``    -- quadrature unbiasedness sweep (or Tate-bias reproduction)
* ``compare``   -- variance comparison of the two pth-moment estimators
* ``clt``       -- standardized-replicate normality diagnostics

Every output (JSON or CSV) embeds the run manifest, and identical manifests
produce byte-identical outputs: no timestamps, explicit seeds only.  JSON
output is byte-identical to ``json.dumps(doc, sort_keys=True, indent=2)``:
``_json`` lays out the containers of containers and hands each flat dict or
list to CPython's C encoder, which ``json.dumps`` uses only without an
indent.  An output file is written in one binary write.

Exit codes: 0 success, 1 verification threshold exceeded, 2 input error,
3 domain/spec error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .errors import (DomainError, ExpunbiasError, InversionError, QuadratureError, RangeError,
                     SpecError, _check_n, _check_positive)
from .estimators import (_CATALOGUE, Family, FunctionalSpec, Kind, Sample, estimate,
                         target_value)
from .montecarlo import McConfig, _clt_summary, clt_replicates, variance_comparison
from .oracle import verify_row

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

_KIND_NAMES = {k.value: k for k in Kind if k is not Kind.CUSTOM}


class _InputError(Exception):
    pass


def _manifest(command: str, parameters: dict, output_format: str, *,
              input_path: Optional[str] = None, seed: Optional[int] = None) -> dict:
    """Reproducibility record serialized into every output."""
    return {"command": command, "parameters": parameters, "input_path": input_path,
            "seed": seed, "output_format": output_format, "tool_version": __version__}


def read_observations(path: str) -> list[float]:
    """Parse a data file: one strictly positive decimal per line; blank
    lines ignored; '#'-prefixed lines are comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _InputError(f"cannot read data file {path!r}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 1:
            raise _InputError(f"{path}:{lineno}: expected one value per line, got {line!r}")
        try:
            v = float(tokens[0])
        except ValueError:
            raise _InputError(f"{path}:{lineno}: not a number: {tokens[0]!r}") from None
        if not (math.isfinite(v) and v > 0.0):
            raise _InputError(f"{path}:{lineno}: observations must be strictly positive, "
                              f"got {tokens[0]!r}")
        values.append(v)
    if not values:
        raise _InputError(f"{path}: no observations found")
    return values


def _spec_from_args(args) -> FunctionalSpec:
    kind = _KIND_NAMES[args.kind]
    params = _CATALOGUE[kind].params
    for name in params:
        if getattr(args, name) is None:
            raise SpecError(f"{args.kind} requires --{name}")
    return FunctionalSpec(kind, **{name: getattr(args, name) for name in params})


def _number_list(text: str, convert, option: str) -> list:
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise _InputError(f"{option} expects comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    # json's C encoder for a dict or list of scalars at this depth, with the
    # newline and indent of its items in the item separator
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + _INDENT * (depth + 1), True, False, True)


def _json(value, depth: int = 0) -> str:
    # json.dumps(value, sort_keys=True, indent=2) at this depth: a container of
    # containers is laid out here, anything else by the C encoder; the keys of
    # a dict of containers must be strings, as the CLI's are
    pad = "\n" + _INDENT * depth
    if isinstance(value, dict) and any(isinstance(v, _CONTAINERS) for v in value.values()):
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_json(v, depth + 1)}"
                 for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and any(isinstance(v, _CONTAINERS) for v in value):
        items = [_json(v, depth + 1) for v in value]
        brackets = "[]"
    else:
        text = "".join(_flat_encoder(depth)(value, 0))
        if len(text) > 2 and text[0] in "[{":  # not empty: open the first item's line
            return text[0] + pad + _INDENT + text[1:-1] + pad + text[-1]
        return text
    inner = pad + _INDENT
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _render(manifest: dict, rows: list[dict]) -> str:
    if manifest["output_format"] == "json":
        return _json({"manifest": manifest, "results": rows}) + "\n"
    # RFC-4180-style CSV: header row, quoted where needed; the manifest is
    # carried in a dedicated column so each row is self-describing.
    manifest_json = json.dumps(manifest, sort_keys=True)
    fieldnames = sorted({k for row in rows for k in row}) + ["manifest"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = {k: row.get(k, "") for k in fieldnames[:-1]}
        out["manifest"] = manifest_json
        writer.writerow(out)
    return buf.getvalue()


def _check_writable(out: Optional[str]) -> None:
    # an output path found unwritable ends the run before any work; the
    # file itself is made only by _emit, so a run that fails makes none
    if out is None or out == "-":
        return
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise _InputError(f"cannot write {out!r}: no directory {directory!r}")
    if os.path.isdir(out) or not os.access(out if os.path.exists(out) else directory, os.W_OK):
        raise _InputError(f"cannot write {out!r}: not a writable file")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(text.encode("utf-8"))
        except OSError as exc:
            raise _InputError(f"cannot write {out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    spec = _spec_from_args(args)
    observations = read_observations(args.data)
    sample = Sample(observations)
    if args.engine == "closed":
        result = estimate(spec, sample)
    else:
        # generic Laplace-inversion path over the built-in transform registry
        from .laplace import (InversionConfig, InversionMethod,
                              builtin_transfer_function,
                              generic_unbiased_estimate)
        result = generic_unbiased_estimate(
            builtin_transfer_function(spec), sample,
            InversionConfig(method=InversionMethod(args.engine)), spec=spec)
    manifest = _manifest("estimate", {"kind": args.kind, **spec.params(),
                                      "engine": args.engine},
                         args.format, input_path=args.data)
    rows = [{
        "value": result.value,
        "kind": args.kind,
        **spec.params(),
        "n": result.n,
        "family": result.estimator_family.value,
    }]
    _emit(_render(manifest, rows), args.out)
    return EXIT_OK


_TATE_KIND_NAMES = [name for name, kind in _KIND_NAMES.items()
                    if _CATALOGUE[kind].atoms is not None]


def _cmd_verify(args) -> int:
    for option, value in (("--rel-tol", args.rel_tol), ("--threshold", args.threshold)):
        if not (value > 0.0 and math.isfinite(value)):
            raise _InputError(f"{option} must be finite and positive, got {value!r}")
    n_grid = [_check_n(n) for n in _number_list(args.n, int, "--n")]
    lam_grid = [_check_positive("lambda", lam)
                for lam in _number_list(getattr(args, "lambda"), float, "--lambda")]
    kinds = args.kinds.split(",") if args.kinds else (
        _TATE_KIND_NAMES if args.tate else list(_KIND_NAMES))
    for name in kinds:
        if name not in _KIND_NAMES:
            raise SpecError(f"unknown kind {name!r}")

    family = Family.TATE_BIASED if args.tate else Family.CLOSED_FORM_UNBIASED

    def grid():
        # the grid's rows, each with its lambdas above the target's pole
        for name in kinds:
            row = _CATALOGUE[_KIND_NAMES[name]]
            if args.tate and name not in _TATE_KIND_NAMES:
                raise SpecError(f"--tate supports only {', '.join(_TATE_KIND_NAMES)}")
            spec = FunctionalSpec(_KIND_NAMES[name], **{
                param: getattr(args, option)
                for param, option in zip(row.params, row.verify_args or row.params)})
            lams = [lam for lam in lam_grid if lam > row.pole(spec)]
            for n in n_grid:
                yield spec, n, lams

    def output_row(report):
        # one verified cell; a cell's error ends the run, the first in grid order
        if isinstance(report, ExpunbiasError):
            raise report
        spec, lam = report.spec, report.lam
        row = {
            "kind": spec.kind.value,
            **spec.params(),
            "n": report.n,
            "lambda": lam,
            "target": report.target,
            "oracle_expectation": report.oracle_expectation,
            "abs_bias": report.abs_bias,
            "rel_bias": report.rel_bias,
            "quad_err": report.quad_abs_err_estimate,
            "family": report.estimator_family.value,
        }
        if args.tate:
            row["tate_minus_corrected"] = report.target - target_value(spec, lam)
        return row

    # verify_row builds each row's estimator once, and one that does not build
    # (DomainError) leaves its row out.  Past a failed cell the rows are only
    # built, so any other error of a row or a kind comes before the cell's,
    # as if every row were checked before any quadrature.
    reports, cells, ok = [], 0, True
    for spec, n, lams in grid():
        try:
            row_reports = verify_row(spec, n, family, lams if ok else [], rel_tol=args.rel_tol)
        except DomainError:
            continue
        cells += len(lams)
        reports += row_reports
        ok = ok and not any(isinstance(report, ExpunbiasError) for report in row_reports)
    if not cells:
        raise DomainError("no cell of the verify grid lies in the kinds' domains")
    rows = [output_row(report) for report in reports]

    manifest = _manifest("verify", {
        "kinds": ",".join(kinds), "n": args.n, "lambda": getattr(args, "lambda"),
        "p": args.p, "moment_p": args.moment_p, "q": args.q, "t": args.t,
        "m": args.m, "rel_tol": args.rel_tol, "threshold": args.threshold,
        "tate": bool(args.tate),
    }, args.format)
    _emit(_render(manifest, rows), args.out)
    ok = all(row["rel_bias"] < args.threshold for row in rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_compare(args) -> int:
    config = McConfig(args.reps, args.n, getattr(args, "lambda"), args.seed)
    emp_unbiased, emp_mle, closed_unbiased, closed_mle = \
        variance_comparison(args.p, config)
    manifest = _manifest("compare", {
        "p": args.p, "n": args.n, "lambda": getattr(args, "lambda"),
        "reps": args.reps,
    }, args.format, seed=args.seed)
    rows = [{
        "p": args.p, "n": args.n, "lambda": getattr(args, "lambda"),
        "closed_unbiased": closed_unbiased,
        "closed_mle": closed_mle,
        "empirical_unbiased": emp_unbiased.variance,
        "empirical_mle": emp_mle.variance,
        "empirical_unbiased_mean": emp_unbiased.mean,
        "empirical_mle_mean": emp_mle.mean,
        "replications": emp_unbiased.replications,
    }]
    _emit(_render(manifest, rows), args.out)
    return EXIT_OK


def _cmd_clt(args) -> int:
    if args.hist_bins < 1:
        raise _InputError(f"--hist-bins must be at least 1, got {args.hist_bins}")
    spec = _spec_from_args(args)
    config = McConfig(args.reps, args.n, getattr(args, "lambda"), args.seed)
    z = clt_replicates(spec, config)
    zs = np.sort(z)  # one sort serves the KS statistic and the histogram
    summary = _clt_summary(z, zs)
    manifest = _manifest("clt", {
        "kind": args.kind, **spec.params(), "n": args.n,
        "lambda": getattr(args, "lambda"), "reps": args.reps,
        "hist_bins": args.hist_bins,
    }, args.format, seed=args.seed)
    skew, exkurt = summary.standardized_moments
    rows = [{
        "kind": args.kind, **spec.params(), "n": args.n,
        "lambda": getattr(args, "lambda"),
        "mean": summary.mean, "variance": summary.variance,
        "std_error": summary.std_error, "replications": summary.replications,
        "ks_statistic": summary.ks_statistic,
        "skewness": skew, "excess_kurtosis": exkurt,
    }]
    # the histogram first: an unwritable path leaves no result on stdout
    if args.hist:
        _emit(_histogram_csv(zs, args.hist_bins), args.hist)
    _emit(_render(manifest, rows), args.out)
    return EXIT_OK


def _histogram_csv(zs: np.ndarray, bins: int) -> str:
    # the sorted standardized replicates binned on fixed [-6, 6] edges for
    # plotting; every row is half-open, [a, b), so the counts sum to zs.size
    edges = np.linspace(-6.0, 6.0, bins + 1).tolist()
    below = np.searchsorted(zs, edges).tolist()  # replicates under each edge
    counts = np.diff([0, *below, zs.size]).tolist()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right", "count"])
    writer.writerows(zip(["-inf", *edges], [*edges, "inf"], counts))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expunbias",
        description="Unbiased estimation of exponential-rate functionals, "
                    "with built-in verification oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_spec_options(p):
        p.add_argument("--kind", required=True, choices=sorted(_KIND_NAMES))
        p.add_argument("--p", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--t", type=float)
        p.add_argument("--m", type=int)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_est = sub.add_parser("estimate", help="estimate a functional from data")
    add_spec_options(p_est)
    p_est.add_argument("--data", required=True, help="one positive value per line")
    p_est.add_argument("--engine", choices=("closed", "talbot", "gaver-stehfest"),
                       default="closed",
                       help="closed form (default), or numeric Laplace inversion: "
                            "talbot (the saddle-centred contour, every n) or "
                            "gaver-stehfest (real axis, n up to about 13)")
    add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_ver = sub.add_parser("verify", help="quadrature unbiasedness sweep")
    p_ver.add_argument("--kinds", help="comma-separated kinds (default: all)")
    p_ver.add_argument("--n", default="2,5,10", help="comma-separated sample sizes")
    p_ver.add_argument("--lambda", default="1.0", help="comma-separated rates")
    p_ver.add_argument("--p", type=float, default=0.5, help="rate-power exponent")
    p_ver.add_argument("--moment-p", type=float, default=2.0, help="moment exponent")
    p_ver.add_argument("--q", type=float, default=0.5, help="quantile/shortfall level")
    p_ver.add_argument("--t", type=float, default=0.5, help="time argument")
    p_ver.add_argument("--m", type=int, default=2, help="number of copies")
    p_ver.add_argument("--rel-tol", type=float, default=1e-9)
    p_ver.add_argument("--threshold", type=float, default=1e-7,
                       help="maximum acceptable relative bias")
    p_ver.add_argument("--tate", action="store_true",
                       help="verify the biased 1959 estimators of the atom kinds "
                            "against their expectations xi - lam xi'/(n-1) instead")
    add_common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="variance comparison for the pth moment")
    p_cmp.add_argument("--p", type=float, required=True)
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--lambda", type=float, required=True)
    p_cmp.add_argument("--reps", type=int, default=100000)
    p_cmp.add_argument("--seed", type=int, default=0)
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_clt = sub.add_parser("clt", help="normality diagnostics of standardized replicates")
    add_spec_options(p_clt)
    p_clt.add_argument("--n", type=int, required=True)
    p_clt.add_argument("--lambda", type=float, required=True)
    p_clt.add_argument("--reps", type=int, default=100000)
    p_clt.add_argument("--seed", type=int, default=0)
    p_clt.add_argument("--hist", help="write a CSV histogram of the replicates here")
    p_clt.add_argument("--hist-bins", type=int, default=100)
    add_common(p_clt)
    p_clt.set_defaults(func=_cmd_clt)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one per process serves
    # every call of main
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for out in (args.out, getattr(args, "hist", None)):
            _check_writable(out)
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, InversionError, RangeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ExpunbiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
