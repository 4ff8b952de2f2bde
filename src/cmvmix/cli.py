"""Command-line interface: fit, simulate, detect, evaluate, sweep, replicate.

Exit codes: 0 success, 2 usage, 3 I/O or parse failure, 4 numeric or
convergence failure, 5 schema mismatch.  Requested artifacts and tables go
to stdout; diagnostics go to stderr.
"""

import argparse
import json
import sys

import numpy as np

from . import dataio
from .ecm import FitConfig, Kind, MixtureModel, check_seed, fit
from .errors import CmvmixError, DimensionMismatch, ParseError, SchemaError, ShapeError
from .metrics import adjusted_rand_index, misclassification_rate, outlier_report
from .selection import bic_of, sweep
from .simulate import add_uniform_noise, generate, perturb, reference_model
from .studies import DEFAULT_N, NOISE_RANGE, run_single_outlier_study, run_uniform_noise_study

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_SCHEMA = 5


class UsageError(CmvmixError):
    pass


def _parse_kv(text, what, fields):
    """Parse 'k=v,k=v' descriptors like obs=6,c=10 into a dict, converting
    each value by its field's type in fields (a name -> int/float map)."""
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"malformed {what} descriptor {text!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in fields:
            raise UsageError(f"unknown {what} field {key!r} (expected {sorted(fields)})")
        try:
            out[key] = fields[key](val)
        except ValueError:
            raise UsageError(
                f"bad {fields[key].__name__} for {what} field {key!r}: {val!r}") from None
    return out


def _parse_g_range(text):
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"bad --g range {text!r}") from None
        if lo < 1 or hi < lo:
            raise UsageError(f"--g range must be increasing and >= 1, got {text!r}")
        return list(range(lo, hi + 1))
    try:
        g = int(text)
    except ValueError:
        raise UsageError(f"bad --g value {text!r}") from None
    if g < 1:
        raise UsageError("--g must be >= 1")
    return [g]


def _read_model_spec(path) -> MixtureModel:
    """A plain matrix normal mixture; generate draws no other kind, so a spec
    naming another kind or carrying alpha or eta is malformed."""
    doc = dataio._load_json(path)
    try:
        if not isinstance(doc, dict):
            raise TypeError("top level must be an object")
        if doc.get("kind", Kind.MVN.value) != Kind.MVN.value or any(
                "alpha" in c or "eta" in c for c in doc["components"]):
            raise ValueError("simulate draws the plain matrix normal only (kind mvn, no alpha or eta)")
        return dataio._model_from_doc(doc, Kind.MVN)
    except (DimensionMismatch, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model spec: {exc}") from None


def _add_fit_options(p):
    """The chain options of fit and sweep, defaulting to FitConfig's."""
    p.add_argument("--starts", type=int, default=FitConfig.n_starts)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument("--tol", type=float, default=FitConfig.tol)
    p.add_argument("--max-iter", type=int, default=FitConfig.max_iter)


def _fit_config(args, **cell) -> FitConfig:
    return FitConfig(n_starts=args.starts, seed=args.seed, tol=args.tol,
                     max_iter=args.max_iter, **cell)


def _cmd_fit(args) -> int:
    data = dataio.read_dataset(args.data)
    if args.g < 1:
        raise UsageError("--g must be >= 1")
    result = fit(data, _fit_config(args, g=args.g), Kind(args.model))
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out:
        dataio.write_fit(result, args.out)
    n_bad = int(np.count_nonzero(result.bad_flags)) if result.bad_flags is not None else 0
    print(f"kind={result.model.kind.value} G={result.model.g} "
          f"loglik={result.loglik:.4f} BIC={bic_of(result, data):.4f} bad={n_bad}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    check_seed(args.seed)  # simulate and replicate build no FitConfig to refuse it
    model = _read_model_spec(args.spec) if args.spec else reference_model()
    data = generate(model, args.n, args.seed)
    if args.perturb:
        kv = _parse_kv(args.perturb, "--perturb", {"obs": int, "c": float})
        if "obs" not in kv or "c" not in kv:
            raise UsageError("--perturb needs obs=<unit>,c=<shift>")
        data = perturb(data, kv["obs"], kv["c"])
    if args.noise:
        kv = _parse_kv(args.noise, "--noise", dict.fromkeys(("frac", "lo", "hi"), float))
        if "frac" not in kv:
            raise UsageError("--noise needs at least frac=<fraction>")
        data = add_uniform_noise(data, kv["frac"], kv.get("lo", NOISE_RANGE[0]),
                                 kv.get("hi", NOISE_RANGE[1]), args.seed + 1)
    dataio.write_dataset(data, args.out)
    n_bad = int(np.count_nonzero(~data.good_flags)) if data.good_flags is not None else 0
    print(f"n={data.n} r={data.r} p={data.p} known_bad={n_bad} -> {args.out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    result = dataio.read_fit(args.fit)
    names = None
    if args.data:
        names = dataio.read_dataset(args.data).unit_names
    report = outlier_report(result, names=names)
    if args.format == "json":
        print(json.dumps(report, indent=1))
        return EXIT_OK
    for cluster in report["clusters"]:
        print(f"cluster {cluster['cluster']}: alpha={cluster['alpha']:.4f} "
              f"eta={cluster['eta']:.4f}")
        for bp in cluster["bad_points"]:
            print(f"  unit {bp['unit']} ({bp['name']}): v = {bp['v']:.4e}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    result = dataio.read_fit(args.fit)
    data = dataio.read_dataset(args.data)
    if data.true_labels is None:
        raise UsageError(f"{args.data} has no true labels; evaluation needs them")
    mask = None
    if args.exclude_bad_truth:
        if data.good_flags is None:
            raise UsageError(f"{args.data} has no good_flags; cannot exclude bad truth")
        mask = data.good_flags
    ari = adjusted_rand_index(data.true_labels, result.hard_labels, mask=mask)
    mcr = misclassification_rate(data.true_labels, result.hard_labels, mask=mask)
    print(f"ARI {ari:.4f}")
    print(f"MCR {100 * mcr:.2f}%")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    data = dataio.read_dataset(args.data)
    kinds = [Kind(k.strip()) for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise UsageError("--models must name at least one of mvn,cmvn")
    gs = _parse_g_range(args.g)
    result = sweep(data, kinds, gs, _fit_config(args))
    print(f"{'kind':<6} {'G':>2} {'BIC':>14}")
    for i, e in enumerate(result.entries):
        mark = " *" if i == result.best else ""
        bic_text = "failed" if e.bic is None else f"{e.bic:.4f}"
        print(f"{e.kind.value:<6} {e.g:>2} {bic_text:>14}{mark}")
    if args.out:
        dataio.write_sweep(result, args.out)
    return EXIT_OK


def _cmd_replicate(args) -> int:
    check_seed(args.seed)  # simulate and replicate build no FitConfig to refuse it
    if args.study == "single-outlier":
        report = run_single_outlier_study(args.seed, starts=args.starts)
    else:
        report = run_uniform_noise_study(args.seed, starts=args.starts)
    doc = report.to_dict()
    if args.out:
        dataio._dump_canonical(doc, args.out)
    for check in report.checks:
        status = {True: "PASS", False: "FAIL", None: "noted"}[check.passed]
        print(f"[{status}] {check.name}: {check.observed}")
    return EXIT_OK if report.asserted_ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmvmix",
        description="Robust clustering of three-way data with contaminated "
                    "matrix-variate normal mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one mixture model to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["mvn", "cmvn"], default="cmvn")
    p.add_argument("--g", type=int, required=True)
    _add_fit_options(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="model-spec JSON (weights + components)")
    src.add_argument("--paper-table1", action="store_true",
                     help="use the built-in two-group 2x4 generator")
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", help='e.g. "obs=6,c=10"')
    p.add_argument("--noise", help='e.g. "frac=0.1,lo=-8,hi=8"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="report bad points of a saved fit")
    p.add_argument("--fit", required=True)
    p.add_argument("--data")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="score a saved fit against true labels")
    p.add_argument("--fit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--exclude-bad-truth", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="fit a grid of (kind, G) cells and rank by BIC")
    p.add_argument("--data", required=True)
    p.add_argument("--models", default="mvn,cmvn")
    p.add_argument("--g", default="1:3")
    _add_fit_options(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("replicate", help="run a sensitivity study end to end")
    p.add_argument("--study", choices=["single-outlier", "uniform-noise"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=FitConfig.n_starts)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ParseError, ShapeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (CmvmixError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
