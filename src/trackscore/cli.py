"""Command line interface.

Commands operate on long-format path CSV (``series_id,t,x1,...,xd``)
and write deterministic outputs: rerunning with identical arguments
produces byte-identical result files.  Every output file gets a JSON
manifest sidecar ``<file>.manifest.json`` recording the command, as
parameters every option it parsed except ``--out``, the package version
and a wall-clock timestamp (the one field that varies between reruns).

Exit codes: 0 success, 1 usage error, 2 data error (including
non-finite values in an input file), 3 numerical failure: the act's
quadratic form could not be factorised (the message gives its condition
estimate).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    DEFAULT_GAMMAS,
    DEFAULT_RHOS,
    mi_point,
    run_mi_experiment,
    run_warp_experiment,
    sdtw_columns,
)
from .scoring import (
    EmpiricalMeasure,
    bayes_act,
    divergence_with_acts,
    left_loss,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    right_loss,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    score_with_act,
)
from .signature import (
    CsvFormatError,
    format_csv,
    read_paths_csv,
    signature,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    signatures,
    time_augment,
)
from .tensor_algebra import to_text, unstack

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# CsvFormatError and DimensionMismatchError are ValueErrors, and the
# file errors OSErrors; an allocation can fail below the memory guards,
# for example under an address-space limit
_DATA_ERRORS = (ValueError, OSError, MemoryError)


class NumericalFailure(RuntimeError):
    """An act solve failed: its quadratic form cannot be factorised."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to this tool's convention.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, expected: str):
    # named after convert, so that a token it cannot convert keeps
    # argparse's "invalid int value" / "invalid float value" message
    def parse(tok: str):
        v = convert(tok)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {tok}")
        return v

    parse.__name__ = convert.__name__
    return parse


_natural = _checked(int, lambda v: v >= 0, "an integer of at least 0")
_at_least_two = _checked(int, lambda v: v >= 2, "an integer of at least 2")
_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite positive value")
_at_least_one = _checked(float, lambda v: 1.0 <= v < math.inf, "a finite value of at least 1")


def _list_of(item, check=None):
    # comma-separated values parsed by item; a ValueError from check
    # refuses the whole list
    def parse(tok: str) -> list:
        vals = [item(t) for t in tok.split(",") if t.strip()]
        if not vals:
            raise argparse.ArgumentTypeError("expected at least one value")
        if check is not None:
            try:
                check(vals)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return vals

    parse.__name__ = f"{item.__name__} list"
    return parse


def _parameters(args) -> dict:
    """Every option the command parsed, except ``--out``."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}


def _write_manifest(out_path: Path, args, extra: dict | None = None) -> None:
    manifest = {
        "command": args.command,
        "parameters": _parameters(args),
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **(extra or {}),
    }
    side = out_path.with_name(out_path.name + ".manifest.json")
    side.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_measure(path: str) -> EmpiricalMeasure:
    return EmpiricalMeasure.uniform(read_paths_csv(path).values())


def _require_converged(*results) -> None:
    # results are BayesAct or MIEstimate records
    for r in results:
        if not r.converged:
            raise NumericalFailure(
                "the act's quadratic form is not positive definite to working "
                f"precision (condition estimate {r.condition:.3g})"
            )


RESULT_HEADER = "quantity,side,depth,value,n_samples,seed,iterations,grad_norm".split(",")


def _emit_scalar(args, quantity, value, n_samples, *results, seed=None, diagnostics=None) -> int:
    """With ``--out``, writes ``value``'s result row, then prints
    ``value``, so a failed write prints nothing.  ``results`` are the
    converged acts or estimates behind ``value``."""
    _require_converged(*results)
    if args.out:
        out = Path(args.out)
        row = [
            quantity, args.side, args.depth, value, n_samples, seed,
            sum(r.iterations for r in results), max(r.grad_norm for r in results),
        ]
        out.write_text(format_csv(RESULT_HEADER, [row]))
        _write_manifest(out, args, diagnostics and {"diagnostics": diagnostics})
    print(repr(float(value)))
    return EXIT_OK


def _write_table(args, header, rows) -> int:
    out = Path(args.out)
    out.write_text(format_csv(header, rows))
    _write_manifest(out, args)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sig(args) -> int:
    series = read_paths_csv(args.input)
    paths = list(series.values())
    if args.time_augment:
        paths = [time_augment(p) for p in paths]
    out = Path(args.out)
    # every file name is checked before any file is written
    names = [f"{out.stem}-{sid}{out.suffix}" for sid in series] if len(series) > 1 else [out.name]
    for sid, name in zip(series, names):
        if "\0" in name or Path(name).name != name:
            raise ValueError(f"{args.input}: series id {sid!r} cannot be part of a file name")
    sigs = unstack(signatures(paths, args.depth), paths[0].dim)
    for name, sig in zip(names, sigs):
        target = out.with_name(name)
        target.write_text(to_text(sig))
        print(f"wrote {target}")
    _write_manifest(out, argparse.Namespace(**vars(args), files=dict(zip(series, names))))
    return EXIT_OK


def cmd_divergence(args) -> int:
    nu = _read_measure(args.a)
    mu = _read_measure(args.b)
    value, act_mu, act_nu = divergence_with_acts(nu, mu, args.side, args.depth)
    return _emit_scalar(args, "divergence", value, len(nu) + len(mu), act_mu, act_nu)


def cmd_entropy(args) -> int:
    mu = _read_measure(args.input)
    act = bayes_act(mu, args.side, args.depth)
    # the act's objective is the expected loss at the act: the entropy
    return _emit_scalar(args, "entropy", act.objective, len(mu), act)


def cmd_score(args) -> int:
    xs = read_paths_csv(args.x)
    if len(xs) != 1:
        raise CsvFormatError(f"{args.x}: score expects exactly one series, found {len(xs)}")
    (x,) = xs.values()
    mu = _read_measure(args.measure)
    value, act = score_with_act(x, mu, args.side, args.depth)
    return _emit_scalar(args, "score", value, len(mu), act)


def cmd_mi(args) -> int:
    # the options other than --model are mi_point's keywords
    params = _parameters(args)
    est = mi_point(params.pop("model"), **params)
    return _emit_scalar(
        args, "mutual_information", est.mi, est.n_u * est.n_x + est.n_x, est,
        seed=args.seed, diagnostics={"conditional_se": est.conditional_se},
    )


def cmd_experiment_warp(args) -> int:
    return _write_table(args, *run_warp_experiment(
        p_max=args.p_max, gammas=args.gammas, depth=args.depth,
        resolution=args.resolution, seed=args.seed, n_points=args.p_points,
    ))


# the simulator model each MI sweep command runs
MI_SWEEP_MODELS = {"experiment-mi-scalar": "spiral", "experiment-mi-warp": "warped-mix"}


def cmd_experiment_mi(args) -> int:
    # the sweep's options are run_mi_experiment's keywords
    header, rows, estimates = run_mi_experiment(MI_SWEEP_MODELS[args.command], **_parameters(args))
    _require_converged(*estimates)
    return _write_table(args, header, rows)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="trackscore",
        description="Scoring rules, entropies and divergences for "
                    "unparametrized sequential data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared between commands
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=_natural, default=4)
    scalar = argparse.ArgumentParser(add_help=False)
    scalar.add_argument("--side", choices=["left", "right"], default="right")
    scalar.add_argument("--out", default=None, help="optional result CSV")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--n-u", type=_at_least_two, default=20)
    sim.add_argument("--n-x", type=_at_least_two, default=50)
    sim.add_argument("--seed", type=_natural, default=0)
    sim.add_argument("--resolution", type=_positive_float, default=1e-2)

    p = sub.add_parser("sig", parents=[depth], help="signatures of CSV series")
    p.add_argument("--input", required=True, help="path CSV (series_id,t,x1,...)")
    p.add_argument("--time-augment", action="store_true",
                   help="prepend the time grid as coordinate 0")
    p.add_argument("--out", required=True,
                   help="output record file (per-series suffix when several)")
    p.set_defaults(func=cmd_sig)

    p = sub.add_parser("divergence", parents=[depth, scalar],
                       help="divergence between two path files")
    p.add_argument("--a", required=True, help="outcome measure CSV")
    p.add_argument("--b", required=True, help="forecast measure CSV")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("entropy", parents=[depth, scalar], help="entropy of a path file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("score", parents=[depth, scalar],
                       help="score one path against a measure")
    p.add_argument("--x", required=True, help="single-series outcome CSV")
    p.add_argument("--measure", required=True, help="forecast measure CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("mi", parents=[depth, scalar, sim],
                       help="mutual information for a simulator model")
    p.add_argument("--model", choices=["spiral", "warped-mix"], required=True)
    p.add_argument("--rho", type=_unit_interval, required=True)
    p.add_argument("--horizon", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("experiment-warp", parents=[depth],
                       help="distortion sweep: geometric vs DTW family")
    p.add_argument("--p-max", type=_at_least_one, default=25.0)
    p.add_argument("--p-points", type=_at_least_two, default=13)
    p.add_argument("--gammas", type=_list_of(float, sdtw_columns),
                   default=list(DEFAULT_GAMMAS))
    p.add_argument("--resolution", type=_positive_float, default=1e-2)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_warp)

    for name in MI_SWEEP_MODELS:
        p = sub.add_parser(name, parents=[depth, sim],
                           help=f"mutual information sweep ({name.split('-')[-1]})")
        p.add_argument("--rhos", type=_list_of(_unit_interval), default=list(DEFAULT_RHOS))
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_experiment_mi)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"trackscore: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"trackscore: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
