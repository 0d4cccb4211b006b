"""Command line interface.

Commands operate on long-format path CSV (``series_id,t,x1,...,xd``)
and write deterministic outputs: rerunning with identical arguments
produces byte-identical result files.  Every output file gets a JSON
manifest sidecar ``<file>.manifest.json`` recording the command,
parameters, package version and a wall-clock timestamp (the one field
that varies between reruns).

Exit codes: 0 success, 1 usage error, 2 data error (including
non-finite values in an input file), 3 numerical failure: the act's
quadratic form could not be factorised (the message gives its condition
estimate).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    DEFAULT_GAMMAS,
    DEFAULT_RHOS,
    format_csv,
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
    read_paths_csv,
    signature,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    signatures,
    time_augment,
)
from .tensor_algebra import DimensionMismatchError, to_text, unstack

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (
    CsvFormatError,
    DimensionMismatchError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    ValueError,
)


class NumericalFailure(RuntimeError):
    """An act solve failed: its quadratic form cannot be factorised."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to this tool's convention.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(k: int):
    def integer(tok: str) -> int:
        v = int(tok)
        if v < k:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {k}, got {tok}")
        return v

    return integer


def _at_least_one(tok: str) -> float:
    v = float(tok)
    if not v >= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value of at least 1, got {tok}")
    return v


def _positive_float(tok: str) -> float:
    v = float(tok)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {tok}")
    return v


def _unit_interval(tok: str) -> float:
    v = float(tok)
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {tok}")
    return v


def _gamma_list(tok: str) -> list[float]:
    try:
        vals = [float(t) for t in tok.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad gamma list {tok!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one gamma")
    try:
        sdtw_columns(vals)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return vals


def _rho_list(tok: str) -> list[float]:
    try:
        vals = [float(t) for t in tok.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rho list {tok!r}") from None
    if not vals or any(not 0.0 <= v <= 1.0 for v in vals):
        raise argparse.ArgumentTypeError("rhos must lie in [0, 1]")
    return vals


def _manifest(command: str, parameters: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_manifest(out_path: Path, manifest: dict) -> None:
    side = out_path.with_name(out_path.name + ".manifest.json")
    side.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_measure(path: str) -> EmpiricalMeasure:
    series = read_paths_csv(path)
    return EmpiricalMeasure.uniform(series.values())


def _result_csv(quantity, side, depth, value, n_samples, seed, iterations, grad_norm) -> str:
    header = "quantity,side,depth,value,n_samples,seed,iterations,grad_norm"
    seed_cell = "" if seed is None else str(seed)
    row = (
        f"{quantity},{side},{depth},{float(value)!r},{n_samples},"
        f"{seed_cell},{iterations},{float(grad_norm)!r}"
    )
    return header + "\n" + row + "\n"


def _emit_scalar(args, command, quantity, side, depth, value, n_samples,
                 seed, iterations, grad_norm, params, diagnostics=None) -> None:
    print(repr(float(value)))
    if args.out:
        out = Path(args.out)
        out.write_text(
            _result_csv(quantity, side, depth, value, n_samples, seed,
                        iterations, grad_norm)
        )
        manifest = _manifest(command, params)
        if diagnostics:
            manifest["diagnostics"] = diagnostics
        _write_manifest(out, manifest)


def cmd_sig(args) -> int:
    series = read_paths_csv(args.input)
    paths = list(series.values())
    if args.time_augment:
        paths = [time_augment(p) for p in paths]
    sigs = unstack(signatures(paths, args.depth), paths[0].dim)
    out = Path(args.out)
    written = {}
    for sid, sig in zip(series, sigs):
        if len(series) == 1:
            target = out
        else:
            target = out.with_name(f"{out.stem}-{sid}{out.suffix}")
        target.write_text(to_text(sig))
        written[sid] = target.name
        print(f"wrote {target}")
    _write_manifest(
        out,
        _manifest(
            "sig",
            {
                "input": str(args.input),
                "depth": args.depth,
                "time_augment": bool(args.time_augment),
                "files": written,
            },
        ),
    )
    return EXIT_OK


def _require_converged(*results) -> None:
    # results are BayesAct or MIEstimate records
    for r in results:
        if not r.converged:
            raise NumericalFailure(
                "the act's quadratic form is not positive definite to working "
                f"precision (condition estimate {r.condition:.3g})"
            )


def cmd_divergence(args) -> int:
    nu = _read_measure(args.a)
    mu = _read_measure(args.b)
    value, act_mu, act_nu = divergence_with_acts(nu, mu, args.side, args.depth)
    _require_converged(act_mu, act_nu)
    _emit_scalar(
        args, "divergence", "divergence", args.side, args.depth, value,
        len(nu) + len(mu), None,
        act_mu.iterations + act_nu.iterations,
        max(act_mu.grad_norm, act_nu.grad_norm),
        {"a": str(args.a), "b": str(args.b), "side": args.side,
         "depth": args.depth},
    )
    return EXIT_OK


def cmd_entropy(args) -> int:
    mu = _read_measure(args.input)
    act = bayes_act(mu, args.side, args.depth)
    _require_converged(act)
    # the act's objective is the expected loss at the act: the entropy
    _emit_scalar(
        args, "entropy", "entropy", args.side, args.depth, act.objective,
        len(mu), None, act.iterations, act.grad_norm,
        {"input": str(args.input), "side": args.side, "depth": args.depth},
    )
    return EXIT_OK


def cmd_score(args) -> int:
    xs = read_paths_csv(args.x)
    if len(xs) != 1:
        raise CsvFormatError(
            f"{args.x}: score expects exactly one series, found {len(xs)}"
        )
    (x,) = xs.values()
    mu = _read_measure(args.measure)
    value, act = score_with_act(x, mu, args.side, args.depth)
    _require_converged(act)
    _emit_scalar(
        args, "score", "score", args.side, args.depth, value,
        len(mu), None, act.iterations, act.grad_norm,
        {"x": str(args.x), "measure": str(args.measure), "side": args.side,
         "depth": args.depth},
    )
    return EXIT_OK


def cmd_mi(args) -> int:
    est = mi_point(
        args.model, args.rho, args.n_u, args.n_x, args.depth, args.seed,
        resolution=args.resolution, horizon=args.horizon, side=args.side,
    )
    _require_converged(est)
    _emit_scalar(
        args, "mi", "mutual_information", args.side, args.depth, est.mi,
        est.n_u * est.n_x + est.n_x, args.seed, est.iterations, est.grad_norm,
        {"model": args.model, "rho": args.rho, "n_u": args.n_u,
         "n_x": args.n_x, "depth": args.depth, "seed": args.seed,
         "resolution": args.resolution, "horizon": args.horizon,
         "side": args.side},
        diagnostics={"conditional_se": est.conditional_se},
    )
    return EXIT_OK


def cmd_experiment_warp(args) -> int:
    header, rows = run_warp_experiment(
        p_max=args.p_max,
        gammas=args.gammas,
        depth=args.depth,
        resolution=args.resolution,
        seed=args.seed,
        n_points=args.p_points,
    )
    out = Path(args.out)
    out.write_text(format_csv(header, rows))
    _write_manifest(
        out,
        _manifest(
            "experiment-warp",
            {"p_max": args.p_max, "gammas": args.gammas, "depth": args.depth,
             "resolution": args.resolution, "seed": args.seed,
             "p_points": args.p_points},
        ),
    )
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_experiment_mi(args, kind: str, command: str) -> int:
    header, rows, estimates = run_mi_experiment(
        kind,
        rhos=args.rhos,
        n_u=args.n_u,
        n_x=args.n_x,
        depth=args.depth,
        seed=args.seed,
        resolution=args.resolution,
    )
    _require_converged(*estimates)
    out = Path(args.out)
    out.write_text(format_csv(header, rows))
    _write_manifest(
        out,
        _manifest(
            command,
            {"rhos": args.rhos, "n_u": args.n_u, "n_x": args.n_x,
             "depth": args.depth, "seed": args.seed,
             "resolution": args.resolution},
        ),
    )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_experiment_mi_scalar(args) -> int:
    return _cmd_experiment_mi(args, "spiral", "experiment-mi-scalar")


def cmd_experiment_mi_warp(args) -> int:
    return _cmd_experiment_mi(args, "warped-mix", "experiment-mi-warp")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="trackscore",
        description="Scoring rules, entropies and divergences for "
                    "unparametrized sequential data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sig", parents=[], help="signatures of CSV series")
    p.add_argument("--input", required=True, help="path CSV (series_id,t,x1,...)")
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--time-augment", action="store_true",
                   help="prepend the time grid as coordinate 0")
    p.add_argument("--out", required=True,
                   help="output record file (per-series suffix when several)")
    p.set_defaults(func=cmd_sig)

    p = sub.add_parser("divergence", help="divergence between two path files")
    p.add_argument("--a", required=True, help="outcome measure CSV")
    p.add_argument("--b", required=True, help="forecast measure CSV")
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--out", default=None, help="optional result CSV")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("entropy", help="entropy of a path file")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("score", help="score one path against a measure")
    p.add_argument("--x", required=True, help="single-series outcome CSV")
    p.add_argument("--measure", required=True, help="forecast measure CSV")
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("mi", help="mutual information for a simulator model")
    p.add_argument("--model", choices=["spiral", "warped-mix"], required=True)
    p.add_argument("--rho", type=_unit_interval, required=True)
    p.add_argument("--n-u", type=_int_at_least(2), default=20)
    p.add_argument("--n-x", type=_int_at_least(2), default=50)
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=_positive_float, default=1e-2)
    p.add_argument("--horizon", type=_positive_float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("experiment-warp",
                       help="distortion sweep: geometric vs DTW family")
    p.add_argument("--p-max", type=_at_least_one, default=25.0)
    p.add_argument("--p-points", type=_int_at_least(2), default=13)
    p.add_argument("--gammas", type=_gamma_list, default=list(DEFAULT_GAMMAS))
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--resolution", type=_positive_float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_warp)

    for name, fn in (
        ("experiment-mi-scalar", cmd_experiment_mi_scalar),
        ("experiment-mi-warp", cmd_experiment_mi_warp),
    ):
        p = sub.add_parser(name, help=f"mutual information sweep ({name.split('-')[-1]})")
        p.add_argument("--rhos", type=_rho_list, default=list(DEFAULT_RHOS))
        p.add_argument("--n-u", type=_int_at_least(2), default=20)
        p.add_argument("--n-x", type=_int_at_least(2), default=50)
        p.add_argument("--depth", type=_int_at_least(0), default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--resolution", type=_positive_float, default=1e-2)
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"trackscore: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"trackscore: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
