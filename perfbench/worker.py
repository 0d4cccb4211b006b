"""Runs one workload in a fresh interpreter: set-up, then a closed loop.

Started by run.py, which times set-up from this process's launch to the
``ready`` line.  The loop runs whole rounds of the workload's operations
until ``--seconds`` have passed (at least two rounds, so that reruns can
be compared), then writes every operation's time, status and output,
the peak resident memory and, when traced, the spans to ``--results``.
The work happens here (mi, warp) or in one trackscore child process
per operation (cli); nothing runs concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

MIN_ROUNDS = 2
CLI_TIMEOUT_S = 60


def _setup_mi(seed, workdir, tracer):
    from trackscore import experiments

    def op(kind, rho, op_seed):
        def run():
            est = experiments.mi_point(
                kind, rho, workloads.MI_N_U, workloads.MI_N_X, workloads.MI_DEPTH, op_seed
            )
            out = {"mi": est.mi, "entropy": est.entropy,
                   "conditional_entropies": list(est.conditional_entropies),
                   "converged": est.converged}
            return est.converged, out
        return f"{kind}/rho={rho:g}", run

    return [op(*args) for args in workloads.mi_ops(seed)]


def _setup_warp(seed, workdir, tracer):
    from trackscore import experiments

    def run():
        header, rows = experiments.run_warp_experiment(seed=workloads.warp_seed(seed))
        return True, {"header": header, "rows": rows}

    return [("warp", run)]


def _setup_cli(seed, workdir, tracer):
    import trackscore.cli  # noqa: F401  (import cost belongs to set-up)

    files = {}
    for name, points in workloads.cli_arrays(seed).items():
        files[name] = str(workdir / f"{name}.csv")
        workloads.write_csv(points, files[name])
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def op(name, argv, dest):
        def run():
            if tracer is None:
                cmd = [sys.executable, "-m", "trackscore.cli", *argv]
                child_env = env
            else:
                spans = workdir / f"spans-{tracer.op}.json"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
                child_env = dict(env, PERFBENCH_SPANS=str(spans),
                                 PERFBENCH_T0=repr(time.monotonic()),
                                 PERFBENCH_OP=str(tracer.op))
            proc = subprocess.run(cmd, env=child_env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode == 0, {"returncode": proc.returncode,
                                          "stderr": proc.stderr[-2000:], "dest": dest}
        return name, run

    return [op(*spec) for spec in workloads.cli_ops(files, str(workdir))]


SETUP = {"mi": _setup_mi, "warp": _setup_warp, "cli": _setup_cli}


def _collect_cli_output(out: dict, workdir: Path, tracer, child_spans: list) -> None:
    # Read outside the timed region: the next round overwrites the
    # result file, and each child leaves its spans in a file of its own.
    dest = Path(out.get("dest", ""))
    if dest.is_file():
        out["text"] = dest.read_text()
    if tracer is None:
        return
    spans = workdir / f"spans-{tracer.op}.json"
    if spans.is_file():
        child_spans.append(json.loads(spans.read_text()))
        spans.unlink()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--results", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = SETUP[args.workload](args.seed, workdir, tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records, child_spans = [], []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for kind, run in ops:
            if tracer is not None:
                tracer.start_op(len(records))
            error = None
            t0 = time.perf_counter()
            try:
                ok, out = run()
            except Exception as exc:  # the program's failure, counted per operation
                ok, out, error = False, {}, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if args.workload == "cli":
                _collect_cli_output(out, workdir, tracer, child_spans)
            records.append({"kind": kind, "seconds": elapsed, "ok": ok,
                            "output": out, "error": error})
        rounds += 1
    wall = time.perf_counter() - start

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "ops": records,
        "rounds": rounds,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "spans": None if tracer is None else [tracer.spans] + child_spans,
    }
    with open(args.results, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
