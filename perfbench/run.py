"""trackscore benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {mi,cli,warp} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its ``src/``, nothing needs installing.  Set-up is timed over several
fresh interpreters (each imports the package and builds the inputs);
the last one then runs the workload's rounds for ``--seconds`` (see
worker.py).  Every output of an operation that reported success is
checked (checks.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A run whose program is missing, or whose worker fails,
exits non-zero without that line; a run with a wrong output prints it
with ``correct: false`` and exits 1.  The run's figures, with the
machine they came from, and the spans of a traced run go to
``perfbench/_results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for set-up, the measuring worker included.
SETUP_REPEATS = 9
# Longer than any round plus set-up; a run must end within 180 s.
WORKER_TIMEOUT_S = 150

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn_worker(args, workdir: Path, results: Path | None, trace: int) -> float:
    """Runs one worker; returns seconds from launch to its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--trace", str(trace)]
    if results is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--seconds", str(args.seconds), "--results", str(results)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} ran over {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready\n" or code != 0:
        raise BenchError(f"worker for {args.workload} exited with code {code}")
    return ready


def _check_mi(ok_ops: dict, seed: int) -> None:
    for kind, rho, op_seed in workloads.mi_ops(seed):
        outs = ok_ops.get(f"{kind}/rho={rho:g}")
        if outs:
            checks.check_reruns(outs, f"{kind} rho={rho:g}")
            checks.check_mi(outs[0], kind, rho, op_seed, workloads.MI_N_U,
                            workloads.MI_N_X, workloads.MI_DEPTH)


def _check_warp(ok_ops: dict, seed: int) -> None:
    outs = ok_ops.get("warp")
    if outs:
        checks.check_reruns(outs, "warp")
        checks.check_warp(outs[0]["header"], outs[0]["rows"], workloads.warp_seed(seed))


def _check_cli(ok_ops: dict, seed: int) -> None:
    arr = workloads.cli_arrays(seed)
    depth = workloads.CLI_DEPTH
    for name, argv in workloads.CLI_ROUND:
        texts = [out.get("text") for out in ok_ops.get(name, [])]
        if not texts:
            continue
        checks.check_reruns(texts, name)
        if texts[0] is None:
            raise checks.WrongOutput(f"{name} reported success but wrote no result")
        command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        if command == "sig":
            checks.check_signature_record(texts[0], arr[opts["--input"]][0], depth)
            continue
        side = opts.get("--side", "right")
        value = checks.result_value(texts[0], command, side, depth)
        if command == "entropy":
            checks.check_entropy(value, arr[opts["--input"]], side, depth)
        elif command == "score":
            checks.check_score(value, arr[opts["--x"]], arr[opts["--measure"]], side, depth)
        else:
            checks.check_divergence(value, arr[opts["--a"]], arr[opts["--b"]], side, depth)


CHECKS = {"mi": _check_mi, "warp": _check_warp, "cli": _check_cli}


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _failure(op: dict) -> str:
    return f"{op['kind']}: {op['error'] or op['output'].get('stderr') or 'not converged'}"


def run(args) -> tuple[dict, dict]:
    if not (SRC / "trackscore" / "__init__.py").is_file():
        raise BenchError(f"no trackscore package under {SRC}")
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    try:
        # set-up is an end-to-end metric, so only untraced runs repeat it
        setups = [_spawn_worker(args, work / f"setup{i}", None, 0)
                  for i in range(0 if args.trace else SETUP_REPEATS - 1)]
        setups.append(_spawn_worker(args, work / "run", work / "ops.json", args.trace))
        res = json.loads((work / "ops.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = res["ops"]

    ok_ops: dict[str, list] = {}
    for op in ops:
        if op["ok"]:
            ok_ops.setdefault(op["kind"], []).append(op["output"])
    try:
        CHECKS[args.workload](ok_ops, args.seed)
        problem = None
    except checks.WrongOutput as exc:
        problem = str(exc)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = tracing.layer_metrics(res["spans"], len(ops), res["wall_s"])
        units = tracing.LAYER_METRICS
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(res["spans"]))
    else:
        metrics = {
            "ops_per_s": len(ops) / res["wall_s"],
            "op_p50_s": statistics.median(op["seconds"] for op in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END
    summary = {
        "correct": problem is None,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    kinds = dict.fromkeys(op["kind"] for op in ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": res["rounds"], "wall_s": res["wall_s"],
        "setups_s": setups, "machine": machine(), "problem": problem,
        "kind_p50_s": {k: statistics.median(op["seconds"] for op in ops if op["kind"] == k)
                       for k in kinds},
        "failures": sorted({_failure(op) for op in ops if not op["ok"]}),
        **summary,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return summary, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    try:
        summary, record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if record["problem"]:
        print(f"perfbench: wrong output: {record['problem']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
