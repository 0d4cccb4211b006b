"""Per-layer report: every workload traced, with the tracing overhead.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this runs run.py once untraced and twice traced on
the same seed, then prints one markdown table: the per-layer metrics
of the first traced run, whether the counts of the two traced runs are
identical, and the tracing overhead, ``1 - traced ops_per_s / untraced
ops_per_s``.  The machine (nproc, Python, numpy) is printed with it,
and everything is also written to ``perfbench/_results/report.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import machine  # noqa: E402

COUNTS = ("signature.segments", "signature.calls_per_path",
          "optimize.iterations", "optimize.unconverged")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=True)
    summary = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in summary["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)
    out = {}
    for w in workloads.WORKLOADS:
        plain = _run(w, args.seed, args.seconds, 0)
        traced, again = (_run(w, args.seed, args.seconds, 1) for _ in range(2))
        out[w] = {
            "end_to_end": plain,
            "per_layer": traced,
            "counts_repeat": all(traced[k] == again[k] for k in COUNTS),
            "trace_overhead": 1.0 - traced["trace.ops_per_s"] / plain["ops_per_s"],
        }
    report = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
              "workloads": out}
    (HERE / "_results" / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    m = report["machine"]
    print(f"nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}; "
          f"seed {args.seed}, {args.seconds} s per run\n")
    names = list(workloads.WORKLOADS)
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, unit in tracing.LAYER_METRICS.items():
        cells = " | ".join(f"{out[w]['per_layer'][metric]:.4g}" for w in names)
        print(f"| `{metric}` | {unit} | {cells} |")
    print("| `ops_per_s`, untraced | 1/s | "
          + " | ".join(f"{out[w]['end_to_end']['ops_per_s']:.4g}" for w in names) + " |")
    print("| tracing overhead | share | "
          + " | ".join(f"{out[w]['trace_overhead']:.3f}" for w in names) + " |")
    print("| counts repeat | | " + " | ".join(str(out[w]["counts_repeat"]) for w in names) + " |")
    return 0 if all(v["counts_repeat"] for v in out.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
