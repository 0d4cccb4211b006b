"""Spans recorded around the package's layer boundaries, from outside.

:func:`install` replaces public functions at the names through which
the calling module reaches them (``trackscore.scoring.signature`` is
what the scoring code calls, ``trackscore.cli.signature`` what the CLI
calls) with wrappers that record a span: name, start, end, parent and
the operation it belongs to, plus a few counts read off the arguments
and results.  Spans stay in memory until :meth:`Tracer.dump`.
:func:`layer_metrics` reduces span lists to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module or class, attribute, span name).  A span name's first part is
# the package module that implements the layer.
TARGETS = (
    ("trackscore.scoring", "signature", "signature.signature"),
    ("trackscore.cli", "signature", "signature.signature"),
    ("trackscore.cli", "read_paths_csv", "signature.read_paths_csv"),
    ("trackscore.scoring", "lmul_matrix", "tensor_algebra.mul_matrix"),
    ("trackscore.scoring", "rmul_matrix", "tensor_algebra.mul_matrix"),
    ("trackscore.scoring", "affine_descent", "optimize.affine_descent"),
    ("trackscore.stochastic:SpiralModel", "sample_condition", "stochastic.sample"),
    ("trackscore.stochastic:SpiralModel", "sample_path", "stochastic.sample"),
    ("trackscore.stochastic:WarpedMixModel", "sample_condition", "stochastic.sample"),
    ("trackscore.stochastic:WarpedMixModel", "sample_path", "stochastic.sample"),
    ("trackscore.experiments", "brownian", "stochastic.sample"),
    ("trackscore.experiments", "power_warp", "stochastic.sample"),
    ("trackscore.experiments", "mutual_information", "scoring.mutual_information"),
    ("trackscore.experiments", "point_divergence", "scoring.point_divergence"),
    ("trackscore.experiments", "soft_dtw", "baselines.soft_dtw"),
    ("trackscore.experiments", "dtw", "baselines.dtw"),
    ("trackscore.cli", "bayes_act", "scoring.bayes_act"),
    ("trackscore.cli", "left_loss", "scoring.left_loss"),
    ("trackscore.cli", "right_loss", "scoring.right_loss"),
)

# Per-layer metrics: name -> unit.  Times and counts are per operation.
LAYER_METRICS = {
    "signature.signature_s": "s",
    "signature.segments": "count",
    "signature.calls_per_path": "calls/path",
    "signature.read_paths_csv_s": "s",
    "tensor_algebra.mul_matrix_s": "s",
    "optimize.affine_descent_s": "s",
    "optimize.iterations": "count",
    "optimize.unconverged": "count",
    "stochastic.sample_s": "s",
    "scoring.self_s": "s",
    "scoring.point_divergence_s": "s",
    "baselines.soft_dtw_s": "s",
    "baselines.dtw_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    """Span recorder for one process; spans are plain dicts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1
        # path objects signed in the current operation, held so that
        # their ids stay unique until the operation ends
        self._paths: dict[int, tuple[int, object]] = {}

    def start_op(self, op: int) -> None:
        self.op = op
        self._paths.clear()

    def _attrs(self, name: str, args, result) -> dict:
        if name == "signature.signature":
            path = args[0]
            index = self._paths.setdefault(id(path), (len(self._paths), path))[0]
            return {"segments": int(path.n_segments), "path": index}
        if name == "optimize.affine_descent":
            return {"iterations": int(result.iterations), "converged": bool(result.converged)}
        return {}

    def add(self, name: str, start: float, end: float, **attrs) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "op": self.op, **attrs}
        )
        return sid

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.add(name, time.perf_counter(), None)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()
        self.spans[sid].update(self._attrs(name, args, result))
        return result

    def dump(self, dest) -> None:
        with open(dest, "w") as f:
            json.dump(self.spans, f)


def _owner(spec: str):
    mod, _, cls = spec.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer) -> None:
    """Wraps every target for the rest of the process."""
    for spec, attr, name in TARGETS:
        owner = _owner(spec)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            return tracer.call(_name, _fn, *args, **kwargs)

        setattr(owner, attr, wrapper)


def _self_time(spans: list[dict], prefix: str) -> float:
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return sum(
        s["end"] - s["start"] - child.get(s["id"], 0.0)
        for s in spans if s["name"].startswith(prefix)
    )


def layer_metrics(span_lists: list[list[dict]], n_ops: int, wall_s: float) -> dict:
    """Per-operation layer metrics from the span lists of one run.

    Each list comes from one process, so span ids and parents are local
    to it.  ``calls_per_path`` is signature calls per distinct path
    object signed in an operation, over all operations.
    """
    total = {"calls": 0, "paths": 0}
    sums = dict.fromkeys(LAYER_METRICS, 0.0)
    inclusive = {
        "signature.signature": "signature.signature_s",
        "signature.read_paths_csv": "signature.read_paths_csv_s",
        "tensor_algebra.mul_matrix": "tensor_algebra.mul_matrix_s",
        "optimize.affine_descent": "optimize.affine_descent_s",
        "stochastic.sample": "stochastic.sample_s",
        "scoring.point_divergence": "scoring.point_divergence_s",
        "baselines.soft_dtw": "baselines.soft_dtw_s",
        "baselines.dtw": "baselines.dtw_s",
        "cli.import": "cli.import_s",
    }
    for spans in span_lists:
        per_op: dict[int, set] = {}
        for s in spans:
            key = inclusive.get(s["name"])
            if key is not None:
                sums[key] += s["end"] - s["start"]
            if s["name"] == "signature.signature":
                sums["signature.segments"] += s["segments"]
                total["calls"] += 1
                per_op.setdefault(s["op"], set()).add(s["path"])
            elif s["name"] == "optimize.affine_descent":
                sums["optimize.iterations"] += s["iterations"]
                sums["optimize.unconverged"] += not s["converged"]
        total["paths"] += sum(len(v) for v in per_op.values())
        sums["scoring.self_s"] += _self_time(spans, "scoring.")
        sums["cli.self_s"] += _self_time(spans, "cli.main")
    out = {k: v / n_ops for k, v in sums.items()}
    out["signature.calls_per_path"] = total["calls"] / total["paths"] if total["paths"] else 0.0
    out["trace.ops_per_s"] = n_ops / wall_s
    return out
