"""The benchmark tracer wraps package functions by name.

``perfbench/tracing.py`` reaches each layer through the module that
calls it (``trackscore.scoring.affine_descent``,
``trackscore.cli.left_loss``, ...).  A rename or a dropped import there
breaks only traced benchmark runs, so this test resolves every target
without installing anything.  In the other direction, each import
kept only for the tracer must name a target, so that a stale one fails
here instead of lingering.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACER_ONLY = "# noqa: F401  (wrapped by name in perfbench/tracing.py)"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{spec}.{attr}"
        for spec, attr, _ in tracing.TARGETS
        if not hasattr(tracing._owner(spec), attr)
    ]
    assert tracing.TARGETS and not missing, missing


def test_every_tracer_only_import_is_a_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = {(spec, attr) for spec, attr, _ in tracing.TARGETS}
    marked = []
    for src in sorted((ROOT / "src" / "trackscore").glob("*.py")):
        for line in src.read_text().splitlines():
            if line.endswith(TRACER_ONLY):
                # "name," inside an import list or "from .mod import name"
                name = line.split("#")[0].strip().rstrip(",").split()[-1]
                marked.append((f"trackscore.{src.stem}", name))
    stale = [f"{mod}.{name}" for mod, name in marked if (mod, name) not in targets]
    assert marked and not stale, stale
