"""The benchmark tracer wraps package functions by name.

``perfbench/tracing.py`` reaches each layer through the module that
calls it (``trackscore.scoring.affine_descent``,
``trackscore.cli.left_loss``, ...).  A rename or a dropped import there
breaks only traced benchmark runs, so this test resolves every target
without installing anything.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{spec}.{attr}"
        for spec, attr, _ in tracing.TARGETS
        if not hasattr(tracing._owner(spec), attr)
    ]
    assert tracing.TARGETS and not missing, missing
