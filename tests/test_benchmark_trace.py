"""The benchmark's tracer finds every function it wraps.

``perfbench/run.py`` looks each traced function up by name under the
module its callers read it from, so a module that stops importing one of
those names would make ``--trace 1`` fail.
"""

import importlib
from pathlib import Path

import dnacode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    for name in ("channel", "cli", "codec", "io", "matching", "metrics", "model", "search"):
        importlib.import_module(f"dnacode.{name}")
    targets = run.trace_targets(dnacode)
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
