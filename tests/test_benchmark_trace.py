"""The benchmark's tracer finds every function it wraps.

``perfbench/run.py`` looks each traced function up by name under the
module its callers read it from, so a module that stops importing one of
those names would make ``--trace 1`` fail.
"""

import importlib
from pathlib import Path

import dnacode
from dnacode import search
from dnacode.search import Strategy, run_search

from oracles import mk_params

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


def test_exact_search_calls_its_traced_stages_through_the_module(monkeypatch):
    # the tracer replaces these attributes of dnacode.search, so the exact
    # search must look each one up there for its span to be timed
    called = []
    for name in ("build_graph", "max_code", "enumerate_space"):
        original = getattr(search, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(search, name, recorded)
    code, row = run_search(mk_params(2, 4, 3, 2, "1", 1, 0), Strategy.EXACT, restrict=(2, 0))
    assert row.space_size <= search.MAX_EXACT_VERTICES and code
    assert called == ["build_graph", "enumerate_space", "max_code"]
