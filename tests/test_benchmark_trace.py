"""The benchmark's tracer finds every function it wraps.

``perfbench/run.py`` looks each traced function up by name under the
module its callers read it from, so a module that stops importing one of
those names would make ``--trace 1`` fail.
"""

import importlib
import random
from pathlib import Path

import dnacode
from dnacode import cli, search
from dnacode.io import TokenFile, code_lines, message_lines, params_header, write_text
from dnacode.search import Strategy, run_search

from oracles import mk_params, random_message

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


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's
    arguments; returns the list of records."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cli_reads_each_file_once_through_the_io_module(monkeypatch, tmp_path, capsys):
    # the tracer times every read as dnacode.io.read_blocks, so the CLI
    # must look it up there, once per input file
    p = mk_params(8, 16, 8, 4, "1", 1, 1)
    rng = random.Random(3907)
    code = [random_message(rng, p) for _ in range(150)]
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("code", "a", "b", "pool")}
    # no L in the code file's header: the L in force comes from --params
    header = params_header(p).replace(f",L={p.length}", "")
    write_text(paths["code"], [header, *code_lines(code, p)[1:]])
    write_text(paths["a"], [params_header(p), *message_lines(code[0])])
    write_text(paths["b"], [params_header(p), *message_lines(code[1])])
    reads = _counted(monkeypatch, dnacode.io, "read_blocks")
    length_checks = _counted(monkeypatch, TokenFile, "check_length")
    shape_checks = _counted(monkeypatch, cli, "_check_strand_shape")
    a, b, pool = paths["a"], paths["b"], paths["pool"]
    for argv, want in [
        (["verify", "--code", paths["code"], "--params", "L=16"], 1),
        (["min-distance", "--code", paths["code"], "--params", "L=16"], 1),
        (["simulate", "--message", a, "--seed", "5", "--out", pool], 1),
        (["distance", "--a", a, "--b", b], 2),
        (["intersect", "--a", a, "--b", b], 2),
        (["oracle-intersect", "--a", a, "--b", a, "--cap", "10"], 2),
        (["member", "--pool", pool, "--message", a], 2),
        (["search", "--strategy", "greedy", "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0"], 0),
    ]:
        reads.clear()
        length_checks.clear()
        shape_checks.clear()
        status = cli.run(argv)
        capsys.readouterr()
        assert status in (0, 3) and len(reads) == want, argv
        if argv[0] in ("verify", "min-distance"):
            # once per file, not once per codeword
            assert (len(length_checks), len(shape_checks)) == (1, 1), argv
