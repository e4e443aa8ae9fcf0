"""Compatibility graphs and clique-based code search."""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dnacode
from dnacode import (
    CompatibilityGraph,
    Regime,
    SpaceTooLarge,
    Strategy,
    TooLargeForExact,
    ValidationError,
    VerdictKind,
    budget_bound,
    build_graph,
    classify_regime,
    enumerate_space,
    in_restricted_space,
    is_dna_correcting,
    max_code,
    min_dna_distance,
    run_search,
)
from dnacode import search
from dnacode.cli import run
from dnacode.codec import PairTest
from dnacode.search import MAX_EXACT_VERTICES, _colour_count, _exact_clique, _greedy_clique

from conftest import run_under_python_O
from oracles import first_max_clique, mk_params


def test_graph_construction_validates_masks():
    p = mk_params(1, 2, 1, 2, "1", 1, 0)
    vertices = tuple(enumerate_space(p))
    # each edge is stored once, at its lower end
    g = CompatibilityGraph(p, vertices, (0b0010, 0b0000, 0b0000, 0b0000))
    assert g.edge_count == 1 and g.edges() == [(0, 1)]
    with pytest.raises(ValidationError):
        CompatibilityGraph(p, vertices, (0b0010, 0b0001, 0b0000, 0b0000))  # bit below its vertex
    with pytest.raises(ValidationError):
        CompatibilityGraph(p, vertices, (0b0000, 0b0001, 0b0000, 0b0000))  # below only
    with pytest.raises(ValidationError):
        CompatibilityGraph(p, vertices, (0b0001, 0b0000, 0b0000, 0b0000))  # self loop
    with pytest.raises(ValidationError):
        CompatibilityGraph(p, vertices, (1 << 4, 0, 0, 0))  # out of range
    for masks in [(0, 0, 0), (0, 0, 0, 0, 0)]:
        with pytest.raises(ValidationError) as caught:
            CompatibilityGraph(p, vertices, masks)
        assert str(caught.value) == f"adjacency has {len(masks)} masks for 4 vertices"


def test_noiseless_graph_is_complete():
    p = mk_params(1, 2, 1, 2, "1", 0, 0)
    g = build_graph(p)
    assert g.vertex_count == 4
    assert g.edge_count == 6
    assert len(max_code(g, Strategy.EXACT)) == 4


def test_single_index_flip_graph():
    # vertices 00,01,10,11; balls intersect exactly when data agrees
    p = mk_params(1, 2, 1, 2, "1", 1, 0)
    g = build_graph(p)
    assert g.vertex_count == 4
    assert g.edge_count == 4
    labels = [str(z.strands[0]) for z in g.vertices]
    edges = {(labels[i], labels[j]) for i, j in g.edges()}
    assert edges == {("00", "01"), ("00", "11"), ("01", "10"), ("10", "11")}
    assert len(max_code(g, Strategy.EXACT)) == 2


def test_all_balls_overlap_yields_single_codeword():
    p = mk_params(1, 2, 1, 2, "1", 1, 1)
    g = build_graph(p)
    assert g.edge_count == 0
    for strategy in Strategy:
        assert len(max_code(g, strategy)) == 1


def test_empty_space_yields_empty_code():
    p = mk_params(2, 3, 2, 2, "1", 1, 0)
    # keeping only index pairs at distance 2 leaves {00,11} and {01,10},
    # each with four data combinations
    g = build_graph(p, restrict=(1, 1))
    assert g.vertex_count == 8
    # data distance is always <= 1 here and index distance <= 2, so the
    # (2, 1) restriction excludes every two-strand message
    strict = build_graph(p, restrict=(2, 1))
    assert strict.vertex_count == 0
    assert max_code(strict, Strategy.EXACT) == ()


def test_restricted_graph_drops_vertices():
    p = mk_params(2, 3, 2, 2, "1", 1, 0)
    whole = build_graph(p)
    distinct = build_graph(p, restrict=(p.index_len, 0))
    assert whole.vertex_count == 24
    assert distinct.vertex_count == 12


def test_greedy_never_beats_exact():
    # without noise every set of distinct messages is a code, so any
    # adjacency over a prefix of the space is a valid graph
    p = mk_params(1, 4, 1, 2, "1", 0, 0)
    space = tuple(enumerate_space(p))
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randint(1, 10)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    masks[i] |= 1 << j
        g = CompatibilityGraph(p, space[:n], tuple(masks))
        assert len(max_code(g, Strategy.GREEDY)) <= len(max_code(g, Strategy.EXACT))


def test_exact_matches_exhaustive_on_real_graphs():
    cases = [
        mk_params(1, 2, 1, 2, "1", 1, 0),
        mk_params(1, 3, 1, 2, "1", 1, 1),
        mk_params(1, 3, 2, 2, "1/2", 1, 1),
        mk_params(1, 3, 1, 3, "2/3", 0, 1),
        mk_params(1, 3, 2, 2, "1", 2, 0),
    ]
    for p in cases:
        g = build_graph(p)
        assert g.vertex_count <= 12
        exact = max_code(g, Strategy.EXACT)
        assert exact == tuple(g.vertices[i] for i in first_max_clique(g.adjacency))
        greedy = max_code(g, Strategy.GREEDY)
        assert len(greedy) <= len(exact)


def test_exact_matches_exhaustive_on_restricted_graph():
    p = mk_params(2, 3, 2, 2, "1", 1, 0)
    g = build_graph(p, restrict=(p.index_len, 0))
    assert g.vertex_count == 12
    exact = max_code(g, Strategy.EXACT)
    assert exact == tuple(g.vertices[i] for i in first_max_clique(g.adjacency))


def test_exact_finds_the_first_maximum_clique_on_random_graphs():
    # noiseless, so any adjacency over a prefix of the space is valid
    p = mk_params(1, 4, 1, 2, "1", 0, 0)
    space = tuple(enumerate_space(p))
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(0, 12)
        density = rng.random()
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    masks[i] |= 1 << j
        g = CompatibilityGraph(p, space[:n], tuple(masks))
        first = tuple(space[i] for i in first_max_clique(masks))
        assert max_code(g, Strategy.EXACT) == first, masks


def test_clique_routines_read_only_the_upper_half():
    # each routine takes the lowest vertex first and meets its mask only
    # with the vertices above it, so a symmetric graph's lower half is
    # never read
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(0, 14)
        density = rng.random()
        upper, symmetric = [0] * n, [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    upper[i] |= 1 << j
                    symmetric[i] |= 1 << j
                    symmetric[j] |= 1 << i
        assert _exact_clique(upper) == _exact_clique(symmetric), symmetric
        assert _greedy_clique(n, lambda v, among: upper[v] & among) == _greedy_clique(
            n, lambda v, among: symmetric[v] & among
        ), symmetric
        for _ in range(5):
            subset = rng.getrandbits(n) if n else 0
            assert _colour_count(upper, subset) == _colour_count(symmetric, subset), symmetric


def test_exact_has_a_vertex_limit():
    p = mk_params(2, 4, 2, 2, "1", 1, 0)
    g = build_graph(p)
    assert g.vertex_count == 96
    with pytest.raises(TooLargeForExact):
        max_code(g, Strategy.EXACT)
    greedy = max_code(g, Strategy.GREEDY)
    assert len(greedy) >= 1


# (params, restriction) for the greedy search, as run lazily and on the graph
GREEDY_SPACES = [
    ((3, 4, 2, 2, "1", 1, 0), None),  # tau = 1, 256 messages
    ((1, 3, 1, 2, "1", 1, 1), None),
    # high tau below M*K/(2M-1): classes (True, True), (False, True), (False, False)
    ((2, 4, 2, 4, "1/2", 1, 0), None),
    # high tau at or above it: classes (True, False), (False, False)
    ((3, 4, 2, 4, "3/4", 1, 0), None),
    ((2, 3, 2, 4, "1/4", 1, 0), None),  # low tau
    ((2, 3, 2, 2, "1", 1, 0), (2, 0)),
    ((2, 3, 2, 2, "1/2", 1, 0), (2, 0)),
    ((2, 4, 2, 4, "3/4", 1, 1), (1, 1)),
    ((2, 3, 2, 2, "1", 1, 0), (2, 1)),  # empty
    ((2, 6, 3, 2, "1", 1, 0), None),  # tau = 1, 1,792 messages
]


def test_lazy_greedy_finds_the_graph_greedy_code():
    classes = set()
    for shape, restrict in GREEDY_SPACES:
        p = mk_params(*shape)
        graph = build_graph(p, restrict)
        code, row = run_search(p, Strategy.GREEDY, restrict)
        assert code == max_code(graph, Strategy.GREEDY), (shape, restrict)
        assert row.space_size == graph.vertex_count
        if classify_regime(p) is Regime.HIGH_TAU:
            below = p.tau_budget < budget_bound(p)
            classes.update(
                (
                    in_restricted_space(z, 2 * p.e_i, 2 * p.e_d),
                    below and in_restricted_space(z, p.e_i, p.e_d),
                )
                for z in graph.vertices
            )
    assert classes == {(True, True), (True, False), (False, True), (False, False)}


def test_greedy_decides_only_the_rows_it_reads(monkeypatch):
    p = mk_params(3, 4, 2, 2, "1", 1, 0)
    expected = max_code(build_graph(p), Strategy.GREEDY)
    asked = []  # the pairs each row was asked to decide
    no_row = PairTest.no_row

    def recording(self, messages):
        row = no_row(self, messages)

        def recorded(i, among):
            asked.append(among.bit_count())
            return row(i, among)

        return recorded

    monkeypatch.setattr(PairTest, "no_row", recording)
    code, row = run_search(p, Strategy.GREEDY)
    n = row.space_size
    assert n == 256 and code == expected
    # one row per codeword, each among the vertices still compatible
    assert len(asked) == len(code)
    assert sum(asked) < n * (n - 1) // 2 // 10


# (name, --params, --restrict) of two spaces past MAX_EXACT_VERTICES
# messages: 352 restricted ones and a whole space of 1,792
EXACT_REFUSALS = [
    ("restricted", "M=2,L=5,l=3,K=2,tau=1,ei=1,ed=0", "2,0"),
    ("whole", "M=2,L=6,l=3,K=2,tau=1,ei=1,ed=0", None),
]
REFUSAL_TEXT = "error: exact search limited to 64 vertices, got more than 64\n"


def exact_refusals(directory):
    """Run ``search --strategy exact`` on each of EXACT_REFUSALS with a
    ``no_row`` that counts its calls and an ``enumerate_space`` that counts
    the messages it yields; returns per space (name, exit code, stdout,
    stderr, messages yielded, rows asked for, files written)."""
    yielded, rows = [0], [0]
    enumerate_space, no_row = search.enumerate_space, PairTest.no_row

    def counted(*args):
        for msg in enumerate_space(*args):
            yielded[0] += 1
            yield msg

    def counted_rows(self, messages):
        rows[0] += 1
        return no_row(self, messages)

    search.enumerate_space, PairTest.no_row = counted, counted_rows
    results = []
    try:
        for name, spec, restrict in EXACT_REFUSALS:
            yielded[0] = rows[0] = 0
            out_file, table = directory / f"{name}.txt", directory / f"{name}.csv"
            argv = ["search", "--strategy", "exact", "--params", spec,
                    "--out", str(out_file), "--table", str(table)]
            if restrict:
                argv += ["--restrict", restrict]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv)
            written = [f.name for f in (out_file, table) if f.exists()]
            results.append(
                (name, code, stdout.getvalue(), stderr.getvalue(), yielded[0], rows[0], written)
            )
    finally:
        search.enumerate_space, PairTest.no_row = enumerate_space, no_row
    return results


EXPECTED_REFUSALS = [
    (name, 3, "", REFUSAL_TEXT, MAX_EXACT_VERTICES + 1, 0, [])
    for name, _, _ in EXACT_REFUSALS
]


def test_exact_refuses_a_large_space_before_deciding_a_pair(monkeypatch, tmp_path):
    # the search stops at the 65th message, restricted or not, decides no
    # pair, exits 3 and writes nothing
    assert exact_refusals(tmp_path) == EXPECTED_REFUSALS

    def refuse(self, messages):
        raise AssertionError("no pair may be decided")

    monkeypatch.setattr(PairTest, "no_row", refuse)
    restricted = mk_params(2, 5, 3, 2, "1", 1, 0)
    with pytest.raises(TooLargeForExact, match="limited to 64 vertices, got more than 64$"):
        run_search(restricted, Strategy.EXACT, restrict=(2, 0))
    # a whole space over the cap is refused by the cap, as any search is
    p = mk_params(2, 6, 3, 2, "1", 1, 0)
    with pytest.raises(SpaceTooLarge):
        run_search(p, Strategy.EXACT, cap=1000)
    with pytest.raises(TooLargeForExact) as caught:
        run_search(p, Strategy.EXACT)
    assert caught.value.limit == MAX_EXACT_VERTICES and not hasattr(caught.value, "size")


OPTIMIZED_EXACT_REFUSALS = """
import tempfile
from pathlib import Path

from test_search import EXPECTED_REFUSALS, exact_refusals

if __debug__:
    raise SystemExit("expected python -O")
with tempfile.TemporaryDirectory() as directory:
    results = exact_refusals(Path(directory))
if results != EXPECTED_REFUSALS:
    raise SystemExit(repr(results))
"""


def test_exact_refuses_a_large_space_before_deciding_a_pair_under_python_O():
    done = run_under_python_O(OPTIMIZED_EXACT_REFUSALS, timeout=120)
    assert done.returncode == 0, done.stderr


def test_search_outputs_are_verified_codes():
    p = mk_params(2, 3, 2, 2, "1/2", 1, 0)
    for strategy in Strategy:
        code, row = run_search(p, strategy)
        if code:
            assert is_dna_correcting(code, p).kind is VerdictKind.CORRECTING
        assert row.code_size == len(code)
        assert row.space_size == 24
        assert row.strategy is strategy
        assert row.seconds >= 0
        assert row.restrict is None


def test_search_records_restriction():
    p = mk_params(2, 3, 2, 2, "1", 1, 0)
    code, row = run_search(p, Strategy.EXACT, restrict=(2, 0))
    assert row.restrict == (2, 0)
    assert row.space_size == 12
    assert all(len({s.data_bits for s in z.strands}) == z.m for z in code)


def test_distance_threshold_equals_graph_search_for_distinct_data():
    # tau = 1, e_d = 0, all-distinct data: a set is a clique exactly when
    # its minimum distance clears 2 e_i, so both maxima agree
    from itertools import combinations

    p = mk_params(2, 3, 2, 2, "1", 1, 0)
    g = build_graph(p, restrict=(p.index_len, 0))
    best_clique = len(max_code(g, Strategy.EXACT))

    vertices = list(g.vertices)
    best_by_distance = 1
    for size in range(2, len(vertices) + 1):
        if any(
            min_dna_distance(list(subset))[0] > 2 * p.e_i
            for subset in combinations(vertices, size)
        ):
            best_by_distance = size
    assert best_clique == best_by_distance


# the CLI, refusing to run unless the interpreter's optimisation mode is
# the one asked for, so the -O run cannot silently keep its asserts
CLI_IN_MODE = """
import sys
from dnacode.cli import run
if __debug__ != (sys.argv[1] == "debug"):
    raise SystemExit("wrong interpreter mode")
sys.exit(run(sys.argv[2:]))
"""


def test_search_output_is_the_same_under_python_O(tmp_path):
    src = str(Path(dnacode.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    searches = {
        "greedy": ["--strategy", "greedy", "--params", "M=3,L=4,l=2,K=4,tau=3/4,ei=1,ed=0"],
        # tau = 1: the greedy decides the most pairs at this shape
        "greedy-tau-one": ["--strategy", "greedy", "--params", "M=3,L=4,l=2,K=2,tau=1,ei=1,ed=0"],
        "exact": ["--strategy", "exact", "--restrict", "2,0",
                  "--params", "M=2,L=4,l=3,K=2,tau=1,ei=1,ed=0"],
        # 64 messages whose pair answers Yes iff their data multisets
        # agree: a complete 36-partite graph, which a branch and bound
        # cutting only on candidate counts does not finish
        "exact-multipartite": ["--strategy", "exact",
                               "--params", "M=2,L=4,l=1,K=2,tau=1,ei=1,ed=0"],
    }
    first_lines = {}
    for name, argv in searches.items():
        results = []
        for mode, flags in [("debug", []), ("optimized", ["-O"])]:
            out = tmp_path / f"{name}-{mode}.txt"
            done = subprocess.run(
                [sys.executable, *flags, "-c", CLI_IN_MODE, mode,
                 "search", *argv, "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            results.append((done.stdout, out.read_text(encoding="utf-8")))
        assert results[0] == results[1], name
        assert results[0][0].startswith("SIZE=") and results[0][1].startswith("%params")
        first_lines[name] = results[0][0]
    assert first_lines["exact-multipartite"] == "SIZE=36\n"
