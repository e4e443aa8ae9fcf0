"""Matching engine: perfect matchings, Hall violators, bottleneck
assignment, and read-assignment feasibility."""

import math
import random
from collections import Counter
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dnacode import (
    Answer,
    BipartiteGraph,
    HallViolator,
    Message,
    PerfectMatching,
    ShapeMismatch,
    SizeMismatch,
    ValidationError,
    WrongPoolSize,
    assignment_feasible,
    balls_intersect,
    sample_ball,
    bijection_within_or_violator,
    bottleneck_bijection,
    perfect_matching_or_violator,
)
from dnacode import matching
from dnacode.cli import run
from dnacode.matching import (
    bijection_graph,
    bottleneck_value,
    has_bijection_within,
    has_perfect_matching,
)
from dnacode.model import Strand, bits_to_string, split_popcount

from conftest import run_under_python_O
from test_codec import on_path
from oracles import (
    all_bipartite_graphs,
    flip_positions,
    is_optimal_bottleneck,
    max_matching,
    mk_message,
    mk_params,
    networkx_max_flow,
    oracle_assignment_feasible,
    oracle_exists_bijection,
    oracle_has_perfect_matching,
    oracle_max_matching_size,
    random_graph,
    random_message,
    reference_pool,
    reference_read_network,
    reference_space,
    scipy_has_perfect_matching,
    strand_from_fields,
)


def graph_from_rows(*rows):
    return BipartiteGraph(len(rows), max((max(r) + 1 for r in rows if r), default=1), rows)


def test_graph_normalizes_and_validates():
    g = BipartiteGraph(2, 2, ((1, 0, 1), (0,)))
    assert g.adjacency == ((0, 1), (0,))
    assert g.edge_count == 3
    with pytest.raises(Exception):
        BipartiteGraph(1, 1, ((1,),))


def test_identity_graph_has_identity_matching():
    g = graph_from_rows((0,), (1,), (2,))
    result = perfect_matching_or_violator(g)
    assert isinstance(result, PerfectMatching)
    assert result.pairs == ((0, 0), (1, 1), (2, 2))


def test_pigeonhole_violator():
    g = BipartiteGraph(2, 2, ((0,), (0,)))
    result = perfect_matching_or_violator(g)
    assert isinstance(result, HallViolator)
    assert result.left_set == frozenset({0, 1})
    assert result.neighborhood == frozenset({0})


def test_forced_matching_resolves_the_contended_vertex():
    g = BipartiteGraph(2, 2, ((0, 1), (0,)))
    result = perfect_matching_or_violator(g)
    assert isinstance(result, PerfectMatching)
    assert result.pairs == ((0, 1), (1, 0))


def test_long_augmenting_path_does_not_exhaust_the_stack():
    # left i -> {i, i+1}, last left -> {0}: the second phase augments along
    # one alternating path through all 3000 left vertices
    n = 3000
    rows = tuple((i, i + 1) for i in range(n - 1)) + ((0,),)
    result = perfect_matching_or_violator(BipartiteGraph(n, n, rows))
    assert isinstance(result, PerfectMatching)
    assert result.pairs == tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)


def _chain_pool(n):
    """A pool of n reads in the ball of an n-strand message, whose flow
    needs an augmenting path through every strand.

    Strand j has index field j and data field d_j, step j of an induced
    walk in the low 52 data bits: consecutive steps are 1 bit apart and
    the others at least 2 (a boustrophedon over the grid of two 51-step
    walks {0}, {0,1}, {1}, {1,2}, ... on 26 bits each).  The reads are
    strands 1..n-1 and one read with index field n and data field
    d_0 ^ (1 << 52), which only strand 0 can explain, as its one noisy
    read; each strand j >= 1 is also within (11, 1) of the copies of
    strands j - 1 and j + 1.
    """
    line = [1 << (i // 2) | (i % 2) << (i // 2 + 1) for i in range(51)]
    cells = []
    for r in range(0, 51, 2):
        row = [(r, c) for c in range(51)]
        if r % 4:
            row.reverse()
        if cells:
            cells.append((r - 1, row[0][1]))
        cells += row
    walk = [line[r] << 26 | line[c] for r, c in cells[:n]]
    p = mk_params(n, 64, 11, 1, 1, 11, 1)
    z = Message(tuple(strand_from_fields(j, d, 64, 11) for j, d in enumerate(walk)))
    odd = strand_from_fields(n, walk[0] ^ 1 << 52, 64, 11)
    reads = [s.bits for s in z.strands[1:]] + [odd.bits]
    return p, z, reference_pool(reads, 64)


def test_read_network_takes_a_1000_strand_augmenting_path(capsys, tmp_path):
    p, z, pool = _chain_pool(1000)
    assert assignment_feasible(pool, z, p) is True

    header = "%params M=1000,L=64,l=11,K=1,tau=1,ei=11,ed=1\n"
    msg = tmp_path / "m.txt"
    msg.write_text(header + "".join(f"{s}\n" for s in z.strands), encoding="utf-8")
    reads = tmp_path / "pool.txt"
    reads.write_text(
        "".join(f"{bits_to_string(v, 64)}\n" for v, c in pool.entries for _ in range(c)),
        encoding="utf-8",
    )
    code = run(["member", "--pool", str(reads), "--message", str(msg)])
    assert (code, capsys.readouterr().out) == (0, "YES\n")


def test_matching_exhaustive_small_graphs():
    for nl in range(1, 4):
        for nr in range(1, 4):
            for g in all_bipartite_graphs(nl, nr):
                match_l, _ = max_matching(g)
                size = sum(1 for v in match_l if v >= 0)
                assert size == oracle_max_matching_size(g)
                result = perfect_matching_or_violator(g)
                if oracle_has_perfect_matching(g):
                    assert isinstance(result, PerfectMatching)
                else:
                    assert isinstance(result, HallViolator)


def test_matching_random_graphs_agree_with_oracle():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, max_side=6)
        match_l, match_r = max_matching(g)
        size = sum(1 for v in match_l if v >= 0)
        assert size == oracle_max_matching_size(g)
        # the two sides describe the same matching
        assert sorted((u, v) for u, v in enumerate(match_l) if v >= 0) == sorted(
            (u, v) for v, u in enumerate(match_r) if u >= 0
        )


def test_bitmask_matching_agrees_with_oracle():
    rng = random.Random(29)
    graphs = [g for nl in range(1, 4) for nr in range(1, 4) for g in all_bipartite_graphs(nl, nr)]
    graphs += [random_graph(rng, max_side=7) for _ in range(400)]
    outcomes = []
    for g in graphs:
        rows = [sum(1 << v for v in nbrs) for nbrs in g.adjacency]
        expected = oracle_has_perfect_matching(g)
        assert has_perfect_matching(rows) == expected, g.adjacency
        # a No that no empty row explains needs the augmenting-path search
        outcomes.append((expected, all(rows)))
    assert outcomes.count((True, True)) >= 100
    assert outcomes.count((False, True)) >= 100


def test_bitmask_matching_follows_a_long_augmenting_path():
    # left u < n-1 takes right u first; the last left vertex has only right
    # 0, so its augmenting path passes through every other left vertex
    n = 3000
    rows = [(1 << u) | (1 << (u + 1)) for u in range(n - 1)] + [1]
    assert has_perfect_matching(rows)
    assert not has_perfect_matching(rows[:-1] + [1, 1])


def test_violators_are_tight():
    rng = random.Random(13)
    seen = 0
    while seen < 100:
        g = random_graph(rng, max_side=5)
        result = perfect_matching_or_violator(g)
        if isinstance(result, PerfectMatching):
            continue
        seen += 1
        y = result.left_set
        neighborhood = frozenset().union(*(g.adjacency[u] for u in y)) if y else frozenset()
        # recorded neighborhood is exactly N(Y); any further edge from Y
        # would land outside it and change the certificate
        assert result.neighborhood == frozenset(neighborhood)
        assert len(y) > len(result.neighborhood)


def test_violator_has_the_maximum_deficiency():
    # Konig-Ore: the maximum matching leaves max |Y| - |N(Y)| left
    # vertices unmatched, so a violator attaining it is the deficiency certificate
    rng = random.Random(19)
    graphs = [g for nl in range(1, 4) for nr in range(1, 4) for g in all_bipartite_graphs(nl, nr)]
    graphs += [random_graph(rng, max_side=7) for _ in range(300)]
    for g in graphs:
        result = perfect_matching_or_violator(g)
        unmatched = 0
        if isinstance(result, HallViolator):
            unmatched = len(result.left_set) - len(result.neighborhood)
        assert g.left_size - unmatched == oracle_max_matching_size(g)


def test_perfect_matching_pairs_form_a_bijection():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, max_side=6)
        result = perfect_matching_or_violator(g)
        if isinstance(result, PerfectMatching):
            lefts = [u for u, _ in result.pairs]
            rights = [v for _, v in result.pairs]
            assert lefts == list(range(g.left_size))
            assert len(set(rights)) == g.left_size
            assert all(v in g.adjacency[u] for u, v in result.pairs)


def test_bijection_graph_edges_follow_the_bound():
    z1 = mk_message(2, "001", "010")
    z2 = mk_message(2, "101", "011")
    g = bijection_graph(z1, z2, (1, 0))
    # sorted sides: z1 = [001, 010], z2 = [011, 101]; 001 is one index
    # bit from both rights with equal data, 010 differs in data from 011
    # and by two index bits from 101
    assert g.adjacency == ((0, 1), ())


def _reference_rows(left, right, data_len, bound):
    return [
        [
            j
            for j, b in enumerate(right)
            if all(d <= r for d, r in zip(split_popcount(a ^ b, data_len), bound))
        ]
        for a in left
    ]


def _kernel_rows(left, right, data_len, bound, index_len, path, step=0):
    """``_rows_within``'s rows at ``step`` on ``path``, as
    ``test_codec.on_path`` takes it, and the store its lookup used,
    "table" or "dict", or None when the rows were scanned."""
    rows, stores = on_path(
        lambda: list(matching._rows_within(left, right, data_len, bound, index_len, step)),
        path,
    )
    assert len(stores) <= 1
    return rows, (stores.pop() if stores else None)


def _kernel_sides(rng, index_len, data_len, size, distinct):
    """A right side of ``size`` packed strands, with distinct index fields
    (a message, in canonical order) or drawn from a few shared ones (the
    strand values of a space), and a left side of strands near and far
    from it."""
    if distinct:
        indices = sorted(rng.sample(range(1 << index_len), min(size, 1 << index_len)))
    else:
        shared = rng.sample(range(1 << index_len), min(3, 1 << index_len))
        indices = sorted(rng.choice(shared) for _ in range(size))
    right = [(i << data_len) | rng.randrange(1 << data_len) for i in indices]
    if not distinct:
        right = sorted(set(right))
    length = index_len + data_len
    near = [b ^ (1 << rng.randrange(length)) ^ (1 << rng.randrange(length)) for b in right]
    far = [rng.randrange(1 << length) for _ in range(4)]
    return rng.sample(near, min(len(near), 6)) + far + right[:2], right


def row_kernel_agreement():
    """Rows of ``_rows_within`` with the guard as it is and forced to a
    table, a dict and a scan, on sides of 24 strands at each index width
    from 1 to 11 and every bound, at step 0 (every row sees all of the
    right side) and at steps 1 and 3 (row u sees positions from u * step
    on): returns the disagreements with ``_reference_rows`` or with the
    store each path must use, and the number of row sets built on each
    (path, store)."""
    disagreements = []
    used = Counter()
    rng = random.Random(1212)
    data_len = 3
    for index_len in range(1, 12):
        for distinct in (True, False):
            for r1 in range(index_len + 1):
                left, right = _kernel_sides(rng, index_len, data_len, 24, distinct)
                # at step 3 the last rows start at or past the end of the
                # right side, so they must come out empty
                if 3 * (len(left) - 1) < len(right):
                    disagreements.append(("no empty row", index_len, distinct, r1))
                for r2 in range(data_len + 1):
                    bound = (r1, r2)
                    full = _reference_rows(left, right, data_len, bound)
                    if any(row != sorted(set(row)) for row in full):
                        disagreements.append(("reference", index_len, distinct, bound))
                    for step in (0, 1, 3):
                        want = [[j for j in row if j >= u * step] for u, row in enumerate(full)]
                        for path in (None, "table", "dict", "scan"):
                            got, store = _kernel_rows(
                                left, right, data_len, bound, index_len, path, step
                            )
                            # r1 = l has no lookup: its ball is every index field
                            forced = path if path != "scan" and r1 < index_len else None
                            if got != want or (path and store != forced):
                                disagreements.append(
                                    (index_len, distinct, bound, step, path, store)
                                )
                            used[path, store] += 1
    return disagreements, used


def test_row_kernel_matches_the_all_pairs_rows_on_both_paths():
    disagreements, used = row_kernel_agreement()
    assert disagreements == []
    # the guard itself takes each of the three paths somewhere
    assert {store for path, store in used if path is None} == {"table", "dict", None}


OPTIMIZED_ROW_KERNEL_AGREEMENT = """
from test_matching import row_kernel_agreement

if __debug__:
    raise SystemExit("expected python -O")
disagreements, used = row_kernel_agreement()
if disagreements or {store for path, store in used if path is None} != {"table", "dict", None}:
    raise SystemExit(repr((disagreements, used)))
"""


def test_row_kernel_matches_the_all_pairs_rows_under_python_O():
    done = run_under_python_O(OPTIMIZED_ROW_KERNEL_AGREEMENT, timeout=120)
    assert done.returncode == 0, done.stderr


def test_row_kernel_guard_looks_up_only_below_both_sizes():
    rng = random.Random(1213)
    data_len = 4
    for index_len in (2, 3, 5, 8):
        for r1 in range(index_len + 1):
            volume = matching._ball_volume(index_len, r1)
            sizes = [size for size in (volume - 1, volume, volume + 1) if 0 < size <= 1 << index_len]
            for size in sizes:
                left, right = _kernel_sides(rng, index_len, data_len, size, True)
                bound = (r1, 1)
                rows, store = _kernel_rows(left, right, data_len, bound, index_len, None)
                assert rows == _reference_rows(left, right, data_len, bound)
                # V(l, r1) < min(M, 2^l), and a store of M entries and
                # len(left) * V probes no more than the len(left) * M pairs
                # of a scan: r1 >= l gives V = 2^l and scans
                looked_up = (
                    volume < size
                    and r1 < index_len
                    and size + len(left) * volume <= len(left) * size
                )
                assert (store is not None) is looked_up, (index_len, r1, size)
                if looked_up:
                    table = 1 << index_len <= len(left) * volume
                    assert store == ("table" if table else "dict"), (index_len, r1, size)
        # repeated index fields can outnumber the 2^l fields; r1 = l still scans
        right = [(i << data_len) | d for i in range(1 << index_len) for d in (0, 3)]
        left = [rng.randrange(1 << (index_len + data_len)) for _ in range(6)]
        rows, store = _kernel_rows(left, right, data_len, (index_len, 1), index_len, None)
        assert store is None
        assert rows == _reference_rows(left, right, data_len, (index_len, 1))
        # one left strand: its store would cost more than its scan
        rows, store = _kernel_rows(left[:1], right, data_len, (0, 1), index_len, None)
        assert store is None
        assert rows == _reference_rows(left[:1], right, data_len, (0, 1))
    for path in (None, "table", "dict", "scan"):
        assert _kernel_rows([], [5, 6, 9], 2, (1, 1), 2, path)[0] == []
        assert _kernel_rows([5, 6], [], 2, (1, 1), 2, path)[0] == [[], []]


def test_row_kernel_store_follows_the_probe_count():
    data_len = 2
    make_table, make_store = matching._index_table, matching._index_store
    stores = []

    def watched_table(index_len):
        # a table of 2^40 slots must never be asked for
        if index_len > 16:
            pytest.fail(f"asked for a table of 2^{index_len} slots")
        return make_table(index_len)

    def watched_store(*args):
        store = make_store(*args)
        stores.append("table" if isinstance(store, list) else "dict")
        return store

    def store_of(left, right, bound, index_len):
        stores.clear()
        rows = list(matching._rows_within(left, right, data_len, bound, index_len))
        assert rows == _reference_rows(left, right, data_len, bound)
        assert len(stores) == 1
        return stores[0]

    rng = random.Random(1214)
    with mock.patch.object(matching, "_index_table", watched_table), mock.patch.object(
        matching, "_index_store", watched_store
    ):
        # l = 40, r1 = 1: V = 41 masks, fewer than the 64 strands of
        # either side, and 64 * 41 probes against 2^40 index fields
        index_len = 40
        right = [rng.getrandbits(index_len + data_len) for _ in range(64)]
        left = [b ^ (1 << rng.randrange(index_len + data_len)) for b in right]
        assert matching._ball_volume(index_len, 1) < len(right)
        assert store_of(left, right, (1, 1), index_len) == "dict"
        # 2^l slots against len(left) * V(l, r1) probes: a table at
        # equality, a dict one left strand below it, which at r1 = 0
        # (V = 1) leaves one slot more than the probes
        for index_len, r1, at_equality in [(3, 0, 8), (4, 0, 16), (7, 1, 16)]:
            assert at_equality * matching._ball_volume(index_len, r1) == 1 << index_len
            right = [(i << data_len) | rng.getrandbits(data_len) for i in range(1 << index_len)]
            for size, want in [(at_equality, "table"), (at_equality - 1, "dict")]:
                left = [rng.getrandbits(index_len + data_len) for _ in range(size)]
                assert store_of(left, right, (r1, 1), index_len) == want, (index_len, r1, size)


def test_bijection_examples():
    z = mk_message(2, "001", "010")
    identity = bijection_within_or_violator(z, z, (0, 0))
    assert identity == tuple((s, s) for s in z.strands)

    z1 = mk_message(2, "001", "010")
    z2 = mk_message(2, "101", "110")
    bij = bijection_within_or_violator(z1, z2, (2, 0))
    assert not isinstance(bij, HallViolator)
    assert {(str(a), str(b)) for a, b in bij} == {("001", "101"), ("010", "110")}

    assert bijection_within_or_violator(
        mk_message(2, "000"), mk_message(2, "111"), (1, 1)
    ) == HallViolator(frozenset({0}), frozenset())


def test_bijection_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        bijection_within_or_violator(mk_message(1, "00"), mk_message(1, "000"), (0, 0))


def test_bijection_or_violator_variants():
    z1 = mk_message(1, "00", "10")
    z2 = mk_message(1, "01", "11")
    got = bijection_within_or_violator(z1, z2, (1, 0))
    assert isinstance(got, HallViolator)
    got = bijection_within_or_violator(z1, z2, (0, 1))
    assert isinstance(got, tuple)


def test_bijection_random_agreement_with_oracle():
    rng = random.Random(19)
    p = mk_params(2, 4, 2, 2, 1, 1, 1)
    for _ in range(200):
        z1 = random_message(rng, p)
        z2 = random_message(rng, p)
        for bound in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]:
            got = bijection_within_or_violator(z1, z2, bound)
            found = not isinstance(got, HallViolator)
            assert found == oracle_exists_bijection(z1, z2, bound)
            if found:
                assert sorted(x for x, _ in got) == list(z1.strands)
                assert sorted(y for _, y in got) == list(z2.strands)


@given(
    st.integers(0, 10**6),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_bijection_threshold_monotone(seed, b1, b2):
    rng = random.Random(seed)
    p = mk_params(rng.randint(1, 3), 4, 2, 2, 1, 1, 1)
    z1 = random_message(rng, p)
    z2 = random_message(rng, p)
    lo = (min(b1[0], b2[0]), min(b1[1], b2[1]))
    hi = (max(b1[0], b2[0]), max(b1[1], b2[1]))
    if not isinstance(bijection_within_or_violator(z1, z2, lo), HallViolator):
        assert not isinstance(bijection_within_or_violator(z1, z2, hi), HallViolator)


def test_bottleneck_examples():
    vals = [0b00, 0b01]
    assert bottleneck_bijection(vals, vals)[0] == 0
    value, pairs = bottleneck_bijection([0b00, 0b01], [0b11, 0b01])
    assert value == 1
    assert pairs == ((0b00, 0b01), (0b01, 0b11))
    assert bottleneck_bijection([0], [1]) == (1, ((0, 1),))


def test_bottleneck_errors():
    with pytest.raises(SizeMismatch):
        bottleneck_bijection([0, 1], [0])
    with pytest.raises(SizeMismatch):
        bottleneck_bijection([], [])
    with pytest.raises(ValidationError, match="-1"):
        bottleneck_bijection([-1], [0])
    with pytest.raises(ValidationError, match="-3"):
        bottleneck_bijection([0, -3], [1, 2])
    with pytest.raises(ValidationError, match="-5"):
        bottleneck_bijection([0, 1], [2, -5])


def test_bottleneck_random_agreement_with_oracle():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 5)
        left = rng.sample(range(64), n)
        right = rng.sample(range(64), n)
        assert is_optimal_bottleneck(left, right, bottleneck_bijection(left, right))


def test_bottleneck_threshold_is_minimal():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 5)
        left = rng.sample(range(32), n)
        right = rng.sample(range(32), n)
        value, pairs = bottleneck_bijection(left, right)
        assert max((a ^ b).bit_count() for a, b in pairs) == value
        if value > 0:
            # no bijection fits one bit tighter; append a constant data
            # bit so the values become strands with distinct indices
            z1 = mk_message(5, *[format(v << 1, "06b") for v in left])
            z2 = mk_message(5, *[format(v << 1, "06b") for v in right])
            assert not oracle_exists_bijection(z1, z2, (value - 1, 1))


def test_bottleneck_agrees_with_scipy_on_64_element_sides():
    pytest.importorskip("scipy")
    rng = random.Random(31)
    # 64 distinct 12-bit values a side, then 6-12 values below 8 with
    # repeats: both are more values than the lanes (16 and 4 bits) have bits
    sides = [(rng.sample(range(1 << 12), 64), rng.sample(range(1 << 12), 64)) for _ in range(20)]
    for n in [6, 7, 8, 9, 10, 11, 12] * 6:
        sides.append(([rng.randrange(8) for _ in range(n)], [rng.randrange(8) for _ in range(n)]))
    for left, right in sides:
        value, pairs = bottleneck_bijection(left, right)
        assert sorted(a for a, _ in pairs) == sorted(left)
        assert sorted(b for _, b in pairs) == sorted(right)
        assert all((a ^ b).bit_count() <= value for a, b in pairs)
        dist = [[(a ^ b).bit_count() for b in right] for a in left]
        assert scipy_has_perfect_matching([[d <= value for d in row] for row in dist])
        assert not scipy_has_perfect_matching([[d < value for d in row] for row in dist])


def test_bijection_decision_agrees_with_the_bottleneck_at_every_threshold():
    rng = random.Random(37)
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 55, 64] * 4:
        width = rng.randint(max(1, (n - 1).bit_length()), 11)
        left = rng.sample(range(1 << width), n)
        right = rng.sample(range(1 << width), n)
        value, _ = bottleneck_bijection(left, right)
        for t in range(-1, width + 1):
            assert has_bijection_within(left, right, t, width) == (t >= value), (left, right, t)


def test_bijection_decision_examples():
    assert has_bijection_within([0], [0], 0, 1)
    # a negative threshold leaves the first row empty
    assert not has_bijection_within([0], [0], -1, 1)
    # each left value has a partner within 1, but both want 0b01
    assert not has_bijection_within([0b00, 0b11], [0b01, 0b10], 0, 2)
    assert has_bijection_within([0b00, 0b11], [0b01, 0b10], 1, 2)
    assert not has_bijection_within([0b000, 0b001], [0b011, 0b111], 1, 3)
    assert has_bijection_within([0b000, 0b001], [0b011, 0b111], 2, 3)
    # no row is empty, but no left value is within 1 of 0b111 (popcount
    # rows), and none within 0 of the value 1 (lane rows, w = 2)
    assert not has_bijection_within([0b000, 0b001], [0b000, 0b111], 1, 3)
    assert not has_bijection_within([0, 0, 0], [0, 0, 1], 0, 1)


def test_empty_groups_admit_the_empty_bijection_at_any_threshold():
    assert has_bijection_within([], [], -1, 1)
    for floor in (-1, 0, 3):
        assert bottleneck_value([], [], floor, 1) == floor


@pytest.mark.parametrize(
    "left, right", [([0], [0, 1]), ([0, 1], [0]), ([], [0]), (list(range(20)), list(range(21)))]
)
def test_both_group_decisions_reject_groups_of_two_sizes(left, right):
    # a row loop over the shorter side would find a left-perfect matching
    with pytest.raises(SizeMismatch):
        has_bijection_within(left, right, 0, 5)
    with pytest.raises(SizeMismatch):
        bottleneck_value(left, right, 0, 5)
    with pytest.raises(SizeMismatch):
        bottleneck_bijection(left, right)


# index widths at and around the lane widths 2, 8, 16, 32 and 64
LANE_WIDTHS = [1, 2, 7, 8, 11, 15, 16, 17, 31, 32, 33, 63]


def _lane_bits(width):
    """The guard's lane width: the smallest power of two above ``width``."""
    return 1 << width.bit_length()


def _local_perfect_matching(within):
    """Whether the square 0/1 matrix ``within`` has a perfect matching, by
    Kuhn's augmenting paths written out here."""
    n = len(within)
    mate = [-1] * n

    def augment(u, seen):
        for v in range(n):
            if within[u][v] and not seen[v]:
                seen[v] = True
                if mate[v] == -1 or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return all(augment(u, [False] * n) for u in range(n))


def local_bottleneck(left, right):
    """The bottleneck value, by binary search over thresholds on a
    distance matrix built here; shares no code with dnacode.matching."""
    dist = [[(a ^ b).bit_count() for b in right] for a in left]
    lo, hi = 0, max(map(max, dist))
    while lo < hi:
        t = (lo + hi) // 2
        if _local_perfect_matching([[d <= t for d in row] for row in dist]):
            hi = t
        else:
            lo = t + 1
    return lo


def lane_agreement():
    """Three group pairs each of 1 and 2 values and of w, w + 1 and w + 5
    values for lanes of w bits, at each index width: returns the
    disagreements of ``has_bijection_within`` with t >= the local
    bottleneck value v, of ``bottleneck_value`` at floor f with max(f, v),
    and of ``bottleneck_bijection`` with v and the pairs the oracles'
    Hopcroft-Karp finds on the ascending rows of a local distance matrix,
    and the group pairs checked on each side of the guard."""
    disagreements = []
    checked = Counter()
    for width in LANE_WIDTHS:
        rng = random.Random(width)
        w = _lane_bits(width)
        for n in (1, 2, w, w + 1, w + 5) * 3:
            left = [rng.getrandbits(width) for _ in range(n)]
            right = [rng.getrandbits(width) for _ in range(n)]
            value = local_bottleneck(left, right)
            for t in {-1, 0, value - 1, value, value + 1, width, width + 5}:
                if has_bijection_within(left, right, t, width) != (t >= value):
                    disagreements.append(("decision", width, n, t))
            for f in {-2, -1, 0, value - 1, value, value + 1, width + 5}:
                if bottleneck_value(left, right, f, width) != max(f, value):
                    disagreements.append(("value", width, n, f))
            lvals, rvals = sorted(left), sorted(right)
            rows = [
                [j for j, b in enumerate(rvals) if (a ^ b).bit_count() <= value] for a in lvals
            ]
            match_left, _ = max_matching(BipartiteGraph(n, n, tuple(map(tuple, rows))))
            pairs = tuple((lvals[i], rvals[j]) for i, j in enumerate(match_left))
            if bottleneck_bijection(left, right) != (value, pairs):
                disagreements.append(("bottleneck", width, n))
            checked["lanes" if n > w else "loop"] += 1
    return disagreements, checked


def test_group_decisions_agree_with_a_local_reference_on_both_sides_of_the_guard():
    disagreements, checked = lane_agreement()
    assert disagreements == []
    assert checked == {"loop": 9 * len(LANE_WIDTHS), "lanes": 6 * len(LANE_WIDTHS)}


OPTIMIZED_LANE_AGREEMENT = """
from test_matching import LANE_WIDTHS, lane_agreement

if __debug__:
    raise SystemExit("expected python -O")
disagreements, checked = lane_agreement()
if disagreements or checked["lanes"] != 6 * len(LANE_WIDTHS):
    raise SystemExit(repr((disagreements, checked)))
"""


def test_group_decisions_agree_with_the_local_reference_under_python_O():
    done = run_under_python_O(OPTIMIZED_LANE_AGREEMENT, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("width", [2, 8, 11, 16])
def test_groups_at_or_below_the_guard_take_the_popcount_loop(width):
    # the largest value is 2^width - 1 on both sides, so the bottleneck's
    # width, the bit length of its largest value, is width too
    rng = random.Random(width)
    w = _lane_bits(width)
    top = (1 << width) - 1
    for n in (1, 2, w - 1, w, w + 1, 2 * w):
        left = [top] + [rng.randrange(top) for _ in range(n - 1)]
        right = [top] + [rng.randrange(top) for _ in range(n - 1)]
        with mock.patch.object(
            matching, "_lane_distances", wraps=matching._lane_distances
        ) as lanes:
            has_bijection_within(left, right, 1, width)
            bottleneck_value(left, right, 1, width)
            bottleneck_bijection(left, right)
        assert lanes.call_count == (3 if n > w else 0), n


def assignment_params():
    return mk_params(1, 2, 1, 2, 1, 1, 0)


def test_assignment_examples():
    p = assignment_params()
    z = mk_message(1, "00")
    assert assignment_feasible(reference_pool([0b00, 0b10], 2), z, p)
    assert not assignment_feasible(reference_pool([0b00, 0b01], 2), z, p)
    half = mk_params(1, 2, 1, 2, "1/2", 1, 0)
    assert not assignment_feasible(reference_pool([0b10, 0b10], 2), z, half)


def test_assignment_errors():
    p = assignment_params()
    z = mk_message(1, "00")
    with pytest.raises(WrongPoolSize):
        assignment_feasible(reference_pool([0b00], 2), z, p)
    with pytest.raises(ShapeMismatch):
        assignment_feasible(reference_pool([0b000, 0b000], 3), z, p)


def test_assignment_random_agreement_with_oracle():
    rng = random.Random(31)
    checked = 0
    while checked < 150:
        m = rng.choice([1, 2, 2, 3])
        k = rng.choice([2, 3, 4])
        while m * k > 8:
            k -= 1
        lo = max(1, (m - 1).bit_length())
        L = rng.randint(lo + 1, 4)
        l = rng.randint(lo, L - 1)
        if m > (1 << l):
            continue
        p = mk_params(m, L, l, k, f"{rng.randint(1, k)}/{k}", rng.randint(0, l), rng.randint(0, L - l))
        z = random_message(rng, p)
        reads = [
            rng.randrange(1 << L) if rng.random() < 0.5 else rng.choice(z.strands).bits
            for _ in range(m * k)
        ]
        pool = reference_pool(reads, L)
        assert assignment_feasible(pool, z, p) == oracle_assignment_feasible(pool, z, p)
        checked += 1


def test_assignment_budget_monotone():
    rng = random.Random(37)
    for _ in range(60):
        p_lo = mk_params(2, 3, 1, 2, "1/2", 1, 1)
        p_hi = mk_params(2, 3, 1, 2, "1", 1, 1)
        z = random_message(rng, p_lo)
        reads = [rng.randrange(8) for _ in range(4)]
        pool = reference_pool(reads, 3)
        if assignment_feasible(pool, z, p_lo):
            assert assignment_feasible(pool, z, p_hi)


def _within(read, s, p):
    di, dd = split_popcount(read ^ s.bits, p.data_len)
    return di <= p.e_i and dd <= p.e_d


def _scale_message(rng, p):
    """A random message with a free index t, every strand's index at
    distance at least e_i + 1 from t and one at exactly e_i + 1, and a
    planted pair (a, b): index fields 2*e_i apart, data fields e_d apart.
    Returns the message, t, a and b."""
    l, e_i = p.index_len, p.e_i
    t = rng.randrange(1 << l)
    free = [x for x in range(1 << l) if (x ^ t).bit_count() > e_i]
    while True:
        a = rng.choice(free)
        b = a ^ sum(1 << q for q in rng.sample(range(l), 2 * e_i))
        if (b ^ t).bit_count() > e_i:
            break
    near = rng.choice(
        [x for x in free if (x ^ t).bit_count() == e_i + 1 and x not in (a, b)]
    )
    rest = rng.sample([x for x in free if x not in (a, b, near)], p.m - 3)
    data_a = rng.randrange(1 << p.data_len)
    data_b = data_a ^ sum(1 << q for q in rng.sample(range(p.data_len), p.e_d))
    fields = [(a, data_a), (b, data_b)] + [
        (x, rng.randrange(1 << p.data_len)) for x in [near, *rest]
    ]
    z = Message(tuple(strand_from_fields(i, d, p.length, p.index_len) for i, d in fields))
    strand = {s.bits >> p.data_len: s for s in z.strands}
    return z, t, strand[a], strand[b]


def _scale_pools(rng, p, seed):
    """The message, its planted pair a and b, the read shared by a and b,
    and (name, pool, expected verdict) for the four pool kinds of the
    differential test at scale."""
    z, t, a, b = _scale_message(rng, p)
    sample = sample_ball(z, p, seed)
    sources = [t for t, group in zip(z.strands, sample.groups) for _ in group]
    reads = [r for group in sample.groups for r in group]
    pools = [("sampled", reads, True)]

    # one read moved to an index at distance e_i + 1 from the nearest strand
    far = list(reads)
    far[rng.randrange(len(far))] = (t << p.data_len) | rng.randrange(1 << p.data_len)
    pools.append(("far read", far, False))

    # budget + 1 copies of a noisy read that only strand s can explain: they
    # all need s's noisy slot, which holds floor(tau*K)
    while True:
        s = rng.choice(z.strands)
        flips = rng.sample(range(p.index_len), rng.randint(0, p.e_i)) + rng.sample(
            range(p.index_len, p.length), rng.randint(0, p.e_d)
        )
        noisy = flip_positions(s.bits, p.length, flips)
        if noisy != s.bits and [y for y in z.strands if _within(noisy, y, p)] == [s]:
            break
    over = [r for r, t in zip(reads, sources) if t != s]
    over += [s.bits] * max(0, p.k - p.tau_budget - 1) + [noisy] * (p.tau_budget + 1)
    del over[: len(over) - p.pool_size]
    pools.append(("over budget", over, False))

    # a read at index distance e_i from both a and b takes the place of one
    # of a's reads: an exact one if a has noisy budget left, else a noisy one
    apart = [q for q in range(p.index_len) if (a.bits ^ b.bits) >> (p.data_len + q) & 1]
    mid = a.bits ^ sum(1 << (p.data_len + q) for q in apart[: p.e_i])
    own = [i for i, t in enumerate(sources) if t == a]
    noisy_count = sum(1 for i in own if reads[i] != a.bits)
    keep_exact = noisy_count < p.tau_budget
    slot = next(i for i in own if (reads[i] == a.bits) == keep_exact)
    shared = list(reads)
    shared[slot] = mid
    pools.append(("shared read", shared, True))
    return z, a, b, mid, [(name, reference_pool(r, p.length), want) for name, r, want in pools]


class _RecordingNetwork(matching._FlowNetwork):
    """Records each edge (u, v, capacity) as the flow first sees it: the
    read network's source capacities are set after its edges are added."""

    networks: list = []

    def __init__(self, n):
        super().__init__(n)
        self.added = []
        self.edges = None
        self.networks.append(self)

    def add_edge(self, u, v, cap):
        super().add_edge(u, v, cap)
        self.added.append((u, v, self.adj[u][-1]))

    def max_flow(self, s, t):
        if self.edges is None:
            self.edges = self.current_edges()
        return super().max_flow(s, t)

    def current_edges(self):
        return [(u, v, e[1]) for u, v, e in self.added]


@pytest.mark.parametrize("e", [(1, 1), (2, 1), (1, 0)])
@pytest.mark.parametrize("tau", ["1/2", "1"])
@pytest.mark.parametrize("m", [64, 256, 512])
def test_assignment_agrees_with_networkx_at_scale(m, tau, e):
    pytest.importorskip("networkx")
    p = mk_params(m, 20, 11, 10, tau, *e)
    rng = random.Random(f"{m}-{tau}-{e}")
    z, a, b, mid, pools = _scale_pools(rng, p, seed=m + e[0] * 10 + e[1])
    for name, pool, want in pools:
        edges = reference_read_network(pool, z, p)
        sink = 1 + len(pool.entries) + 2 * m
        # the one builder, over every pool value at full strand capacities,
        # lays out the reference network edge for edge
        _RecordingNetwork.networks.clear()
        with mock.patch.object(matching, "_FlowNetwork", _RecordingNetwork):
            net, sources, net_sink = matching._read_network(
                [v for v, _ in pool.entries], z, p
            )
            for edge, (_, count) in zip(sources, pool.entries):
                edge[1] = count
            assert net_sink == sink, name
            assert sorted(net.current_edges()) == sorted(edges), name
            _RecordingNetwork.networks.clear()
            got = assignment_feasible(pool, z, p)
        assert got is want, name
        assert (networkx_max_flow(edges, sink) == p.pool_size) is want, name
        # membership builds at most one network, over only the reads with
        # two or more candidate strands, in pool order
        degree = Counter(u for u, _, _ in edges if 0 < u < sink - 2 * m)
        shared = [v for i, (v, _) in enumerate(pool.entries, 1) if degree[i] > 1]
        assert len(_RecordingNetwork.networks) <= 1, name
        for net in _RecordingNetwork.networks:
            assert len(net.adj) == 1 + len(shared) + 2 * m + 1, name
        if name == "shared read":
            (net,) = _RecordingNetwork.networks
            node = 1 + shared.index(mid)
            base = 1 + len(shared)
            strands = {z.strands[(v - base) // 2] for u, v, _ in net.edges if u == node}
            assert {a, b} <= strands


@pytest.mark.parametrize("e", [(1, 1), (2, 1)])
@pytest.mark.parametrize("m", [64, 512])
def test_assignment_hands_the_peel_rows_to_the_network(m, e):
    # membership reads each pool value's row once, in the peel, and the
    # network it builds from the rows handed on equals the one the builder
    # makes from the same values when it reads the rows itself
    p = mk_params(m, 20, 11, 10, "1/2", *e)
    rng = random.Random(f"handoff-{m}-{e}")
    z, _, _, _, pools = _scale_pools(rng, p, seed=m + e[0])
    real_rows, real_network = matching._rows_within, matching._read_network
    built = set()
    for name, pool, want in pools:
        row_calls, handed = [], []

        def counting_rows(*args):
            row_calls.append(args)
            return real_rows(*args)

        def recording_network(values, z, params, room=None, slack=None, rows=None):
            handed.append((list(values), list(room), list(slack), rows is not None))
            return real_network(values, z, params, room, slack, rows)

        _RecordingNetwork.networks.clear()
        with mock.patch.object(matching, "_FlowNetwork", _RecordingNetwork), mock.patch.object(
            matching, "_rows_within", counting_rows
        ), mock.patch.object(matching, "_read_network", recording_network):
            assert assignment_feasible(pool, z, p) is want, name
        assert len(row_calls) == 1, name
        assert len(handed) == len(_RecordingNetwork.networks) <= 1, name
        if not handed:
            continue
        ((values, room, slack, with_rows),) = handed
        (net,) = _RecordingNetwork.networks
        assert with_rows, name
        _RecordingNetwork.networks.clear()
        with mock.patch.object(matching, "_FlowNetwork", _RecordingNetwork):
            rebuilt, sources, _ = matching._read_network(values, z, p, room, slack)
        counts = dict(pool.entries)
        for edge, v in zip(sources, values):
            edge[1] = counts[v]
        assert rebuilt.current_edges() == net.edges, name
        built.add(name)
    assert "shared read" in built


def _peel_cases(pool, z, p):
    """The cases of the forced-read peel that a pool shows, found through
    ``_within``: a value with one candidate strand is forced to it."""
    exact, used, noisy = [0] * p.m, [0] * p.m, [0] * p.m
    shared, cases = [], set()
    for v, count in pool.entries:
        row = [j for j, s in enumerate(z.strands) if _within(v, s, p)]
        if len(row) > 1:
            shared.append((v, row))
        elif row:
            (j,) = row
            used[j] += count
            if v == z.strands[j].bits:
                exact[j] += count
            else:
                noisy[j] += count
        else:
            cases.add("no candidate")
    if not shared and not cases:
        cases.add("all forced")
    if max(exact) > p.k:
        cases.add("exact above K")
    if max(noisy) > p.tau_budget:
        cases.add("noisy above budget")
    if not cases and any(
        all(
            used[j] == p.k or (v != z.strands[j].bits and noisy[j] == p.tau_budget)
            for j in row
        )
        for v, row in shared
    ):
        cases.add("shared read blocked")
    return cases


@pytest.mark.parametrize("tau", ["1", "1/2", "below 1/K"])
def test_peel_agrees_with_oracle_on_exhaustive_small_shapes(tau):
    # every pool over every message of each shape; K = 1 at M = 3 lets
    # forced reads fill both strands a shared read may take at tau = 1
    seen = set()
    for m, length, index_len, k in [(2, 3, 2, 2), (3, 3, 2, 1), (1, 3, 1, 3)]:
        for e in [(1, 0), (0, 1), (1, 1)]:
            p = mk_params(m, length, index_len, k, f"1/{k + 1}" if tau == "below 1/K" else tau, *e)
            pools = [
                reference_pool(reads, length)
                for reads in combinations_with_replacement(range(1 << length), p.pool_size)
            ]
            for z in reference_space(p):
                for pool in pools:
                    cases = _peel_cases(pool, z, p)
                    want = oracle_assignment_feasible(pool, z, p)
                    assert assignment_feasible(pool, z, p) is want, (z, pool.entries)
                    if cases - {"all forced"}:
                        assert not want, (z, pool.entries, cases)
                    seen |= cases
    assert seen == {
        "all forced",
        "no candidate",
        "exact above K",
        "noisy above budget",
        "shared read blocked",
    }


def test_forced_reads_need_no_flow_network():
    # the index fields 000 and 111 are 3 apart, so at e_i = 1 every read
    # below is within (1, 0) of one strand at most
    p = mk_params(2, 4, 3, 2, "1/2", 1, 0)
    z = mk_message(3, "0000", "1110")
    no_network = mock.Mock(side_effect=AssertionError("built a flow network"))
    with mock.patch.object(matching, "_FlowNetwork", no_network):
        assert assignment_feasible(reference_pool([0b0000, 0b0010, 0b1110, 0b1110], 4), z, p)
        # forced exact copies above K, and forced noisy copies above
        # floor(tau*K) = 1
        assert not assignment_feasible(reference_pool([0b0000] * 3 + [0b1110], 4), z, p)
        assert not assignment_feasible(reference_pool([0b0010, 0b0010, 0b1110, 0b1110], 4), z, p)
        # a read with no candidate strand
        assert not assignment_feasible(reference_pool([0b0001, 0b0000, 0b1110, 0b1110], 4), z, p)
    # with the index fields 000 and 011, the read 0010 is within (1, 0) of
    # both strands, so the flow decides it, over a network of that one read
    z = mk_message(3, "0000", "0110")
    shared = reference_pool([0b0000, 0b0010, 0b0110, 0b0110], 4)
    with mock.patch.object(matching, "_FlowNetwork", wraps=matching._FlowNetwork) as network:
        assert assignment_feasible(shared, z, p)
    network.assert_called_once_with(1 + 1 + 2 * 2 + 1)


def test_assignment_never_enumerates_an_index_ball_larger_than_m():
    # 2^40 index fields lie within e_i = 40 of a read, against M = 2 strands
    p = mk_params(2, 64, 40, 2, 1, 40, 1)
    rng = random.Random(41)
    enumerate_masks = matching._flip_masks

    def refuse_large_balls(width, radius):
        volume = sum(math.comb(width, i) for i in range(radius + 1))
        if volume > p.m:
            pytest.fail(f"asked for {volume} index flips at M={p.m}")
        return enumerate_masks(width, radius)

    with mock.patch.object(matching, "_flip_masks", refuse_large_balls):
        for seed in range(20):
            z = random_message(rng, p)
            reads = [
                rng.randrange(1 << 64) if rng.random() < 0.3 else rng.choice(z.strands).bits
                for _ in range(p.pool_size)
            ]
            for pool in (sample_ball(z, p, seed).pool, reference_pool(reads, 64)):
                assert assignment_feasible(pool, z, p) == oracle_assignment_feasible(pool, z, p)


def test_match_within_never_enumerates_an_index_ball_of_m_masks():
    # at tau = 1 the bound (2e_i, 2e_d) = (40, 2) covers all 2^40 index
    # fields, against M = 2 strands
    p = mk_params(2, 64, 40, 2, 1, 20, 1)
    bound = (2 * p.e_i, 2 * p.e_d)
    rng = random.Random(40)
    enumerate_masks = matching._flip_masks

    def refuse_large_balls(width, radius):
        volume = sum(math.comb(width, i) for i in range(radius + 1))
        if volume >= p.m:
            pytest.fail(f"asked for {volume} index flips at M={p.m}")
        return enumerate_masks(width, radius)

    with mock.patch.object(matching, "_flip_masks", refuse_large_balls):
        for _ in range(20):
            z1 = random_message(rng, p)
            near = [s.bits ^ (1 << rng.randrange(p.data_len)) for s in z1.strands]
            z2 = random_message(rng, p) if rng.random() < 0.5 else Message(
                tuple(Strand(b, p.length, p.index_len) for b in near)
            )
            want = oracle_exists_bijection(z1, z2, bound)
            result = bijection_within_or_violator(z1, z2, bound)
            assert (not isinstance(result, HallViolator)) is want
            assert (balls_intersect(z1, z2, p).answer is Answer.YES) is want


def _residuals(net):
    return [e[1] for row in net.adj for e in row]


def _residual_max_flow(net, sink):
    """The max flow from node 0 to ``sink`` over ``net``'s residual
    capacities, by networkx: the residual entries from u to v, a forward
    edge and the reverse of an edge from v to u, add up."""
    caps = Counter()
    for u, row in enumerate(net.adj):
        for e in row:
            caps[u, e[0]] += e[1]
    return networkx_max_flow([(u, v, c) for (u, v), c in caps.items()], sink)


def _random_read_network(rng):
    """The read network of a random message over a random pool of reads
    near its strands, with every source capacity at its value's count:
    returns the network, its source edges, the sink and the value count."""
    p = mk_params(
        rng.randint(1, 3), 4, 2, rng.randint(1, 3), rng.choice(["1", "1/2", "1/3"]),
        rng.randint(0, 2), rng.randint(0, 2),
    )
    z = random_message(rng, p)
    near = [
        flip_positions(s.bits, p.length, rng.sample(range(p.length), rng.randint(0, 2)))
        for s in z.strands
    ]
    reads = [rng.choice(near) if rng.random() < 0.8 else rng.randrange(16)
             for _ in range(rng.randint(1, p.pool_size))]
    pool = Counter(reads)
    values = sorted(pool)
    net, sources, sink = matching._read_network(values, z, p)
    for e, v in zip(sources, values):
        e[1] = pool[v]
    return net, sources, sink, len(values)


def _check_step(net, source, sink, n_values):
    """Augment through ``source`` (just raised by 1) on a network holding a
    maximum flow: the answer is whether networkx finds a unit more on the
    residual network, a found path runs from the source to the sink, and
    undo restores every residual capacity.  Returns "none" when no unit
    is found, else "reverse" or "forward": whether the path takes a unit
    back over a reverse edge."""
    before = _residuals(net)
    gain = _residual_max_flow(net, sink)
    assert gain in (0, 1)
    path = net.augment(source, sink)
    if path is None:
        assert gain == 0
        assert _residuals(net) == before
        return "none"
    assert gain == 1 and path[0] is source and path[-1][0] == sink
    tails = [0] + [e[0] for e in path[:-1]]
    assert len(set(tails)) == len(tails)
    for tail, e in zip(tails, path):
        assert any(f is e for f in net.adj[tail])
    # the pushed unit leaves the flow maximum
    assert _residual_max_flow(net, sink) == 0
    net.undo(path)
    assert _residuals(net) == before
    # a reverse edge runs back from a slot or strand node to a read node
    return "reverse" if any(1 <= e[0] <= n_values for e in path[1:]) else "forward"


def test_augment_finds_a_unit_iff_the_max_flow_gains_one_and_undo_restores_it():
    pytest.importorskip("networkx")
    rng = random.Random(97)
    found = Counter()
    for _ in range(300):
        net, sources, sink, n_values = _random_read_network(rng)
        net.max_flow(0, sink)
        i = rng.randrange(n_values)
        sources[i][1] += 1
        found[_check_step(net, sources[i], sink, n_values)] += 1
    assert set(found) == {"none", "forward", "reverse"}, found


def test_max_flow_agrees_with_networkx_from_zero_and_from_a_partial_flow():
    pytest.importorskip("networkx")
    rng = random.Random(61)
    partial = 0
    for _ in range(300):
        net, sources, sink, _ = _random_read_network(rng)
        want = _residual_max_flow(net, sink)
        if rng.random() < 0.5:
            assert net.max_flow(0, sink) == want
        else:
            # a few units pushed through random source edges, then the rest
            pushed = 0
            for _ in range(rng.randint(1, want + 1)):
                e = rng.choice(sources)
                if e[1] > 0 and net.augment(e, sink) is not None:
                    pushed += 1
            partial += 0 < pushed < want
            assert _residual_max_flow(net, sink) == want - pushed
            assert net.max_flow(0, sink) == want - pushed
        assert _residual_max_flow(net, sink) == 0
    assert partial >= 30


def test_max_flow_follows_a_path_longer_than_the_recursion_limit():
    n = 5000
    net = matching._FlowNetwork(n)
    for u in range(n - 1):
        net.add_edge(u, u + 1, 2)
    assert net.max_flow(0, n - 1) == 2
    assert net.max_flow(0, n - 1) == 0
    assert all(net.adj[u][-1][1] == 0 for u in range(n - 1))


def test_augment_reroutes_a_read_through_a_reverse_edge():
    # the read 0100 is within (1, 0) of both strands and first takes
    # strand 0000's only place; an exact copy of 0000 then gets that
    # place only by moving 0100 over to strand 1100
    p = mk_params(2, 4, 2, 1, "1", 1, 0)
    z = mk_message(2, "0000", "1100")
    # nodes: source 0, reads 0000 and 0100 at 1 and 2, the noisy slot and
    # the strand of 0000 at 3 and 4 and of 1100 at 5 and 6, sink 7
    values = [0b0000, 0b0100]
    net, sources, sink = matching._read_network(values, z, p)
    sources[1][1] = 1
    assert net.max_flow(0, sink) == 1
    assert next(e for e in net.adj[3] if e[0] == 4)[1] == 0  # 0100 took the place
    sources[0][1] += 1
    assert _check_step(net, sources[0], sink, len(values)) == "reverse"
    path = net.augment(sources[0], sink)
    assert [e[0] for e in path] == [1, 4, 3, 2, 5, 6, 7]


def test_augment_follows_a_path_longer_than_the_recursion_limit():
    n = 5000
    net = matching._FlowNetwork(n)
    for u in range(n - 1):
        net.add_edge(u, u + 1, 1)
    before = _residuals(net)
    path = net.augment(net.adj[0][0], n - 1)
    assert len(path) == n - 1
    assert net.augment(net.adj[0][0], n - 1) is None
    net.undo(path)
    assert _residuals(net) == before
