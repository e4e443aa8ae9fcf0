"""The pair loops of the code verifier, the graph build and the minimum
DNA-distance, checked against per-pair references; the verifier's
screen, its pairs and its verdicts, on codes of 150 codewords, on codes
too small for the row kernel's index lookup and with the kernel forced
down either path; the violators that end a bijection test early,
checked from the strands alone."""

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import dnacode
from dnacode import (
    HallViolator,
    Message,
    Regime,
    ShapeMismatch,
    Strand,
    VerdictKind,
    bijection_within_or_violator,
    build_graph,
    classify_regime,
    enumerate_space,
    in_restricted_space,
    is_dna_correcting,
    min_dna_distance,
)
from dnacode.codec import PairTest
from dnacode.io import code_lines, write_text
from dnacode.matching import packed

from oracles import (
    is_real_violator,
    message_of,
    mk_params,
    oracle_dna_distance,
    oracle_min_dna_distance,
    pairwise_adjacency,
    pairwise_verdict,
    random_message,
)
from test_codec import looked_up_and_scanned, on_path

# (M, L, l, K, tau, e_i, e_d): tau-one, low tau, and high tau with the
# budget below M*K/(2M-1) (budget 2 against 8/3 at M = 2 and 12/5 at
# M = 3) and above it (budget 3)
VERIFIER_PARAMS = [
    (2, 4, 2, 2, "1", 1, 0),
    (2, 4, 2, 2, "1", 1, 1),
    (2, 4, 2, 4, "1/4", 1, 0),
    (2, 4, 2, 4, "1/2", 1, 0),
    (2, 5, 2, 4, "1/2", 1, 1),
    (2, 4, 2, 4, "3/4", 1, 0),
    (2, 5, 2, 4, "3/4", 1, 1),
    (3, 4, 2, 4, "1/2", 1, 0),
    (3, 4, 2, 4, "3/4", 1, 0),
]


def random_code(rng, params, size):
    code = []
    while len(code) < size:
        z = random_message(rng, params)
        if z not in code:
            code.append(z)
    return code


def restricted(z, params):
    one_e, two_e = (params.e_i, params.e_d), (2 * params.e_i, 2 * params.e_d)
    return in_restricted_space(z, *two_e), in_restricted_space(z, *one_e)


@pytest.mark.parametrize("shape", VERIFIER_PARAMS, ids=lambda s: "-".join(map(str, s)))
def test_verdict_matches_the_per_pair_reference(shape):
    params = mk_params(*shape)
    regime = classify_regime(params)
    rng = random.Random(str(shape))
    kinds = set()
    mixed = 0
    for _ in range(150):
        code = random_code(rng, params, rng.randint(0, 5))
        got = is_dna_correcting(code, params)
        assert got == pairwise_verdict(code, params), [str(z) for z in code]
        kinds.add(got.kind)
        # some codewords meet a restricted-space hypothesis and some do not
        mixed += len({restricted(z, params) for z in code}) > 1
    if regime is Regime.LOW_TAU:
        assert kinds == {VerdictKind.CORRECTING, VerdictKind.INDETERMINATE}
    elif regime is Regime.TAU_ONE:
        assert kinds == {VerdictKind.CORRECTING, VerdictKind.NOT_CORRECTING}
    else:
        assert kinds == set(VerdictKind)
        assert mixed >= 10


def yes_bound(params):
    """The bound a strand bijection must meet for a pair to answer Yes."""
    if classify_regime(params) is Regime.TAU_ONE:
        return 2 * params.e_i, 2 * params.e_d
    return params.e_i, params.e_d


def flip(rng, width, weight):
    """A random width-bit mask of the given weight."""
    return sum(1 << p for p in rng.sample(range(width), weight))


def near_copy(rng, z, params):
    """A message other than Z, each of whose strands lies within the Yes
    bound (r1, r2) of its own strand of Z: the index field moves by at
    most r1 bits and the data field by exactly r2, so the screen must keep
    partners at its full data radius."""
    r1, r2 = yes_bound(params)
    while True:
        fields = [
            (
                s.index_bits ^ flip(rng, params.index_len, rng.randint(0, r1)),
                s.data_bits ^ flip(rng, params.data_len, r2),
            )
            for s in z.strands
        ]
        if len({i for i, _ in fields}) == params.m and (copy := message_of(params, fields)) != z:
            return copy


def first_strand_copy(rng, code, params):
    """A message sharing the first strand of a codeword, with its other
    strands drawn above that strand: the pair is screened in whichever
    message comes first, and it has a bijection only by chance."""
    top = (1 << params.index_len) - params.m
    first = rng.choice([z for z in code if z.strands[0].index_bits < top]).strands[0]
    above = rng.sample(range(first.index_bits + 1, 1 << params.index_len), params.m - 1)
    fields = [(i, rng.randrange(1 << params.data_len)) for i in above]
    return message_of(params, [(first.index_bits, first.data_bits)] + fields)


def with_close_strands(rng, params, distance):
    """A random message whose last strand is traded for one at exactly
    ``distance`` from its first, so its restricted-space flag at that
    radius fails."""
    while True:
        z = random_message(rng, params)
        s = z.strands[0]
        moved = (
            s.index_bits ^ flip(rng, params.index_len, distance[0]),
            s.data_bits ^ flip(rng, params.data_len, distance[1]),
        )
        fields = [(t.index_bits, t.data_bits) for t in z.strands[:-1]] + [moved]
        if len({i for i, _ in fields}) == params.m:
            return message_of(params, fields)


def screened_in(z1, z2, bound):
    """Whether the first strand of Z1 has a partner within ``bound`` in Z2."""
    first = z1.strands[0]
    return any(
        (first.index_bits ^ s.index_bits).bit_count() <= bound[0]
        and (first.data_bits ^ s.data_bits).bit_count() <= bound[1]
        for s in z2.strands
    )


# the benchmark's verify shape: 150 codewords of 8 strands hold 1,200
# strands, far more than the V(8, r1) index masks, so the screen looks
# partners up, while a pair's 8 strands are fewer, so its rows are
# scanned; K = 10 puts the high-tau bound 8K/15 between budgets 5 and 7
SCREEN_PARAMS = [
    (8, 24, 8, 10, "1", 1, 1),
    (8, 24, 8, 10, "1", 1, 0),
    (8, 24, 8, 10, "3/4", 1, 1),
    (8, 24, 8, 10, "1/2", 1, 1),
    (8, 24, 8, 10, "1/2", 1, 0),
]


@pytest.mark.parametrize("shape", SCREEN_PARAMS, ids=lambda s: "-".join(map(str, s)))
def test_screen_keeps_the_first_of_several_planted_collisions(shape):
    params = mk_params(*shape)
    rng = random.Random(str(shape))
    code = random_code(rng, params, 150)
    first, *originals = sorted(rng.sample(code, rng.randint(2, 4)))
    code += [near_copy(rng, z, params) for z in originals]
    # the first original gets two near copies, both after it, so the
    # witness is its pair with the first of them
    later = []
    while len(later) < 2:
        if (copy := near_copy(rng, first, params)) > first and copy not in code:
            later.append(copy)
            code.append(copy)
    code += [first_strand_copy(rng, code, params) for _ in range(3)]
    if classify_regime(params) is Regime.HIGH_TAU:
        one_e, two_e = yes_bound(params), (2 * params.e_i, 2 * params.e_d)
        code += [with_close_strands(rng, params, one_e), with_close_strands(rng, params, two_e)]
    rng.shuffle(code)
    got, scanned = looked_up_and_scanned(lambda: is_dna_correcting(code, params))
    assert got == scanned
    assert got.kind is VerdictKind.NOT_CORRECTING
    assert got.witness.pair == (first, min(later))
    assert got == pairwise_verdict(code, params)


@pytest.mark.parametrize("shape", SCREEN_PARAMS, ids=lambda s: "-".join(map(str, s)))
def test_screen_without_a_collision(shape):
    params = mk_params(*shape)
    rng = random.Random(str(shape))
    code = random_code(rng, params, 40)
    code += [first_strand_copy(rng, code, params) for _ in range(3)]
    got, scanned = looked_up_and_scanned(lambda: is_dna_correcting(code, params))
    assert got == scanned
    assert got.kind is VerdictKind.CORRECTING
    assert got == pairwise_verdict(code, params)
    if classify_regime(params) is Regime.HIGH_TAU:
        # the codeword added last holds two strands within (e_i, e_d) and
        # fails both flags, so some pair is not proved No
        for distance in [(2 * params.e_i, 2 * params.e_d), yes_bound(params)]:
            code.append(with_close_strands(rng, params, distance))
            got = is_dna_correcting(code, params)
            assert got == pairwise_verdict(code, params)
        assert got.kind is VerdictKind.INDETERMINATE


# three strands of L = 10 bits with l = 6 index bits and e_i = 2: the
# V(6, r1) index masks, 57 at tau = 1 and 22 at high tau, outnumber the
# strands of codewords 1..n-1 of every code of up to eight codewords, so
# the screen scans them, as every pair decision scans its three strands
SCAN_PARAMS = [
    (3, 10, 6, 4, "1", 2, 0),
    (3, 10, 6, 4, "1", 2, 1),
    (3, 10, 6, 4, "3/4", 2, 0),
    (3, 10, 6, 4, "3/4", 2, 1),
    (3, 10, 6, 4, "1/2", 2, 1),
    (3, 10, 6, 4, "1/4", 2, 1),
]


@pytest.mark.parametrize("shape", SCAN_PARAMS, ids=lambda s: "-".join(map(str, s)))
def test_scan_fallback_matches_the_per_pair_reference(shape):
    params = mk_params(*shape)
    regime = classify_regime(params)
    rng = random.Random(str(shape))
    kinds = set()
    for _ in range(100):
        code = random_code(rng, params, rng.randint(1, 4))
        if rng.random() < 0.5:
            code.append(near_copy(rng, rng.choice(code), params))
        if rng.random() < 0.5:
            code.append(first_strand_copy(rng, code, params))
        code = list(set(code))
        got, looked_up = on_path(lambda: is_dna_correcting(code, params))
        assert not looked_up
        assert got == pairwise_verdict(code, params), [str(z) for z in code]
        kinds.add(got.kind)
    if regime is Regime.LOW_TAU:
        assert kinds == {VerdictKind.CORRECTING, VerdictKind.INDETERMINATE}
    elif regime is Regime.TAU_ONE:
        assert kinds == {VerdictKind.CORRECTING, VerdictKind.NOT_CORRECTING}
    else:
        assert kinds == set(VerdictKind)


# the benchmark's large-m verify shape: V(11, 2) = 67 index masks are
# fewer than the 512 strands of the second codeword, so the screen looks
# the first strand's partners up
LARGE_M_PARAMS = (512, 20, 11, 10, "1", 1, 1)


def large_m_codes(rng, params):
    """Two-codeword codes of ``params``: a random pair, a pair whose
    second codeword moves each data field of the first by two bits, and a
    pair that shares only the first strand."""
    z = random_message(rng, params)
    shifted = message_of(
        params, [(s.index_bits, s.data_bits ^ flip(rng, params.data_len, 2)) for s in z.strands]
    )
    return [
        [z, other]
        for other in [random_message(rng, params), shifted, first_strand_copy(rng, [z], params)]
    ]


def test_two_codewords_at_large_m_are_looked_up():
    params = mk_params(*LARGE_M_PARAMS)
    kinds = set()
    for code in large_m_codes(random.Random(512), params):
        got, scanned = looked_up_and_scanned(lambda: is_dna_correcting(code, params))
        assert got == scanned
        assert got == pairwise_verdict(code, params)
        kinds.add(got.kind)
    assert kinds == {VerdictKind.CORRECTING, VerdictKind.NOT_CORRECTING}


def screen_codes(rng, params):
    """Codes of ``params`` of 0, 1 and 2 codewords, and larger ones with
    pairs the screen keeps: near copies and first-strand copies."""
    if params.m == 512:
        codes = large_m_codes(rng, params)
    else:
        code = random_code(rng, params, 40 if params.m == 8 else 4)
        code.append(near_copy(rng, code[0], params))
        code += [first_strand_copy(rng, code, params) for _ in range(3)]
        codes = [sorted(set(code))]
    return [codes[0][:size] for size in (0, 1, 2)] + codes


# each shape with whether the row kernel's guard looks its largest code up
SCREEN_SHAPES = (
    [(s, True) for s in SCREEN_PARAMS]
    + [(s, False) for s in SCAN_PARAMS]
    + [(LARGE_M_PARAMS, True)]
)


@pytest.mark.parametrize(
    "shape, looked_up",
    SCREEN_SHAPES,
    ids=lambda s: "-".join(map(str, s)) if isinstance(s, tuple) else None,
)
def test_screen_yields_the_screened_in_pairs_in_order(shape, looked_up):
    params = mk_params(*shape)
    bound = yes_bound(params)
    kept = 0
    for code in screen_codes(random.Random(str(shape)), params):
        bits = [packed(z) for z in code]
        want = [
            (i, j)
            for i, j in combinations(range(len(code)), 2)
            if screened_in(code[i], code[j], bound)
        ]
        kept += len(want)
        for path in [None, "lookup", "scan"]:
            got, asked = on_path(lambda: list(PairTest(params).candidates(bits)), path)
            assert got == want, (path, [str(z) for z in code])
            if path and len(code) >= 2:
                assert asked is (path == "lookup")
    assert kept > 0
    # the guard's own choice on the last code, the largest
    assert on_path(lambda: list(PairTest(params).candidates(bits)))[1] is looked_up


@pytest.mark.parametrize("tau", ["1/2", "3/4"])
def test_indeterminate_from_pairs_the_screen_drops(tau):
    # one codeword fails both flags, so it fails the flag rule with every
    # other codeword, and the screen drops each of those pairs: only the
    # flag count can find that the code is not proved correcting
    params = mk_params(8, 24, 8, 10, tau, 1, 1)
    bound = yes_bound(params)
    rng = random.Random(tau)
    # the other codewords meet the first flag, so their pairs prove No
    code = [z for z in random_code(rng, params, 40) if restricted(z, params)[0]][:30]
    unproved = with_close_strands(rng, params, bound)
    assert restricted(unproved, params) == (False, False)
    for others in [code[:1], code]:
        assert is_dna_correcting(others, params).kind is VerdictKind.CORRECTING
        assert not any(
            screened_in(z1, z2, bound)
            for z1, z2 in combinations(sorted(others + [unproved]), 2)
            if unproved in (z1, z2)
        )
        got = is_dna_correcting(others + [unproved], params)
        assert got.kind is VerdictKind.INDETERMINATE
        assert got == pairwise_verdict(others + [unproved], params)


def test_verify_output_is_the_same_under_python_O(tmp_path):
    from test_search import CLI_IN_MODE

    params = mk_params(*SCREEN_PARAMS[0])
    rng = random.Random(29)
    code = random_code(rng, params, 149)
    code.append(near_copy(rng, rng.choice(code), params))
    path = tmp_path / "code.txt"
    write_text(path, code_lines(code, params))
    src = str(Path(dnacode.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    outputs = []
    for mode, flags in [("debug", []), ("optimized", ["-O"])]:
        done = subprocess.run(
            [sys.executable, *flags, "-c", CLI_IN_MODE, mode, "verify", "--code", str(path)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert not done.stderr, done.stderr
        outputs.append((done.returncode, done.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith(b"NOT_CORRECTING\n")


# the enumerated spaces of acceptance criterion 8, as (params, restriction)
SEARCH_SPACES = [
    ((1, 2, 1, 2, "1", 1, 0), None),
    ((1, 3, 1, 2, "1", 1, 1), None),
    ((1, 3, 2, 2, "1/2", 1, 1), None),
    ((1, 3, 1, 3, "2/3", 0, 1), None),
    ((1, 3, 2, 2, "1", 2, 0), None),
    ((2, 3, 2, 2, "1", 1, 0), (2, 0)),
    ((2, 3, 2, 2, "1/2", 1, 0), (2, 0)),
    ((2, 3, 2, 2, "1/2", 1, 0), None),
    # high tau with the budget below M*K/(2M-1), so No also follows from
    # both messages avoiding (e_i, e_d)
    ((2, 4, 2, 4, "1/2", 1, 0), None),
    # e_d > 0 at M = 4
    ((4, 4, 2, 4, "3/4", 0, 1), None),
    # M = 8: the graph build has no M threshold
    ((8, 4, 3, 2, "1", 1, 0), None),
]


@pytest.mark.parametrize("shape, restrict", SEARCH_SPACES)
def test_graph_matches_the_per_pair_reference(shape, restrict):
    params = mk_params(*shape)
    graph = build_graph(params, restrict)
    assert graph.vertices == tuple(enumerate_space(params, restrict))
    assert graph.adjacency == pairwise_adjacency(graph.vertices, params)


def test_early_exit_violators_are_real():
    rng = random.Random(71)
    early = full = 0
    for m, length, index_len in [(2, 4, 2), (3, 5, 2), (4, 6, 3)]:
        params = mk_params(m, length, index_len, 2, "1", 1, 1)
        for _ in range(300):
            z1, z2 = random_message(rng, params), random_message(rng, params)
            for bound in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
                got = bijection_within_or_violator(z1, z2, bound)
                if not isinstance(got, HallViolator):
                    continue
                assert is_real_violator(z1, z2, bound, got), (str(z1), str(z2), bound)
                if len(got.left_set) == 1 and not got.neighborhood:
                    early += 1
                else:
                    full += 1
    assert early >= 100 and full >= 10


def test_violator_check_rejects_a_wrong_certificate():
    params = mk_params(2, 4, 2, 2, "1", 1, 1)
    rng = random.Random(3)
    z1, z2 = random_message(rng, params), random_message(rng, params)
    # every strand of z2 is within (2, 2) of every strand of z1
    fake = HallViolator(frozenset({0}), frozenset())
    assert not is_real_violator(z1, z2, (2, 2), fake)


def bucketed_code(rng, params, multisets, size):
    code = []
    while len(code) < size:
        data = list(rng.choice(multisets))
        rng.shuffle(data)
        indices = rng.sample(range(1 << params.index_len), params.m)
        z = Message(
            tuple(
                Strand.from_fields(i, d, params.length, params.index_len)
                for i, d in zip(indices, data)
            )
        )
        if z not in code:
            code.append(z)
    return code


def test_min_dna_distance_matches_the_all_pairs_reference():
    params = mk_params(3, 5, 3, 2, "1", 1, 0)
    rng = random.Random(83)
    cross_bucket_ties = 0
    for _ in range(300):
        multisets = [
            tuple(rng.randrange(4) for _ in range(3)) for _ in range(rng.randint(1, 3))
        ]
        code = bucketed_code(rng, params, multisets, rng.randint(2, 7))
        got = min_dna_distance(code)
        assert got == oracle_min_dna_distance(code), [str(z) for z in code]
        # the data-field multisets with a pair at the minimum
        at_minimum = {
            tuple(sorted(s.data_bits for s in a.strands))
            for a, b in combinations(code, 2)
            if oracle_dna_distance(a, b) == got[0]
        }
        cross_bucket_ties += len(at_minimum) > 1
    assert cross_bucket_ties >= 20


def test_min_dna_distance_with_every_multiset_distinct():
    params = mk_params(3, 5, 3, 2, "1", 1, 0)
    rng = random.Random(89)
    code = bucketed_code(rng, params, [(0, 0, 1)], 1)
    code += bucketed_code(rng, params, [(0, 1, 1)], 1)
    code += bucketed_code(rng, params, [(1, 2, 3)], 1)
    assert min_dna_distance(code) == (math.inf, (code[0], code[1]))
    assert oracle_min_dna_distance(code) == (math.inf, (code[0], code[1]))


def test_min_dna_distance_rejects_a_mixed_shape_code():
    rng = random.Random(97)
    small = random_code(rng, mk_params(2, 5, 3, 2, "1", 1, 0), 2)
    large = random_code(rng, mk_params(3, 5, 3, 2, "1", 1, 0), 2)
    with pytest.raises(ShapeMismatch):
        min_dna_distance(small + large)
