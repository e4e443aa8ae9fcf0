"""The pair loops of the code verifier, the graph build and the minimum
DNA-distance, checked against per-pair references; the violators that
end a bijection test early, checked from the strands alone."""

import math
import random
from itertools import combinations

import pytest

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

from oracles import (
    is_real_violator,
    mk_params,
    oracle_dna_distance,
    oracle_min_dna_distance,
    pairwise_adjacency,
    pairwise_verdict,
    random_message,
)

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
