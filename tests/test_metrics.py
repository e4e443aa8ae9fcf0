"""Split distance, DNA-distance, and minimum code distance."""

import math
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from dnacode import (
    DuplicateCodeword,
    Message,
    PairDistance,
    ShapeMismatch,
    Strand,
    TooFewCodewords,
    dna_distance,
    enumerate_space,
    min_dna_distance,
    pair_leq,
    split_distance,
)
from dnacode import matching, metrics
from dnacode.matching import HallViolator, bijection_within_or_violator
from dnacode.model import split_popcount

from oracles import (
    mk_message,
    mk_params,
    oracle_dna_distance,
    oracle_min_dna_distance,
    random_message,
    random_same_ms_pair,
    reference_dna_distance,
    scipy_has_perfect_matching,
    strand_from_fields,
)
from test_matching import local_bottleneck


def test_split_distance_examples():
    assert split_distance(Strand.from_string("001", 2), Strand.from_string("010", 2)) == (1, 1)
    s = Strand.from_string("001", 2)
    assert split_distance(s, s) == (0, 0)
    assert split_distance(Strand.from_string("000", 2), Strand.from_string("111", 2)) == (2, 1)


def test_split_distance_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        split_distance(Strand.from_string("00", 1), Strand.from_string("000", 1))
    with pytest.raises(ShapeMismatch):
        split_distance(Strand.from_string("000", 1), Strand.from_string("000", 2))


def test_split_popcount():
    assert split_popcount(0b110, 1) == (2, 0)
    assert split_popcount(0b1011 ^ 0b0110, 2) == (2, 1)


def test_pair_order_is_partial():
    assert pair_leq((0, 0), (1, 1))
    assert pair_leq((1, 1), (1, 1))
    assert not pair_leq((2, 0), (1, 1))
    assert not pair_leq((0, 2), (1, 1))
    # incomparable both ways
    assert not pair_leq((2, 0), (0, 2)) and not pair_leq((0, 2), (2, 0))


strands5 = st.integers(0, 31).map(lambda v: Strand(v, 5, 3))


@given(strands5, strands5, strands5)
def test_split_distance_quasi_metric(x, y, z):
    dxy = split_distance(x, y)
    assert (dxy == (0, 0)) == (x == y)
    assert dxy == split_distance(y, x)
    dxz, dyz = split_distance(x, z), split_distance(y, z)
    assert pair_leq(dxz, (dxy.idx + dyz.idx, dxy.dat + dyz.dat))


def test_dna_distance_examples():
    z = mk_message(2, "001", "011")
    assert dna_distance(z, z) == 0
    assert dna_distance(mk_message(2, "001"), mk_message(2, "000")) == math.inf
    z1 = mk_message(2, "001", "011")
    z2 = mk_message(2, "111", "011")
    assert dna_distance(z1, z2) == 1


def test_dna_distance_infinite_iff_multisets_differ():
    # same multiset {0,1} under different index assignments: finite
    z1 = mk_message(1, "00", "11")
    z2 = mk_message(1, "01", "10")
    assert dna_distance(z1, z2) == 1
    # multisets {0,0} vs {0,1}: infinite
    assert dna_distance(mk_message(1, "00", "10"), z2) == math.inf


def test_dna_distance_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dna_distance(mk_message(1, "00"), mk_message(1, "000"))


def test_dna_distance_random_agreement_with_oracle():
    rng = random.Random(41)
    p = mk_params(3, 5, 3, 2, 1, 1, 1)
    for _ in range(250):
        z1, z2 = random_same_ms_pair(rng, p)
        assert dna_distance(z1, z2) == oracle_dna_distance(z1, z2)
        z3 = random_message(rng, p)
        assert dna_distance(z1, z3) == oracle_dna_distance(z1, z3)


def test_dna_distance_agrees_with_scipy_at_m_512():
    # D(Z1, Z2) is the least D with a strand bijection within (D, 0)
    pytest.importorskip("scipy")
    rng = random.Random(53)
    p = mk_params(512, 20, 11, 10, 1, 1, 1)
    data = [u for u in rng.sample(range(1 << p.data_len), 8) for _ in range(64)]

    def message():
        rng.shuffle(data)
        indices = rng.sample(range(1 << p.index_len), p.m)
        return Message(
            tuple(
                strand_from_fields(i, u, p.length, p.index_len) for i, u in zip(indices, data)
            )
        )

    z1, z2 = message(), message()
    d = dna_distance(z1, z2)
    assert 0 < d < math.inf
    dist = [
        [
            (x.index_bits ^ y.index_bits).bit_count() if x.data_bits == y.data_bits else p.length
            for y in z2.strands
        ]
        for x in z1.strands
    ]
    assert scipy_has_perfect_matching([[e <= d for e in row] for row in dist])
    assert not scipy_has_perfect_matching([[e < d for e in row] for row in dist])


def test_dna_distance_axioms_on_shared_multiset():
    rng = random.Random(43)
    p = mk_params(3, 6, 3, 2, 1, 1, 1)
    for _ in range(150):
        z1, z2 = random_same_ms_pair(rng, p)
        _, z3 = random_same_ms_pair(rng, p)
        data = sorted(s.data_bits for s in z1.strands)
        if sorted(s.data_bits for s in z3.strands) != data:
            continue
        d12, d13, d23 = dna_distance(z1, z2), dna_distance(z1, z3), dna_distance(z2, z3)
        assert d12 == dna_distance(z2, z1)
        assert (d12 == 0) == (z1 == z2)
        assert d13 <= d12 + d23


def test_anchor_equivalence_with_index_only_bijections():
    # D(Z1, Z2) <= r iff some bijection stays within (r, 0), pair by pair
    p = mk_params(2, 3, 2, 2, 1, 1, 0)
    msgs = list(enumerate_space(p))
    for i, z1 in enumerate(msgs):
        for z2 in msgs[i:]:
            d = dna_distance(z1, z2)
            for r in range(p.index_len + 1):
                has_bij = not isinstance(
                    bijection_within_or_violator(z1, z2, (r, 0)), HallViolator
                )
                assert has_bij == (d <= r), (str(z1), str(z2), r, d)


def test_min_dna_distance_examples():
    z1 = mk_message(2, "001", "011")
    z2 = mk_message(2, "111", "011")
    value, pair = min_dna_distance([z1, z2])
    assert value == 1 and set(pair) == {z1, z2}

    other = mk_message(2, "000", "011")  # data multiset differs from z1's
    assert min_dna_distance([z1, other])[0] == math.inf

    value, pair = min_dna_distance([z1, z2, other])
    assert value == 1 and set(pair) == {z1, z2}


def test_min_dna_distance_errors():
    z = mk_message(1, "00")
    with pytest.raises(TooFewCodewords):
        min_dna_distance([z])
    with pytest.raises(DuplicateCodeword):
        min_dna_distance([z, z])


def test_min_dna_distance_scans_in_given_order():
    a = mk_message(1, "00", "11")
    b = mk_message(1, "01", "10")  # D(a, b) = 1
    c = mk_message(1, "00", "10")  # infinite to both
    value, pair = min_dna_distance([c, a, b])
    assert value == 1 and pair == (a, b)


def test_min_dna_distance_is_brute_force_min():
    rng = random.Random(47)
    p = mk_params(2, 4, 2, 2, 1, 1, 1)
    for _ in range(50):
        code = []
        while len(code) < 4:
            z = random_message(rng, p)
            if z not in code:
                code.append(z)
        value, pair = min_dna_distance(code)
        brute = min(
            dna_distance(code[i], code[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert value == brute
        assert dna_distance(*pair) == value


def benchmark_shaped_code(rng, buckets=30, size=5):
    """``buckets`` groups of ``size`` codewords at M=8, L=16, l=8, each
    group sharing one data multiset over 3 distinct values (used by 3, 3
    and 2 strands), listed in shuffled order: the shape of the
    benchmark's verify-many min-distance code."""
    used = set()
    code = []
    for _ in range(buckets):
        while True:
            values = rng.sample(range(256), 3)
            data = [values[i % 3] for i in range(8)]
            if tuple(sorted(data)) not in used:
                used.add(tuple(sorted(data)))
                break
        bucket = []
        while len(bucket) < size:
            indices = rng.sample(range(256), 8)
            z = Message(tuple(strand_from_fields(i, u, 16, 8) for i, u in zip(indices, data)))
            if z not in bucket:
                bucket.append(z)
        code += bucket
    rng.shuffle(code)
    return code


def test_min_dna_distance_at_the_benchmark_shape():
    tied = 0
    for seed in range(6):
        code = benchmark_shaped_code(random.Random(seed))
        got = min_dna_distance(code)
        assert got == oracle_min_dna_distance(code, reference_dna_distance), seed
        # the witness rule decides where several pairs tie at the minimum
        ties = sum(reference_dna_distance(a, b) == got[0] for a, b in combinations(code, 2))
        tied += ties > 1
    assert tied >= 4


def test_min_dna_distance_computes_the_value_of_pairs_that_beat_the_best():
    # pairs that beat the best so far reach the value path, one
    # bottleneck_value call per data group, and the others are decided before
    code = benchmark_shaped_code(random.Random(11))
    with mock.patch.object(
        metrics, "_grouped_distance", wraps=metrics._grouped_distance
    ) as valued, mock.patch.object(
        metrics, "bottleneck_value", wraps=metrics.bottleneck_value
    ) as bottleneck:
        assert min_dna_distance(code) == oracle_min_dna_distance(code, reference_dna_distance)
    same_bucket_pairs = 30 * 10
    assert 3 <= valued.call_count < same_bucket_pairs
    # three data values per codeword
    assert bottleneck.call_count == 3 * valued.call_count


def large_m_code(rng, size=3):
    """``size`` codewords at M=512, L=20, l=11 sharing one data multiset of
    8 values, each carried by 64 strands: the benchmark's large-m shape."""
    data = [u for u in rng.sample(range(512), 8) for _ in range(64)]
    return [
        Message(
            tuple(
                strand_from_fields(i, u, 20, 11)
                for i, u in zip(rng.sample(range(2048), 512), data)
            )
        )
        for _ in range(size)
    ]


def local_dna_distance(z1, z2):
    """The DNA-distance of two messages of one data multiset, each data
    group's bottleneck from the matching tests' local reference."""
    g1, g2 = {}, {}
    for z, g in ((z1, g1), (z2, g2)):
        for s in z.strands:
            g.setdefault(s.data_bits, []).append(s.index_bits)
    return max(local_bottleneck(g1[u], g2[u]) for u in g1)


def test_distances_run_no_hopcroft_karp():
    # a value is a threshold sweep: no bijection is built behind it
    small = benchmark_shaped_code(random.Random(13))
    # three buckets of five codewords: finite pairs and infinite ones
    bucketed = sorted(small, key=lambda z: sorted(s.data_bits for s in z.strands))[:15]
    wide = large_m_code(random.Random(17))
    with mock.patch.object(
        matching, "_hopcroft_karp", wraps=matching._hopcroft_karp
    ) as hopcroft_karp:
        small_values = [dna_distance(a, b) for a, b in combinations(bucketed, 2)]
        small_min = min_dna_distance(small)
        wide_values = [dna_distance(a, b) for a, b in combinations(wide, 2)]
        wide_min = min_dna_distance(wide)
    assert hopcroft_karp.call_count == 0
    assert small_values == [reference_dna_distance(a, b) for a, b in combinations(bucketed, 2)]
    assert 0 < sum(v < math.inf for v in small_values) < len(small_values)
    assert small_min == oracle_min_dna_distance(small, reference_dna_distance)
    assert wide_values == [local_dna_distance(a, b) for a, b in combinations(wide, 2)]
    assert wide_min == oracle_min_dna_distance(wide, local_dna_distance)


def two_strand_message(data, *indices):
    """A message of strands with 3-bit index fields and one data bit."""
    return Message(tuple(strand_from_fields(i, data, 4, 3) for i in indices))


def test_a_tie_that_precedes_the_witness_in_a_later_bucket_wins():
    # data-0 bucket {0, 2, 3}: D(0,2) = D(0,3) = 2 and D(2,3) = 1, so the
    # witness is (2,3) when the data-1 bucket {1, 4} comes up; its pair
    # (1,4) is at 1 too and comes first in canonical order
    code = [
        two_strand_message(0, 0, 1),
        two_strand_message(1, 0, 1),
        two_strand_message(0, 6, 7),
        two_strand_message(0, 5, 6),
        two_strand_message(1, 0, 3),
    ]
    assert [reference_dna_distance(code[0], code[j]) for j in (2, 3)] == [2, 2]
    assert reference_dna_distance(code[2], code[3]) == 1
    assert reference_dna_distance(code[1], code[4]) == 1
    assert min_dna_distance(code) == (1, (code[1], code[4]))
    assert oracle_min_dna_distance(code, reference_dna_distance) == (1, (code[1], code[4]))


def test_a_tie_after_the_witness_loses_and_a_smaller_pair_wins():
    # data-0 bucket {0, 1, 3} has its witness (0,1) at 1; the data-1
    # bucket's pair (2,4) is at 1 too but comes later, so it is tested
    # at threshold 0 and loses
    code = [
        two_strand_message(0, 0, 1),
        two_strand_message(0, 0, 3),
        two_strand_message(1, 0, 1),
        two_strand_message(0, 6, 7),
        two_strand_message(1, 1, 3),
    ]
    assert reference_dna_distance(code[2], code[4]) == 1
    assert min_dna_distance(code) == (1, (code[0], code[1]))
    assert oracle_min_dna_distance(code, reference_dna_distance) == (1, (code[0], code[1]))
    # the same later pair beats a witness at 2
    code = [code[0], code[3], code[2], code[4]]
    assert reference_dna_distance(code[0], code[1]) == 2
    assert min_dna_distance(code) == (1, (code[2], code[3]))
    assert oracle_min_dna_distance(code, reference_dna_distance) == (1, (code[2], code[3]))

