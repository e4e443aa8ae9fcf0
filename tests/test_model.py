"""Strand/message/parameter model: packing, validation, enumeration."""

import copy
import pickle
import random
import weakref
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dnacode import (
    Answer,
    DuplicateIndex,
    DuplicateStrand,
    Message,
    ParamMismatch,
    ReadPool,
    ShapeMismatch,
    SpaceTooLarge,
    Strand,
    SystemParams,
    ValidationError,
    WrongCount,
    WrongLength,
    assignment_feasible,
    balls_intersect,
    enumerate_space,
    has_distinct_data,
    in_ball,
    in_restricted_space,
    is_dna_correcting,
    oracle_balls_intersect,
    read_neighborhood,
    sample_ball,
    space_size,
    validate_message,
)
from dnacode import cli
from dnacode.model import _message_from_packed, bits_from_string, bits_to_string

from oracles import (
    SnapshotMessage,
    mk_message,
    mk_params,
    random_message,
    reference_bare_message,
    reference_enumerate_space,
    reference_pool,
    reference_space,
    reference_validate_message,
    strand_from_fields,
)

bitstrings = st.text(alphabet="01", min_size=1, max_size=16)


@given(bitstrings)
def test_bit_string_round_trip(s):
    assert bits_to_string(bits_from_string(s), len(s)) == s


def test_bits_msb_first():
    assert bits_from_string("100") == 4
    assert bits_from_string("001") == 1
    assert bits_to_string(6, 4) == "0110"


@pytest.mark.parametrize("s", ["+1", " 1", "1 ", "1_0", "-0", "0b1", "\uff11", "2"])
def test_bits_from_string_accepts_only_0_and_1(s):
    with pytest.raises(ValidationError, match="may contain only 0 and 1"):
        bits_from_string(s)


def test_bits_from_empty_string_is_zero():
    assert bits_from_string("") == 0


def test_strand_fields():
    s = Strand.from_string("110", index_len=2)
    assert (s.index_bits, s.data_bits) == (3, 0)
    assert (s.length, s.index_len, s.data_len) == (3, 2, 1)
    assert str(s) == "110"
    assert strand_from_fields(3, 0, 3, 2) == s


def test_strand_rejects_out_of_range_bits():
    with pytest.raises(WrongLength):
        Strand(bits=8, length=3, index_len=1)
    with pytest.raises(WrongLength):
        Strand(bits=-1, length=3, index_len=1)
    # a packed value is an int: not a float, a bool or a string
    for bits in (2.5, 2.0, True, False, "010", None):
        with pytest.raises(ValidationError, match="bit value must be an int") as caught:
            Strand(bits, 3, 2)
        assert type(caught.value) is ValidationError
    with pytest.raises(ValidationError):
        Strand(bits=0, length=0, index_len=0)
    with pytest.raises(ValidationError):
        Strand(bits=0, length=3, index_len=3)  # data field must be non-empty


def test_message_canonical_order_ignores_input_order():
    a = mk_message(1, "00", "11")
    b = mk_message(1, "11", "00")
    assert a == b
    assert [str(s) for s in a.strands] == ["00", "11"]
    assert str(a) == "{00,11}"


def test_message_duplicate_strand_beats_duplicate_index():
    s = Strand.from_string("01", 1)
    with pytest.raises(DuplicateStrand):
        Message((s, s))
    with pytest.raises(DuplicateIndex):
        mk_message(1, "00", "01")


def test_message_shape_and_count_errors():
    with pytest.raises(WrongCount):
        Message(())
    with pytest.raises(ShapeMismatch):
        Message((Strand.from_string("00", 1), Strand.from_string("110", 1)))


def test_validate_message_error_precedence():
    p = mk_params(2, 3, 2, 2, 1, 1, 1)
    # wrong length reported before wrong count
    with pytest.raises(WrongLength):
        validate_message([0b1000], p)
    with pytest.raises(WrongCount):
        validate_message([0b000], p)
    with pytest.raises(WrongCount):
        validate_message([0b000, 0b010, 0b100], p)
    with pytest.raises(DuplicateStrand):
        validate_message([0b000, 0b000], p)
    with pytest.raises(DuplicateIndex):
        validate_message([0b000, 0b001], p)
    z = validate_message([0b010, 0b000], p)
    assert str(z) == "{000,010}"
    # an item that is not a packed int is reported first, as a ValidationError
    for bad in (0.0, 2.5, True, "000", b"000", None):
        with pytest.raises(ValidationError, match="bit value must be an int") as caught:
            validate_message([0b000, bad, 0b000], p)
        assert type(caught.value) is ValidationError
    # a repeated strand is reported even when a shared index sorts first
    both = ["000", "001", "100", "100"]
    with pytest.raises(DuplicateStrand):
        validate_message([int(s, 2) for s in both], mk_params(4, 3, 2, 2, 1, 1, 1))
    with pytest.raises(DuplicateStrand):
        Message(tuple(Strand.from_string(s, 2) for s in both))


def test_validate_message_takes_a_one_shot_iterable():
    p = mk_params(2, 3, 2, 2, 1, 1, 1)
    assert validate_message(iter([0b010, 0b000]), p) == validate_message([0b010, 0b000], p)
    with pytest.raises(WrongLength, match="bit value 8 does not fit in 3 bits"):
        validate_message(iter([0b000, 0b1000]), p)


SHAPE_PARAMS = mk_params(2, 3, 2, 2, 1, 1, 0)
SHAPE_POOL = reference_pool([0b000, 0b000, 0b110, 0b110], 3)
SHAPE_CALLS = {
    "balls_intersect": lambda zs: balls_intersect(*zs, SHAPE_PARAMS),
    "is_dna_correcting": lambda zs: is_dna_correcting(zs, SHAPE_PARAMS),
    "oracle_balls_intersect": lambda zs: oracle_balls_intersect(*zs, SHAPE_PARAMS),
    "sample_ball": lambda zs: sample_ball(zs[0], SHAPE_PARAMS, seed=0),
    "read_neighborhood": lambda zs: read_neighborhood(zs[0], SHAPE_PARAMS),
    "in_ball": lambda zs: in_ball(SHAPE_POOL, zs[0], SHAPE_PARAMS),
    "assignment_feasible": lambda zs: assignment_feasible(SHAPE_POOL, zs[0], SHAPE_PARAMS),
}
SHAPE_CASES = {
    "too-few-strands": ((mk_message(2, "000"), mk_message(2, "110")), ParamMismatch),
    "too-long": ((mk_message(2, "0000", "1100"), mk_message(2, "0001", "1101")), ParamMismatch),
    "mixed": ((mk_message(2, "000", "110"), mk_message(2, "0000", "1100")), ShapeMismatch),
}


@pytest.mark.parametrize(
    "name, case",
    [(name, case) for name in SHAPE_CALLS for case in ("too-few-strands", "too-long")]
    + [
        (name, "mixed")
        for name in ("balls_intersect", "is_dna_correcting", "oracle_balls_intersect")
    ],
)
def test_shape_rule(name, case):
    """Messages that disagree with each other raise ShapeMismatch; a
    common shape that disagrees with the params raises ParamMismatch."""
    messages, error = SHAPE_CASES[case]
    with pytest.raises(error):
        SHAPE_CALLS[name](list(messages))


def test_read_pool_is_a_sorted_multiset():
    pool = reference_pool([0b11, 0b00, 0b11], 2)
    assert pool.entries == ((0, 1), (3, 2))
    assert pool.size == 3
    assert pool == reference_pool([3, 3, 0], 2)
    assert pool == ReadPool(2, ((3, 1), (0, 1), (3, 1)))


def test_read_pool_checks_each_value_and_count():
    # a value out of range raises WrongLength, the first in the given order
    for reads in ([7, 1], [1, 2, 7, -1], [-1, 4, 3], [2, 4, 4]):
        bad = next(r for r in reads if not 0 <= r < 4)
        with pytest.raises(WrongLength, match=f"^read {bad} does not fit in 2 bits$"):
            ReadPool(2, tuple((r, 1) for r in reads))
        with pytest.raises(WrongLength, match=f"^read {bad} does not fit in 2 bits$"):
            reference_pool(reads, 2)
    # a value that is not an int, e.g. an unpacked file token
    for value in (1.0, True, "01", None):
        with pytest.raises(ValidationError, match="read must be an int") as caught:
            ReadPool(2, ((0, 1), (value, 2)))
        assert type(caught.value) is ValidationError
        with pytest.raises(ValidationError, match="read must be an int"):
            reference_pool([0, value], 2)
    # a count that is not a positive int; an empty pool is a pool
    for count in (0, -1, 1.5, 0.5, True, "1"):
        with pytest.raises(ValidationError, match="multiplicity must be a positive int"):
            ReadPool(3, ((0, 1), (1, count)))
    assert reference_pool([], 3).size == 0


def test_system_params_validation():
    with pytest.raises(ValidationError):
        mk_params(3, 3, 1, 2, 1, 1, 1)  # M > 2^l
    with pytest.raises(ValidationError):
        mk_params(1, 2, 1, 2, "3/2", 1, 1)  # tau > 1
    with pytest.raises(ValidationError):
        SystemParams(1, 2, 1, 2, Fraction(0), 1, 1)  # tau must be positive
    with pytest.raises(ValidationError):
        mk_params(1, 2, 1, 2, 1, 2, 1)  # e_i > l
    with pytest.raises(ValidationError):
        mk_params(1, 2, 1, 2, 1, 1, 2)  # e_d > L - l
    with pytest.raises(ValidationError):
        mk_params(1, 65, 1, 2, 1, 1, 1)  # strand too long


@pytest.mark.parametrize("m, length, index_len, k, text", [
    (0, 3, 1, 2, "M and K must be positive"),
    (1, 3, 1, 0, "M and K must be positive"),
    (0, 3, 0, 0, "M and K must be positive"),
    (1, 3, 0, 2, "need 0 < l < L, got l=0, L=3"),
    (1, 3, 3, 2, "need 0 < l < L, got l=3, L=3"),
    (1, 3, 4, 2, "need 0 < l < L, got l=4, L=3"),
])
def test_system_params_rejects_empty_counts_and_index_fields_out_of_range(
    m, length, index_len, k, text
):
    with pytest.raises(ValidationError) as caught:
        SystemParams(m, length, index_len, k, 1, 0, 0)
    assert (type(caught.value), str(caught.value)) == (ValidationError, text)


def test_tau_budget_is_an_exact_floor():
    assert mk_params(1, 2, 1, 3, "2/3", 1, 1).tau_budget == 2
    assert mk_params(1, 2, 1, 3, "1/2", 1, 1).tau_budget == 1
    assert mk_params(1, 2, 1, 2, "1/3", 1, 1).tau_budget == 0
    assert mk_params(1, 2, 1, 2, "1", 1, 1).tau_budget == 2
    # 0.66... * 3 must not round up
    assert mk_params(1, 2, 1, 3, Fraction(66, 100), 1, 1).tau_budget == 1


def test_tau_must_be_exact():
    # 0.7 as a float is just below 7/10, so floor(tau*10) would be 6 and
    # the budget < M*K/(2M-1) hypothesis would prove a NO that 7/10 leaves open
    z1, z2 = mk_message(2, "0000", "0101"), mk_message(2, "0000", "1100")
    exact = SystemParams(2, 4, 2, 10, Fraction(7, 10), 1, 0)
    assert exact.tau_budget == 7
    assert balls_intersect(z1, z2, exact).answer is Answer.UNKNOWN
    assert SystemParams(2, 4, 2, 10, "7/10", 1, 0) == exact
    assert SystemParams(2, 4, 2, 10, 1, 1, 0).tau == 1
    assert SystemParams(2, 4, 2, 10, "1", 1, 0).tau == 1
    # one written form, the one --params and %params headers take
    for bad in [0.7, 1.0, "seven tenths", "1/0", "0.75", "3e-1", " 3/4 ", "1_0/20"]:
        with pytest.raises(ValidationError):
            SystemParams(2, 4, 2, 10, bad, 1, 0)
    # bool is an int subclass, but neither True nor False is a fraction
    for bad in [True, False]:
        with pytest.raises(ValidationError, match="^tau must be exact .* got bool"):
            SystemParams(2, 4, 2, 10, bad, 1, 0)


def test_integer_fields_must_be_ints():
    good = dict(m=2, length=4, index_len=2, k=10, tau="1", e_i=1, e_d=0)
    for name in ("m", "length", "index_len", "k", "e_i", "e_d"):
        # a digit string, a float, a missing value, and a bool (an int subclass)
        for bad in ["2", 2.5, None, True]:
            with pytest.raises(ValidationError, match=f"^{name} must be an int"):
                SystemParams(**{**good, name: bad})


def test_pool_size():
    assert mk_params(2, 3, 2, 3, 1, 1, 1).pool_size == 6


def test_space_size_matches_enumeration():
    for m, L, l in [(1, 2, 1), (2, 3, 2), (2, 3, 1), (3, 3, 2), (1, 4, 2)]:
        p = mk_params(m, L, l, 2, 1, 0, 0)
        msgs = list(enumerate_space(p))
        assert len(msgs) == space_size(p)
        assert len(set(msgs)) == len(msgs)


def test_space_sizes_by_formula():
    assert space_size(mk_params(1, 2, 1, 2, 1, 0, 0)) == 4
    assert space_size(mk_params(2, 3, 2, 2, 1, 0, 0)) == 24
    assert space_size(mk_params(2, 3, 1, 2, 1, 0, 0)) == 16


def test_enumeration_cap():
    p = mk_params(2, 3, 2, 2, 1, 0, 0)
    with pytest.raises(SpaceTooLarge):
        list(enumerate_space(p, cap=10))


def test_restricted_enumeration_matches_filter():
    p = mk_params(2, 3, 2, 2, 1, 1, 0)
    whole = list(enumerate_space(p))
    for r in [(0, 0), (1, 0), (2, 0), (2, 1)]:
        got = list(enumerate_space(p, restrict=r))
        assert got == [z for z in whole if in_restricted_space(z, *r)]


@pytest.mark.parametrize(
    "shape, restrict",
    [
        ((1, 3, 1), None),  # M = 1
        ((1, 4, 2), (2, 2)),
        ((2, 3, 1), None),  # M = 2^l: a single index-field set
        ((4, 3, 2), None),
        ((4, 4, 2), (1, 1)),
        ((2, 3, 2), None),
        ((3, 4, 2), None),
        ((2, 4, 3), (2, 0)),
        ((2, 3, 2), (2, 1)),  # an empty restricted space
    ],
)
def test_enumeration_matches_the_reference(shape, restrict):
    p = mk_params(*shape, 2, 1, 1, 0)
    space = enumerate_space(p, restrict)
    assert isinstance(space, Iterator)
    assert list(space) == reference_space(p, restrict)


def test_restricted_spaces_nest_as_radii_grow():
    p = mk_params(2, 3, 2, 2, 1, 1, 0)
    for z in enumerate_space(p):
        if in_restricted_space(z, 2, 1):
            assert in_restricted_space(z, 2, 0)
            assert in_restricted_space(z, 1, 0)


def test_distinct_data_is_the_data_zero_restriction():
    p = mk_params(2, 3, 2, 2, 1, 1, 0)
    for z in enumerate_space(p):
        assert has_distinct_data(z) == in_restricted_space(z, p.index_len, 0)
        if has_distinct_data(z):
            # distinct data defeats any index radius paired with data radius 0
            assert in_restricted_space(z, 2 * p.index_len, 0)


def test_single_strand_messages_are_always_restricted():
    p = mk_params(1, 3, 1, 2, 1, 1, 1)
    for z in enumerate_space(p):
        assert in_restricted_space(z, 3, 3)
        assert has_distinct_data(z)


def test_random_message_generator_produces_valid_messages():
    rng = random.Random(7)
    p = mk_params(3, 5, 2, 2, 1, 1, 1)
    for _ in range(50):
        z = random_message(rng, p)
        assert z.m == 3 and z.length == 5 and z.index_len == 2


def _outcome(build, *args):
    """What a constructor gives: the message, or its error as (class, text)."""
    try:
        return build(*args)
    except Exception as e:
        return type(e), str(e)


def _assert_same_outcomes(got, want, case):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert g == w, case
            continue
        assert isinstance(g, Message), case
        assert g == w and hash(g) == hash(w) and str(g) == str(w), case
        assert all(type(s) is Strand for s in g.strands)
        assert [vars(s) for s in g.strands] == [vars(s) for s in w.strands]
    made = [(g, w) for g, w in zip(got, want) if isinstance(w, Message)]
    for (g1, w1), (g2, w2) in zip(made, made[1:]):
        assert (g1 < g2, g2 < g1) == (w1 < w2, w2 < w1), case


_MALFORMED = (
    "valid", "not-an-int", "int-out-of-range", "other-shape",
    "wrong-count", "duplicate-strand", "duplicate-index", "duplicate-both",
)


def _raw_strands(rng, p, kind):
    """M strand items (ints and Strands mixed) of a valid message, then
    spoiled as ``kind`` names."""
    indices = rng.sample(range(1 << p.index_len), p.m)
    values = [(i << p.data_len) | rng.randrange(1 << p.data_len) for i in indices]
    if kind in ("duplicate-index", "duplicate-both"):
        values.append(values[0] ^ 1)
    if kind in ("duplicate-strand", "duplicate-both"):
        values.insert(rng.randrange(len(values) + 1), rng.choice(values))
    if kind == "wrong-count":
        values = values[:-1] if rng.random() < 0.5 else values + [values[0] ^ 1 << p.data_len]
    forms = [lambda v: v, lambda v: Strand(v, p.length, p.index_len)]
    raw = [rng.choice(forms)(v) for v in values]
    at = rng.randrange(len(raw)) if raw else 0
    if kind == "not-an-int":
        v = values[at]
        raw[at] = rng.choice([bits_to_string(v, p.length), float(v), bool(v & 1), None])
    elif kind == "int-out-of-range":
        raw[at] = rng.choice([-1, 1 << p.length, (1 << p.length) + values[at]])
    elif kind == "other-shape":
        shapes = [(p.length + 1, p.index_len)]
        if p.index_len + 1 < p.length:
            shapes.append((p.length, p.index_len + 1))
        raw[at] = Strand(values[at], *rng.choice(shapes))
    return raw


def test_validate_message_matches_the_per_strand_reference():
    rng = random.Random(1701)
    got, want = [], []
    for _ in range(600):
        length = rng.randint(2, 12)
        index_len = rng.randint(1, length - 1)
        m = rng.randint(1, min(5, 1 << index_len))
        p = mk_params(m, length, index_len, 2, 1, 0, 0)
        kind = rng.choice(_MALFORMED)
        raw = _raw_strands(rng, p, kind)
        if kind != "wrong-count" and len(raw) != m:
            # a repeat adds an item: the params expect it, so the count holds
            if len(raw) > 1 << index_len:
                continue
            p = mk_params(len(raw), length, index_len, 2, 1, 0, 0)
        got.append(_outcome(validate_message, raw, p))
        want.append(_outcome(reference_validate_message, raw, p))
        _assert_same_outcomes(got[-1:], want[-1:], (kind, raw, p))
    raised = {w[0] for w in want if isinstance(w, tuple)}
    assert raised == {ValidationError, WrongLength, WrongCount, DuplicateStrand, DuplicateIndex}
    _assert_same_outcomes(got, want, "order")


def _reference_strands(block, p):
    """A block's tokens as Strands, each parsed on its own by ``Strand.from_string``."""
    return [Strand.from_string(token, p.index_len) for token in block]


def test_cli_message_inputs_match_the_per_strand_reference():
    """The blocks the CLI's one builder reads, under params as `verify`
    reads them and without M and L as `distance` / `min-distance` may:
    0/1 tokens of one length, packed as io.read_blocks passes them on."""
    rng = random.Random(1702)
    cases = 0
    for _ in range(600):
        length = rng.choice([2, 3, 5, 8, 16, 24, 64, 65, 70])
        index_len = rng.choice([0, 1, 2, length - 1, length, length + 1, rng.randint(1, 9)])
        m = rng.randint(1, 6)
        block = [format(rng.randrange(1 << length), f"0{length}b") for _ in range(m)]
        kind = rng.choice(["valid", "duplicate-strand", "duplicate-index", "duplicate-both"])
        if kind in ("duplicate-strand", "duplicate-both"):
            block.insert(rng.randrange(m + 1), rng.choice(block))
        if kind in ("duplicate-index", "duplicate-both"):
            block.append(block[0][:-1] + ("1" if block[0][-1] == "0" else "0"))
        want = _outcome(reference_bare_message, block, index_len)
        packed = tuple(int(token, 2) for token in block)
        _assert_same_outcomes(
            [_outcome(cli._message, "z.txt", packed, length, index_len)], [want], block
        )
        if 0 < index_len < length <= 64 and len(block) <= 1 << index_len:
            p = mk_params(len(block), length, index_len, 2, 1, 0, 0)
            _assert_same_outcomes(
                [_outcome(cli._message, "z.txt", packed, length, index_len, p.m, p.length)],
                [_outcome(reference_validate_message, _reference_strands(block, p), p)],
                block,
            )
            cases += 1
    assert cases > 100


# the spaces the acceptance suite enumerates, then the two that the
# benchmark's small-space search enumerates
SMALL_SPACES = [
    (mk_params(m, length, index_len, 2, 1, 0, 0), None)
    for m, length, index_len in [(1, 2, 1), (2, 3, 2), (2, 3, 1)]
] + [
    (mk_params(1, 2, 1, 2, "1", 1, 0), None),
    (mk_params(1, 3, 1, 2, "1", 1, 1), None),
    (mk_params(1, 3, 2, 2, "1/2", 1, 1), None),
    (mk_params(2, 3, 2, 2, "1", 1, 0), (2, 0)),
    (mk_params(2, 3, 2, 2, "1/2", 1, 0), (2, 0)),
    (mk_params(3, 4, 2, 4, "3/4", 1, 0), None),
    (mk_params(2, 4, 3, 2, "1", 1, 0), (2, 0)),
]


@pytest.mark.parametrize("params, restrict", SMALL_SPACES)
def test_enumerate_space_matches_the_per_strand_reference(params, restrict):
    got = list(enumerate_space(params, restrict))
    want = list(reference_enumerate_space(params, restrict))
    _assert_same_outcomes(got, want, (params, restrict))


# two shapes share L = 4, so equal packed values of two shapes come up
_SNAPSHOT_SHAPES = [(4, 2), (4, 1), (3, 1)]


def _random_strands(rng, length, index_len):
    """The strands of a valid message of this shape, in random order."""
    m = rng.randint(1, min(3, 1 << index_len))
    data_len = length - index_len
    return [
        Strand(i << data_len | rng.randrange(1 << data_len), length, index_len)
        for i in rng.sample(range(1 << index_len), m)
    ]


def _snapshot_repr(old):
    """The repr of a SnapshotMessage, under the class name it had as Message."""
    return "Message" + repr(old).removeprefix(type(old).__name__)


def _same_object_semantics(new, old):
    """Text, fields, strands, immutability, copies and weak references."""
    assert (str(new), repr(new)) == (str(old), _snapshot_repr(old))
    fields = ("m", "length", "index_len", "data_len", "strands")
    assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields]
    assert all(type(s) is Strand for s in new.strands)
    for name in ("strands", "bits", "m", "other"):
        assert _outcome(setattr, new, name, 1) == _outcome(setattr, old, name, 1)
        assert _outcome(delattr, new, name) == _outcome(delattr, old, name)
    for twin in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
        assert type(twin) is Message
        assert twin == new and hash(twin) == hash(new) and repr(twin) == repr(new)
    assert weakref.ref(new)() is new
    assert (new == 0, new != 0) == (old == 0, old != 0)
    assert _outcome(lambda: new < 0)[0] is _outcome(lambda: old < 0)[0] is TypeError


def test_message_keeps_the_semantics_of_the_strand_tuple_dataclass():
    """The packed message against the frozen dataclass over Strand
    tuples it replaced, on random messages of three shapes."""
    rng = random.Random(3401)
    new, old = [], []
    for _ in range(150):
        raw = _random_strands(rng, *rng.choice(_SNAPSHOT_SHAPES))
        a, b = Message(raw), SnapshotMessage(raw)
        # the public constructor keeps the given strand objects, sorted
        assert [id(s) for s in a.strands] == [id(s) for s in b.strands]
        _same_object_semantics(a, b)
        # a message built from ints makes its strands on first read, once
        packed = _message_from_packed(tuple(s.bits for s in raw), a.length, a.index_len)
        assert packed.strands is packed.strands
        _same_object_semantics(packed, b)
        new.append(rng.choice([a, packed]))
        old.append(b)
    shapes = {(z.length, z.index_len) for z in new}
    assert len(shapes) == len(_SNAPSHOT_SHAPES)
    equal = 0
    for i in range(len(new)):
        for j in range(len(new)):
            a, b = new[i], new[j]
            ops = (a == b, a != b, a < b, a <= b, a > b, a >= b)
            x, y = old[i], old[j]
            assert ops == (x == y, x != y, x < y, x <= y, x > y, x >= y), (x, y)
            if a == b:
                assert hash(a) == hash(b)
                equal += i != j
    assert equal > 0
    order = list(range(len(new)))
    rng.shuffle(order)
    assert sorted(order, key=new.__getitem__) == sorted(order, key=old.__getitem__)


def test_message_constructor_errors_match_the_strand_tuple_dataclass():
    """Every error of ``Message(strands)``, and its precedence, as the
    frozen dataclass over Strand tuples raised it."""
    rng = random.Random(3402)
    raised = set()
    for _ in range(800):
        length, index_len = rng.choice(_SNAPSHOT_SHAPES)
        raw = _random_strands(rng, length, index_len)
        for _ in range(rng.randint(0, 2)):
            spoil = rng.choice(["repeat", "index", "shape", "drop", "other", "empty"])
            strands = [i for i, s in enumerate(raw) if isinstance(s, Strand)]
            if not strands or spoil == "empty":
                raw = []
                continue
            at = rng.choice(strands)
            if spoil == "repeat":
                raw.insert(rng.randrange(len(raw) + 1), raw[at])
            elif spoil == "index":
                raw.append(Strand(raw[at].bits ^ 1, length, index_len))
            elif spoil == "shape":
                other = rng.choice([s for s in _SNAPSHOT_SHAPES if s != (length, index_len)])
                raw[at] = Strand(raw[at].bits % (1 << other[0]), *other)
            elif spoil == "drop":
                del raw[at]
            else:
                raw[at] = rng.choice([raw[at].bits, None, str(raw[at])])
        source = rng.choice([list, tuple, iter])
        got = _outcome(Message, source(raw))
        want = _outcome(SnapshotMessage, source(raw))
        if isinstance(want, tuple):
            assert got == want, raw
            raised.add(want[0])
        else:
            assert isinstance(got, Message), raw
            _same_object_semantics(got, want)
    kinds = {WrongCount, ShapeMismatch, DuplicateStrand, DuplicateIndex, TypeError, AttributeError}
    assert raised == kinds


@pytest.mark.parametrize("params, restrict", SMALL_SPACES)
def test_constructor_builder_and_enumeration_give_equal_messages(params, restrict):
    length, index_len = params.length, params.index_len
    for z in enumerate_space(params, restrict):
        backwards = z.bits[::-1]
        public = Message([Strand(b, length, index_len) for b in backwards])
        built = _message_from_packed(backwards, length, index_len, params.m)
        for other in (public, built):
            assert other == z and hash(other) == hash(z) and not other < z
            assert other.bits == z.bits and other.strands == z.strands
        assert repr(z) == _snapshot_repr(SnapshotMessage(public.strands))
