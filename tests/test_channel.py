"""Channel sampling, ball membership, and the exhaustive ball oracle."""

import math
import random
from collections import Counter
from unittest import mock

import pytest

import dnacode
from dnacode import (
    Answer,
    ChannelSample,
    Regime,
    ReadPool,
    ReadProvenance,
    ShapeMismatch,
    SpaceTooLarge,
    Strand,
    ValidationError,
    balls_intersect,
    classify_regime,
    flip_positions,
    in_ball,
    oracle_balls_intersect,
    read_neighborhood,
    sample_ball,
)
from dnacode import channel, matching
from dnacode.cli import run
from dnacode.io import message_lines, params_header, sample_lines, write_text

from conftest import run_under_python_O
from oracles import (
    message_of,
    mk_message,
    mk_params,
    random_message,
    reference_balls_intersect,
    reference_pools,
    reference_sample_ball,
    reference_sample_lines,
    snapshot_balls_intersect,
)


def small_params(**overrides):
    base = dict(m=2, length=3, index_len=2, k=2, tau="1", e_i=1, e_d=1)
    base.update(overrides)
    return mk_params(
        base["m"], base["length"], base["index_len"], base["k"],
        base["tau"], base["e_i"], base["e_d"],
    )


def test_sample_is_deterministic_per_seed():
    p = small_params()
    z = mk_message(2, "000", "110")
    a = sample_ball(z, p, seed=9)
    b = sample_ball(z, p, seed=9)
    assert a == b
    assert a.rng == "mt19937"
    assert a.seed == 9
    assert any(sample_ball(z, p, seed=s) != a for s in range(5))


def test_samples_lie_in_the_ball():
    rng = random.Random(53)
    for seed in range(100):
        p = small_params(
            k=rng.choice([2, 3]),
            tau=rng.choice(["1", "1/2"]),
            e_i=rng.randint(0, 2),
            e_d=rng.randint(0, 1),
        )
        z = random_message(rng, p)
        sample = sample_ball(z, p, seed=seed)
        assert sample.pool.size == p.pool_size
        assert in_ball(sample.pool, z, p)


def test_noiseless_sample_is_k_exact_copies():
    p = small_params(e_i=0, e_d=0, k=3)
    z = mk_message(2, "000", "110")
    for seed in range(20):
        sample = sample_ball(z, p, seed=seed)
        assert sample.pool.entries == tuple((s.bits, 3) for s in z.strands)
        assert all(prov.flips == () for prov in sample.provenance)


def test_provenance_counts_flips_against_sources():
    p = small_params()
    z = mk_message(2, "000", "110")
    sample = sample_ball(z, p, seed=3)
    budget = p.tau_budget
    by_source = {}
    for prov in sample.provenance:
        read = prov.source.bits
        for pos in prov.flips:
            read ^= 1 << (p.length - 1 - pos)
        assert prov.read == read
        wi = sum(1 for pos in prov.flips if pos < p.index_len)
        wd = len(prov.flips) - wi
        assert wi <= p.e_i and wd <= p.e_d
        by_source.setdefault(prov.source, []).append(prov)
    for source, provs in by_source.items():
        assert len(provs) == p.k
        assert sum(1 for pr in provs if pr.read != source.bits) <= budget


@pytest.mark.parametrize(
    "source, flips",
    [
        (0b01010, (3, 3)),  # a repeat: an exact copy recorded as altered
        (0b11010, (-1,)),  # before the first position: a read outside the L bits
        (0b01010, (9,)),  # past the end, which would shift by a negative count
    ],
)
def test_provenance_rejects_repeated_or_out_of_range_flips(source, flips):
    s = Strand(source, 5, 2)
    with pytest.raises(ValidationError, match="distinct positions in 0..4"):
        ReadProvenance(s, flips)


def test_sample_needs_a_read():
    # a sample's pool comes from its records, and its length from the first
    with pytest.raises(ValidationError):
        ChannelSample((), 0)


@pytest.mark.parametrize("first, second", [((0b01010, 5, 2), (0b011, 3, 1)),
                                           ((0b011, 3, 1), (0b01010, 5, 2)),
                                           ((0b01010, 5, 2), (0b01010, 5, 3))])
def test_sample_rejects_records_of_different_shapes(first, second):
    # a pool has one read length, so its records need one (L, l) shape
    records = (ReadProvenance(Strand(*first), (1,)), ReadProvenance(Strand(*second), ()))
    with pytest.raises(ValidationError, match="different shapes"):
        ChannelSample(records, 0)


def test_sample_stores_records_and_builds_each_altered_read_once(monkeypatch):
    # the sampler builds no pool, and only an altered record flips bits
    calls = Counter()
    from_reads = ReadPool.from_reads.__func__

    def counting_from_reads(cls, *args):
        calls["from_reads"] += 1
        return from_reads(cls, *args)

    def counting_flips(*args):
        calls["flip_positions"] += 1
        return flip_positions(*args)

    monkeypatch.setattr(ReadPool, "from_reads", classmethod(counting_from_reads))
    monkeypatch.setattr(channel, "flip_positions", counting_flips)
    rng = random.Random(67)
    altered_seen = 0
    for shape in [*SAMPLER_EDGE_SHAPES, LARGE_M_SHAPE]:
        p = mk_params(*shape)
        for seed in range(3):
            calls.clear()
            sample = sample_ball(random_message(rng, p), p, seed)
            altered = len({id(r) for r in sample.provenance if r.flips})
            assert calls == Counter(flip_positions=altered), (shape, seed)
            # the pool is built on first use, once
            assert sample.pool.size == p.pool_size
            assert sample.pool is sample.pool
            assert calls["from_reads"] == 1
            altered_seen += altered
    assert altered_seen > 1000


def test_sampler_draw_keeps_the_budget_and_radii():
    # what the sampler's draw must give every strand: K reads, at most
    # floor(tau*K) of them altered, each within (e_i, e_d) by distinct
    # in-range flips
    rng = random.Random(73)
    for seed in range(400):
        index_len = rng.randint(1, 5)
        length = index_len + rng.randint(1, 5)
        p = mk_params(
            rng.randint(1, min(4, 1 << index_len)),
            length,
            index_len,
            rng.randint(1, 6),
            rng.choice(["1", "1/2", "1/3", "2/3", "3/4"]),
            rng.randint(0, index_len),
            rng.randint(0, length - index_len),
        )
        z = random_message(rng, p)
        by_source = {s: [] for s in z.strands}
        for prov in sample_ball(z, p, seed).provenance:
            by_source[prov.source].append(prov.flips)
        for flip_sets in by_source.values():
            assert len(flip_sets) == p.k
            assert sum(1 for f in flip_sets if f) <= p.tau_budget
            for f in flip_sets:
                assert len(set(f)) == len(f)
                assert all(0 <= pos < p.length for pos in f)
                wi = sum(1 for pos in f if pos < p.index_len)
                assert wi <= p.e_i and len(f) - wi <= p.e_d


OPTIMIZED_SAMPLER = """
from unittest import mock
import dnacode.channel as channel
from dnacode import Message, Strand, SystemParams, ValidationError, sample_ball

if __debug__:
    raise SystemExit("expected python -O")
# K = 3 reads, floor(tau*K) = 1, (e_i, e_d) = (1, 1), l = 2
p = SystemParams(1, 4, 2, 3, "1/2", 1, 1)
z = Message((Strand(0, 4, 2),))
# draws the real sampler never makes: one altered copy over the budget,
# and one index flip over e_i
illegal = {
    "altered copies": [(p.index_len,)] * (p.tau_budget + 1) + [()] * (p.k - p.tau_budget - 1),
    "index flips": [tuple(range(p.e_i + 1))] + [()] * (p.k - 1),
}
for name, draw in illegal.items():
    with mock.patch.object(channel, "_strand_flips", lambda rng, params: draw):
        try:
            sample_ball(z, p, seed=0)
        except AssertionError:
            continue
    raise SystemExit(f"sample_ball returned a pool outside the ball: {name}")
# a repeated flip position is rejected when its record is built
with mock.patch.object(channel, "_strand_flips", lambda rng, params: [(3, 3)] + [()] * (p.k - 1)):
    try:
        sample_ball(z, p, seed=0)
    except ValidationError:
        pass
    else:
        raise SystemExit("sample_ball accepted a repeated flip position")
"""


def test_sampler_postcondition_holds_under_python_O():
    done = run_under_python_O(OPTIMIZED_SAMPLER, timeout=60)
    assert done.returncode == 0, done.stderr


def test_sampler_proves_its_pool_without_the_flow(monkeypatch, capsys, tmp_path):
    # the sampler certifies its pool by its own grouping; membership of
    # the same pool, asked through the CLI, still runs the flow
    calls = Counter()

    def counting(where, real):
        def wrapper(*args):
            calls[where] += 1
            return real(*args)

        return wrapper

    for module in (channel, matching):
        monkeypatch.setattr(
            module, "assignment_feasible", counting(module.__name__, module.assignment_feasible)
        )
    rng = random.Random(61)
    for shape in [*SAMPLER_EDGE_SHAPES, LARGE_M_SHAPE]:
        p = mk_params(*shape)
        z = random_message(rng, p)
        message = tmp_path / "message.txt"
        pool = tmp_path / "pool.txt"
        write_text(message, [params_header(p), *message_lines(z)])
        calls.clear()
        assert run(["simulate", "--message", str(message), "--seed", "7", "--out", str(pool)]) == 0
        assert sum(calls.values()) == 0, shape
        assert run(["member", "--pool", str(pool), "--message", str(message)]) == 0
        assert capsys.readouterr().out == "OK\nYES\n"
        assert calls["dnacode.channel"] == 1, shape


# (M, L, l, K, tau, e_i, e_d) at the edges of the draw: floor(tau*K) = 0,
# e_i = 0, e_d = 0, both 0, e_i = l, a budget of all K reads (tau = 1),
# and fields wider than 21 positions, where ``random.Random.sample``
# rejects repeats against a set for 2-5 positions; then the benchmark's
# large-m pool
SAMPLER_EDGE_SHAPES = [
    (2, 4, 2, 3, "1/4", 1, 1),
    (3, 5, 2, 4, "1/2", 0, 2),
    (3, 5, 2, 4, "3/4", 1, 0),
    (2, 4, 2, 3, "1", 0, 0),
    (2, 5, 2, 5, "1", 2, 1),
    (4, 6, 3, 2, "1", 3, 3),
    (3, 64, 30, 25, "4/5", 7, 6),
]
LARGE_M_SHAPE = (512, 20, 11, 10, "1/2", 1, 1)


def _sampler_cases():
    """(params, message, seed): 300 random shapes, then five seeds of each
    edge shape and one large-m pool, the same for every run."""
    rng = random.Random(97)
    for seed in range(300):
        index_len = rng.randint(1, 5)
        length = index_len + rng.randint(1, 5)
        p = mk_params(
            rng.randint(1, min(4, 1 << index_len)),
            length,
            index_len,
            rng.randint(1, 6),
            rng.choice(["1", "1/2", "1/3", "2/3", "3/4", "1/5"]),
            rng.randint(0, index_len),
            rng.randint(0, length - index_len),
        )
        yield p, random_message(rng, p), seed
    for shape in SAMPLER_EDGE_SHAPES:
        p = mk_params(*shape)
        for seed in range(5):
            yield p, random_message(rng, p), seed
    p = mk_params(*LARGE_M_SHAPE)
    yield p, random_message(rng, p), 1


def sampler_agreement():
    """Compare ``sample_ball`` with ``reference_sample_ball`` on
    ``_sampler_cases``: pool entries, provenance and the text of both
    files.  Returns the disagreements (found without assert, so that it
    checks under python -O too) and counts of the cases, of those with no
    budget, no index flips, no data flips and index flips up to l, of the
    reads that share a record with an earlier read, and of the position
    draws that ``random.Random.sample`` makes by set rejection."""
    disagreements, seen = [], Counter()
    for p, z, seed in _sampler_cases():
        got, want = sample_ball(z, p, seed), reference_sample_ball(z, p, seed)
        rows = [(r.read, r.source.bits, r.flips) for r in got.provenance]
        want_rows = [(r.read, r.source.bits, r.flips) for r in want.provenance]
        text = sample_lines(got, p)
        if (got.pool.entries, rows, got.seed, got.rng, text) != (
            want.pool.entries, want_rows, want.seed, want.rng, reference_sample_lines(want, p)
        ):
            disagreements.append((p, str(z), seed))
        seen["cases"] += 1
        seen["no budget"] += p.tau_budget == 0
        seen["e_i = 0"] += p.e_i == 0
        seen["e_d = 0"] += p.e_d == 0
        seen["e_i = l"] += p.e_i == p.index_len
        seen["M = 512"] += p.m == 512
        seen["shared records"] += len(got.provenance) - len({id(r) for r in got.provenance})
        for r in {id(r): r for r in got.provenance}.values():
            wi = sum(1 for pos in r.flips if pos < p.index_len)
            for width, weight in ((p.index_len, wi), (p.data_len, len(r.flips) - wi)):
                # sample() draws 2-5 items of over 21 by set rejection
                seen["set path"] += width > 21 and 1 < weight <= 5
    return disagreements, seen


def test_sampler_draws_the_reference_stream_read_for_read():
    disagreements, seen = sampler_agreement()
    assert disagreements == []
    assert seen["cases"] >= 300 + 5 * len(SAMPLER_EDGE_SHAPES)
    for kind in ("no budget", "e_i = 0", "e_d = 0", "e_i = l"):
        assert seen[kind] >= 5, kind
    assert seen["M = 512"] == 1
    assert seen["shared records"] > 1000
    assert seen["set path"] >= 20


# (n, k): one item, none, all, list and set paths, and k > 5, where the
# set size grows to 21 + 4**ceil(log(3k, 4)): 85 for k = 6..21
DRAW_SIZES = [(1, 0), (1, 1), (2, 2), (5, 0), (9, 1), (10, 4), (21, 5), (21, 21),
              (22, 2), (22, 5), (30, 30), (34, 3), (60, 7), (85, 6), (86, 6), (86, 21),
              (200, 22), (500, 5), (1 << 33, 4)]


@pytest.mark.parametrize("n, k", DRAW_SIZES)
def test_draw_helpers_consume_the_stdlib_stream(n, k):
    # _below(n) is randrange(n) and _sample is sample(range(..), k): the
    # same values from the same words, leaving the generator in one state
    for seed in range(20):
        ours, stdlib = random.Random(seed), random.Random(seed)
        start = seed * 3
        assert channel._below(ours.getrandbits, n) == stdlib.randrange(n)
        assert channel._sample(ours.getrandbits, start, n, k) == stdlib.sample(
            range(start, start + n), k
        )
        assert channel._below(ours.getrandbits, k + 1) == stdlib.randint(0, k)
        assert ours.getstate() == stdlib.getstate()


def test_sampler_draws_without_randrange_or_sample(monkeypatch, capsys, tmp_path):
    # the sampler reads the generator through getrandbits alone
    rng = random.Random(83)
    messages = []
    for shape in [*SAMPLER_EDGE_SHAPES, LARGE_M_SHAPE]:
        p = mk_params(*shape)
        messages.append((p, random_message(rng, p)))

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler called randrange or sample")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "sample", refuse)
    for p, z in messages:
        message = tmp_path / "message.txt"
        write_text(message, [params_header(p), *message_lines(z)])
        argv = ["simulate", "--message", str(message), "--seed", "7",
                "--out", str(tmp_path / "pool.txt"), "--provenance", str(tmp_path / "prov.txt")]
        assert run(argv) == 0, p
        assert capsys.readouterr().out == "OK\n"


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its draws: every ``randrange`` and
    ``sample`` of this class goes through ``getrandbits``."""

    draws = 0

    def getrandbits(self, k):
        CountingRandom.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("shape", [(2, 4, 2, 3, "1/4", 1, 1), (3, 5, 2, 1, "1/2", 2, 1)])
def test_sampler_draws_nothing_without_a_budget(monkeypatch, shape):
    # floor(tau*K) = 0: every read is an exact copy, so no count, position
    # or weight is drawn (the reference agreement above covers the pools)
    p = mk_params(*shape)
    assert p.tau_budget == 0
    monkeypatch.setattr(channel, "random", mock.Mock(Random=CountingRandom))
    rng = random.Random(5)
    for seed in range(5):
        CountingRandom.draws = 0
        sample = sample_ball(random_message(rng, p), p, seed)
        assert CountingRandom.draws == 0
        assert all(not r.flips for r in sample.provenance)
    # with a budget of 1 the counts are drawn, and counted
    p = mk_params(*shape[:4], f"1/{shape[3]}", *shape[5:])
    CountingRandom.draws = 0
    sample_ball(random_message(rng, p), p, 0)
    assert CountingRandom.draws >= p.m


OPTIMIZED_AGREEMENT = """
from test_channel import sampler_agreement

if __debug__:
    raise SystemExit("expected python -O")
disagreements, seen = sampler_agreement()
if disagreements or seen["cases"] < 300:
    raise SystemExit(repr((disagreements, seen)))
"""


def test_sampler_draws_the_reference_stream_under_python_O():
    done = run_under_python_O(OPTIMIZED_AGREEMENT, timeout=120)
    assert done.returncode == 0, done.stderr


def test_ball_membership_examples():
    p = small_params(m=1, length=2, index_len=1, k=2, tau="1", e_i=1, e_d=0)
    z = mk_message(1, "00")
    assert in_ball(ReadPool.from_reads([0b00, 0b10], 2), z, p)
    assert not in_ball(ReadPool.from_reads([0b00, 0b01], 2), z, p)


def test_read_neighborhood_contents():
    p = small_params(m=1, length=3, index_len=2, k=2, e_i=1, e_d=0)
    z = mk_message(2, "000")
    assert read_neighborhood(z, p) == {0b000, 0b100, 0b010}
    exact = small_params(m=1, length=3, index_len=2, k=2, e_i=0, e_d=0)
    assert read_neighborhood(z, exact) == {0b000}


def _neighborhood_cases():
    yield small_params(e_i=1, e_d=1), mk_message(2, "000", "110")
    rng = random.Random(79)
    for _ in range(12):
        index_len = rng.randint(1, 4)
        length = index_len + rng.randint(1, 8 - index_len)
        m = rng.randint(1, min(3, 1 << index_len))
        for e_i in range(index_len + 1):
            for e_d in range(length - index_len + 1):
                p = mk_params(m, length, index_len, 2, "1", e_i, e_d)
                yield p, random_message(rng, p)


def test_read_neighborhood_matches_membership_definition():
    from dnacode.metrics import pair_leq, split_distance

    for p, z in _neighborhood_cases():
        expected = {
            v
            for v in range(1 << p.length)
            for s in z.strands
            if pair_leq(split_distance(Strand(v, p.length, p.index_len), s), (p.e_i, p.e_d))
        }
        assert read_neighborhood(z, p) == expected


def test_oracle_examples():
    p = mk_params(1, 2, 1, 2, "1/2", 1, 0)
    assert oracle_balls_intersect(mk_message(1, "00"), mk_message(1, "10"), p)
    assert not oracle_balls_intersect(mk_message(1, "00"), mk_message(1, "01"), p)


def test_oracle_identical_messages_trivially_intersect():
    p = small_params()
    z = mk_message(2, "000", "110")
    assert oracle_balls_intersect(z, z, p)


def test_oracle_is_symmetric():
    rng = random.Random(59)
    p = mk_params(1, 3, 1, 2, "1/2", 1, 1)
    for _ in range(20):
        z1 = random_message(rng, p)
        z2 = random_message(rng, p)
        assert oracle_balls_intersect(z1, z2, p) == oracle_balls_intersect(z2, z1, p)


def test_oracle_monotone_in_error_radii():
    rng = random.Random(61)
    for _ in range(15):
        lo = mk_params(1, 3, 2, 2, "1/2", 1, 0)
        hi = mk_params(1, 3, 2, 2, "1/2", 2, 1)
        z1 = random_message(rng, lo)
        z2 = random_message(rng, lo)
        if oracle_balls_intersect(z1, z2, lo):
            assert oracle_balls_intersect(z1, z2, hi)


def test_oracle_monotone_in_budget():
    rng = random.Random(67)
    for _ in range(15):
        lo = mk_params(1, 3, 2, 2, "1/2", 1, 1)
        hi = mk_params(1, 3, 2, 2, "1", 1, 1)
        z1 = random_message(rng, lo)
        z2 = random_message(rng, lo)
        if oracle_balls_intersect(z1, z2, lo):
            assert oracle_balls_intersect(z1, z2, hi)


def test_oracle_respects_resource_cap():
    p = small_params(e_i=2, e_d=1, k=3)
    z1 = mk_message(2, "000", "110")
    z2 = mk_message(2, "001", "111")
    with pytest.raises(SpaceTooLarge):
        oracle_balls_intersect(z1, z2, p, cap=2)

    # the read universe is refused exactly above M * V(l, e_i) * V(L-l, e_d)
    rng = random.Random(83)
    for p, z in _neighborhood_cases():
        bound = p.m * sum(math.comb(p.index_len, i) for i in range(p.e_i + 1)) * sum(
            math.comb(p.data_len, d) for d in range(p.e_d + 1)
        )
        other = random_message(rng, p)
        if other == z:
            continue
        with pytest.raises(SpaceTooLarge) as raised:
            oracle_balls_intersect(z, other, p, cap=bound - 1)
        assert raised.value.count == bound and "read universe" in str(raised.value)
        try:
            oracle_balls_intersect(z, other, p, cap=bound)
        except SpaceTooLarge as exc:
            assert "read universe" not in str(exc)


# (M, L, l, K, tau, e_i, e_d), pools of at most six reads: tau = 1, high
# tau and low tau, where tau < 1 keeps K - floor(tau*K) forced copies of
# every strand.  At L = 3 and tau = 1 some common pools must repeat a
# read; the last two shapes, at low tau, hold common pools that
# balls_intersect leaves UNKNOWN
REFERENCE_SHAPES = [
    (2, 3, 2, 3, "1", 1, 0),
    (2, 4, 2, 2, "1", 1, 0),
    (2, 4, 2, 2, "1", 1, 1),
    (1, 3, 1, 4, "1/2", 1, 1),
    (2, 4, 2, 2, "1/2", 1, 1),
    (2, 3, 2, 3, "2/3", 1, 0),
    (2, 4, 1, 3, "2/3", 1, 1),
    (1, 3, 1, 4, "1/4", 1, 1),
    (2, 3, 1, 3, "1/3", 1, 1),
    (2, 4, 2, 3, "1/3", 2, 1),
]


def test_oracle_agrees_with_the_plain_enumeration():
    answers = Counter()
    regimes = set()
    for shape in REFERENCE_SHAPES:
        p = mk_params(*shape)
        regimes.add(classify_regime(p))
        rng = random.Random(str(shape))
        for _ in range(60):
            z1, z2 = random_message(rng, p), random_message(rng, p)
            got = oracle_balls_intersect(z1, z2, p)
            assert got == reference_balls_intersect(z1, z2, p), (shape, str(z1), str(z2))
            answers[got, balls_intersect(z1, z2, p).answer] += 1
    assert regimes == set(Regime)
    assert sum(n for (hit, _), n in answers.items() if hit) >= 100
    assert sum(n for (hit, _), n in answers.items() if not hit) >= 100
    assert sum(n for (_, answer), n in answers.items() if answer is Answer.UNKNOWN) >= 50
    assert answers[True, Answer.UNKNOWN] > 0


# shapes past reference_balls_intersect's reach: the benchmark's three
# oracle shapes, then K = 3-4 at tau < 1, where every strand keeps forced
# copies
SNAPSHOT_SHAPES = [
    (2, 4, 2, 2, "1", 1, 0),
    (4, 3, 2, 2, "1", 1, 0),
    (4, 4, 2, 2, "1", 1, 0),
    (3, 4, 2, 4, "3/4", 1, 0),
    (2, 4, 2, 4, "1/2", 1, 1),
    (3, 4, 2, 3, "2/3", 1, 0),
    (3, 5, 2, 4, "1/2", 1, 1),
    (3, 4, 2, 4, "1/4", 1, 1),
]


def _oracle_outcome(oracle, z1, z2, p, cap):
    try:
        return oracle(z1, z2, p, cap=cap)
    except SpaceTooLarge as exc:
        return ("cap", exc.count, str(exc))


def _near(rng, z, p):
    """Z with one strand's index or data field moved by one bit, or None
    when the moved index field is taken."""
    fields = [(s.index_bits, s.data_bits) for s in z.strands]
    j = rng.randrange(len(fields))
    i, d = fields[j]
    if p.e_i and rng.random() < 0.5:
        i ^= 1 << rng.randrange(p.index_len)
    else:
        d ^= 1 << rng.randrange(p.data_len)
    fields[j] = (i, d)
    if len({i for i, _ in fields}) < len(fields):
        return None
    return message_of(p, fields)


def _snapshot_pairs(pairs_per_shape):
    """(params, z1, z2) over ``SNAPSHOT_SHAPES``: near and random pairs in
    turn, the same for every run."""
    for shape in SNAPSHOT_SHAPES:
        p = mk_params(*shape)
        rng = random.Random(str(shape))
        for n in range(pairs_per_shape):
            z1 = random_message(rng, p)
            z2 = random_message(rng, p) if n % 2 else _near(rng, z1, p)
            if z2 is not None:
                yield p, z1, z2


def snapshot_agreement(pairs_per_shape=48):
    """Compare ``oracle_balls_intersect`` with the snapshot walk on
    ``_snapshot_pairs``, at the default cap and at caps that refuse some
    pairs.  Returns the disagreements (found without assert, so that it
    checks under python -O too) and a count of the outcomes by cap: True,
    False, or what the refusal names."""
    disagreements, outcomes = [], Counter()
    for p, z1, z2 in _snapshot_pairs(pairs_per_shape):
        for cap in (dnacode.DEFAULT_SPACE_CAP, 100, 10):
            got = _oracle_outcome(oracle_balls_intersect, z1, z2, p, cap)
            want = _oracle_outcome(snapshot_balls_intersect, z1, z2, p, cap)
            if got != want:
                disagreements.append((p, str(z1), str(z2), cap, got, want))
            outcomes[cap, got if isinstance(got, bool) else got[2].split(" has ")[0]] += 1
    return disagreements, outcomes


def test_oracle_agrees_with_the_snapshot_walk_beyond_brute_force():
    disagreements, outcomes = snapshot_agreement()
    assert disagreements == []
    cap = dnacode.DEFAULT_SPACE_CAP
    assert outcomes[cap, True] >= 50 and outcomes[cap, False] >= 50
    assert {kind for _, kind in outcomes} == {True, False, "read universe", "candidate pools"}


class _LifoCheckedNetwork(matching._FlowNetwork):
    """Checks that each ``undo`` takes back the last path still pushed and
    restores every residual capacity to its value before that push."""

    undos = 0

    def __init__(self, n):
        super().__init__(n)
        self.pushed = []

    def residuals(self):
        return [e[1] for row in self.adj for e in row]

    def augment(self, e, t):
        before = self.residuals()
        path = super().augment(e, t)
        if path is not None:
            self.pushed.append((path, before))
        return path

    def undo(self, path):
        last, before = self.pushed.pop()
        assert last is path
        super().undo(path)
        assert self.residuals() == before
        _LifoCheckedNetwork.undos += 1


def test_oracle_undoes_each_path_exactly_and_in_lifo_order():
    _LifoCheckedNetwork.undos = 0
    answers = Counter()
    with mock.patch.object(matching, "_FlowNetwork", _LifoCheckedNetwork):
        for p, z1, z2 in _snapshot_pairs(12):
            answers[oracle_balls_intersect(z1, z2, p)] += 1
    assert answers[True] > 0 and answers[False] > 0
    assert _LifoCheckedNetwork.undos > 1000


OPTIMIZED_ORACLE = """
from dnacode import DEFAULT_SPACE_CAP
from test_channel import snapshot_agreement

if __debug__:
    raise SystemExit("expected python -O")
disagreements, outcomes = snapshot_agreement()
yes, no = (outcomes[DEFAULT_SPACE_CAP, answer] for answer in (True, False))
if disagreements or yes < 50 or no < 50:
    raise SystemExit(repr((disagreements, outcomes)))
"""


def test_oracle_agrees_with_the_snapshot_walk_under_python_O():
    done = run_under_python_O(OPTIMIZED_ORACLE, timeout=120)
    assert done.returncode == 0, done.stderr


def test_oracle_refuses_candidate_pools_exactly_above_the_cap():
    p = mk_params(2, 4, 2, 3, "2/3", 1, 1)
    # the read-universe cap, M * V(2, 1) * V(2, 1), is checked first
    universe_bound = 2 * 3 * 3
    rng = random.Random(89)
    checked = 0
    while checked < 20:
        z1, z2 = random_message(rng, p), random_message(rng, p)
        setup = reference_pools(z1, z2, p)
        if z1 == z2 or setup is None:
            continue
        _, universe, remaining = setup
        count = math.comb(len(universe) + remaining - 1, remaining)
        if count <= universe_bound:
            continue
        with pytest.raises(SpaceTooLarge) as raised:
            oracle_balls_intersect(z1, z2, p, cap=count - 1)
        assert raised.value.count == count and "candidate pools" in str(raised.value)
        assert oracle_balls_intersect(z1, z2, p, cap=count) == reference_balls_intersect(
            z1, z2, p
        )
        checked += 1


def test_oracle_walks_a_deep_pool_without_recursion():
    # one strand, 3,000 reads: every pool of the walk is 3,000 reads deep,
    # three times the interpreter's default recursion limit
    p = mk_params(1, 2, 1, 3000, "1", 1, 0)
    assert oracle_balls_intersect(mk_message(1, "00"), mk_message(1, "10"), p)


def test_oracle_shape_checks():
    p = small_params()
    with pytest.raises(ShapeMismatch):
        oracle_balls_intersect(mk_message(2, "000", "110"), mk_message(2, "0000", "1100"), p)


def test_disjoint_when_data_unreachable():
    # e_d = 0 and different data multisets: no common pool can exist
    p = small_params(m=1, length=2, index_len=1, tau="1", e_i=1, e_d=0)
    assert not oracle_balls_intersect(mk_message(1, "00"), mk_message(1, "01"), p)
