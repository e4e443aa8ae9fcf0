"""Channel sampling, ball membership, and the exhaustive ball oracle."""

import hashlib
import math
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import dnacode
from dnacode import (
    Answer,
    ChannelSample,
    Regime,
    Message,
    ShapeMismatch,
    SpaceTooLarge,
    Strand,
    ValidationError,
    balls_intersect,
    classify_regime,
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
    flip_positions,
    message_of,
    mk_message,
    mk_params,
    random_message,
    reference_balls_intersect,
    reference_pool,
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
    # -9 would draw the pool of 9 under a seed that cannot be replayed
    with pytest.raises(ValidationError, match="seed must be a non-negative int"):
        sample_ball(z, p, seed=-9)


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
        assert sample.groups == tuple((s.bits,) * 3 for s in z.strands)


def test_provenance_counts_flips_against_sources():
    p = small_params()
    z = mk_message(2, "000", "110")
    sample = sample_ball(z, p, seed=3)
    assert sample.message == z
    assert len(sample.groups) == z.m
    for s, group in zip(z.strands, sample.groups):
        assert len(group) == p.k
        assert sum(1 for read in group if read != s.bits) <= p.tau_budget
        for read in group:
            flips = [pos for pos in range(p.length) if (read ^ s.bits) >> (p.length - 1 - pos) & 1]
            assert flip_positions(s.bits, p.length, flips) == read
            wi = sum(1 for pos in flips if pos < p.index_len)
            assert wi <= p.e_i and len(flips) - wi <= p.e_d


def _one_strand_sample(**fields):
    """``ChannelSample`` of the one-strand message 01010 (L = 5, l = 2)
    with two exact copies, seed 0, and the given fields replaced."""
    z = Message((Strand(0b01010, 5, 2),))
    kwargs = dict(message=z, groups=((0b01010, 0b01010),), seed=0)
    kwargs.update(fields)
    return ChannelSample(**kwargs)


def test_sample_needs_a_read():
    # every strand has a group, and every group a read
    with pytest.raises(ValidationError, match="at least one read"):
        _one_strand_sample(groups=((),))


@pytest.mark.parametrize(
    "fields, match",
    [
        pytest.param({"groups": ()}, "needs as many groups, got 0", id="no-group"),
        pytest.param(
            {"groups": ((0b01010,), (0b01010,))}, "needs as many groups, got 2", id="extra-group"
        ),
        pytest.param({"groups": ((0b01010, -1),)}, "does not fit in 5 bits", id="negative-read"),
        pytest.param({"groups": ((0b01010, 1 << 5),)}, "does not fit in 5 bits", id="wide-read"),
        # True is not a bit vector, nor is a read's text
        pytest.param({"groups": ((True,),)}, "must be an int, got bool", id="bool-read"),
        pytest.param({"groups": (("01010",),)}, "must be an int, got str", id="str-read"),
        # random.Random draws the same pool at -3 as at 3 and at True as
        # at 1, but the sidecar's seed must be one simulate --seed takes
        *(
            pytest.param({"seed": seed}, "seed must be a non-negative int", id=f"seed-{name}")
            for seed, name in [(-3, "negative"), (True, "True"), (False, "False"),
                               ("3", "str"), (1.5, "float"), (None, "None")]
        ),
    ],
)
def test_sample_rejects_a_malformed_grouping_or_seed(fields, match):
    with pytest.raises(ValidationError, match=match):
        _one_strand_sample(**fields)


def test_sample_builds_its_pool_once_on_first_use(monkeypatch):
    # the sampler builds no pool; the pool is built on first use, once
    calls = Counter()
    build = channel._pool_from_counts

    def counting_build(*args):
        calls["built"] += 1
        return build(*args)

    monkeypatch.setattr(channel, "_pool_from_counts", counting_build)
    rng = random.Random(67)
    for shape in [*SAMPLER_EDGE_SHAPES, LARGE_M_SHAPE]:
        p = mk_params(*shape)
        for seed in range(3):
            calls.clear()
            sample = sample_ball(random_message(rng, p), p, seed)
            assert calls["built"] == 0, (shape, seed)
            assert sample.pool.size == p.pool_size
            assert sample.pool is sample.pool
            assert calls["built"] == 1
            reads = [r for group in sample.groups for r in group]
            assert sample.pool == reference_pool(reads, p.length)


def test_sampler_builds_a_sample_the_constructor_accepts(monkeypatch):
    # the sampler's groups are proved by grouping_fits, so it skips the
    # constructor's checks, and the public constructor takes what it built
    checked = Counter()
    post_init = ChannelSample.__post_init__

    def counting_post_init(self):
        checked["samples"] += 1
        post_init(self)

    monkeypatch.setattr(ChannelSample, "__post_init__", counting_post_init)
    rng = random.Random(68)
    for shape in [*SAMPLER_EDGE_SHAPES, LARGE_M_SHAPE]:
        p = mk_params(*shape)
        sample = sample_ball(random_message(rng, p), p, 4)
        assert checked["samples"] == 0, shape
        assert ChannelSample(sample.message, sample.groups, sample.seed) == sample
        assert checked["samples"] == 1
        checked.clear()


@pytest.mark.parametrize(
    "seed", [[1], (1,), 1.5, -3, True, None],
    ids=["list", "tuple", "float", "negative", "True", "None"],
)
def test_sample_ball_checks_its_seed_before_drawing(monkeypatch, seed):
    # a list seed would reach random.Random and raise TypeError there
    def no_draw(*args):
        pytest.fail(f"a generator was seeded with {seed!r}")

    monkeypatch.setattr(channel, "random", SimpleNamespace(Random=no_draw))
    p = mk_params(2, 4, 2, 3, "1", 1, 1)
    z = random_message(random.Random(5), p)
    with pytest.raises(ValidationError) as caught:
        sample_ball(z, p, seed)
    assert str(caught.value) == f"seed must be a non-negative int, got {seed!r}"


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
        groups = sample_ball(z, p, seed).groups
        assert len(groups) == p.m
        for s, group in zip(z.strands, groups):
            masks = [read ^ s.bits for read in group]
            assert len(masks) == p.k
            assert sum(1 for mask in masks if mask) <= p.tau_budget
            for mask in masks:
                assert 0 <= mask < 1 << p.length
                assert (mask >> p.data_len).bit_count() <= p.e_i
                assert (mask & ((1 << p.data_len) - 1)).bit_count() <= p.e_d


OPTIMIZED_SAMPLER = """
from unittest import mock
import dnacode.channel as channel
from dnacode import Message, Strand, SystemParams, sample_ball

if __debug__:
    raise SystemExit("expected python -O")
# K = 3 reads, floor(tau*K) = 1, (e_i, e_d) = (1, 1), l = 2
p = SystemParams(1, 4, 2, 3, "1/2", 1, 1)
z = Message((Strand(0, 4, 2),))
# flip masks the real sampler never draws: one altered copy over the
# budget, one index flip over e_i, and a flip outside the L bits
illegal = {
    "altered copies": [0b0010] * (p.tau_budget + 1) + [0] * (p.k - p.tau_budget - 1),
    "index flips": [0b1100] + [0] * (p.k - 1),
    "a read outside the L bits": [1 << p.length] + [0] * (p.k - 1),
}
for name, draw in illegal.items():
    with mock.patch.object(channel, "_strand_flips", lambda rng, params: draw):
        try:
            sample_ball(z, p, seed=0)
        except AssertionError:
            continue
    raise SystemExit(f"sample_ball returned a pool outside the ball: {name}")
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
    ``_sampler_cases``: pool entries, groups and the text of both files,
    the sidecar's flips against the positions the reference drew.
    Returns the disagreements (found without assert, so that it checks
    under python -O too) and counts of the cases, of those with no
    budget, no index flips, no data flips and index flips up to l, of the
    altered reads, and of the position draws that ``random.Random.sample``
    makes by set rejection."""
    disagreements, seen = [], Counter()
    for p, z, seed in _sampler_cases():
        got = sample_ball(z, p, seed)
        want, flips = reference_sample_ball(z, p, seed)
        text = sample_lines(got, p)
        if (got.pool.entries, got.groups, got.seed, got.rng, text) != (
            want.pool.entries, want.groups, want.seed, want.rng,
            reference_sample_lines(want, flips, p),
        ):
            disagreements.append((p, str(z), seed))
        seen["cases"] += 1
        seen["no budget"] += p.tau_budget == 0
        seen["e_i = 0"] += p.e_i == 0
        seen["e_d = 0"] += p.e_d == 0
        seen["e_i = l"] += p.e_i == p.index_len
        seen["M = 512"] += p.m == 512
        for f in flips:
            seen["altered reads"] += bool(f)
            wi = sum(1 for pos in f if pos < p.index_len)
            for width, weight in ((p.index_len, wi), (p.data_len, len(f) - wi)):
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
    assert seen["altered reads"] > 1000
    assert seen["set path"] >= 20


# (M, L, l, K, tau, e_i, e_d) of the pinned digest: M = 1, a zero budget,
# e_i = 0, e_i = l, fields wider than 21 positions, and M = 512
DIGEST_SHAPES = [
    (1, 4, 2, 3, "1", 1, 1),
    (2, 4, 2, 3, "1/4", 1, 1),
    (3, 5, 2, 4, "1/2", 0, 2),
    (4, 6, 3, 2, "1", 3, 3),
    (3, 64, 30, 25, "4/5", 7, 6),
    LARGE_M_SHAPE,
]
SAMPLE_DIGEST = "62486beed35b27907f89ee18ec2c7541913109e68b46fc7c15a8dfe6e0f19446"


def test_sampler_output_matches_the_pinned_digest():
    # the pool file, the sidecar and the pool entries of three seeds per
    # shape, byte for byte as the sampler has written them since it drew
    # through getrandbits
    digest = hashlib.sha256()
    rng = random.Random(101)
    for shape in DIGEST_SHAPES:
        p = mk_params(*shape)
        for seed in range(3):
            sample = sample_ball(random_message(rng, p), p, seed)
            pool, rows = sample_lines(sample, p)
            for lines in (pool, rows, [repr(sample.pool.entries)]):
                digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == SAMPLE_DIGEST


def test_flip_positions_counts_from_left():
    # the reference sampler rebuilds its reads with this helper
    assert flip_positions(0b000, 3, [0]) == 0b100
    assert flip_positions(0b000, 3, [2]) == 0b001
    assert flip_positions(0b010, 3, [0, 2]) == 0b111


@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.lists(st.integers(0, n - 1), unique=True)
)))
def test_flip_positions_is_an_involution(case):
    length, bits, positions = case
    once = flip_positions(bits, length, positions)
    assert flip_positions(once, length, positions) == bits


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
        assert sample.groups == tuple((s.bits,) * p.k for s in sample.message.strands)
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
    assert in_ball(reference_pool([0b00, 0b10], 2), z, p)
    assert not in_ball(reference_pool([0b00, 0b01], 2), z, p)


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
    """Checks that each ``pop`` takes back the last path still pushed and
    restores every residual capacity to its value before that push."""

    undos = 0

    def __init__(self, n):
        super().__init__(n)
        self.pushed = []

    def residuals(self):
        return [e[1] for row in self.adj for e in row]

    def push(self, i):
        before = self.residuals()
        path = super().push(i)
        if path is not None:
            self.pushed.append((path, before))
        return path

    def pop(self, path):
        last, before = self.pushed.pop()
        assert last is path
        super().pop(path)
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
