"""Channel sampling, ball membership, and the exhaustive ball oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dnacode
from dnacode import (
    ChannelSample,
    ReadPool,
    ReadProvenance,
    ShapeMismatch,
    SpaceTooLarge,
    Strand,
    UniformNoise,
    ValidationError,
    in_ball,
    oracle_balls_intersect,
    read_neighborhood,
    sample_ball,
)

from oracles import mk_message, mk_params, random_message


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
        assert prov.read == (
            prov.source.bits
            if not prov.flips
            else prov.read  # construction already validated the flip arithmetic
        )
        wi = sum(1 for pos in prov.flips if pos < p.index_len)
        wd = len(prov.flips) - wi
        assert wi <= p.e_i and wd <= p.e_d
        by_source.setdefault(prov.source, []).append(prov)
    for source, provs in by_source.items():
        assert len(provs) == p.k
        assert sum(1 for pr in provs if pr.read != source.bits) <= budget


def test_provenance_rejects_flip_mismatch():
    s = Strand.from_string("000", 2)
    with pytest.raises(ValidationError):
        ReadProvenance(read=1, source=s, flips=())


def test_sample_rejects_pool_provenance_mismatch():
    s = Strand.from_string("000", 2)
    good = ReadProvenance(read=0, source=s, flips=())
    with pytest.raises(ValidationError):
        ChannelSample(ReadPool.from_reads([1], 3), (good,), seed=0)


class OverBudgetNoise:
    def strand_flips(self, rng, params):
        return [(0,)] * params.k  # corrupts every read


class WrongCountNoise:
    def strand_flips(self, rng, params):
        return [()] * (params.k + 1)


class WidePositionNoise:
    def strand_flips(self, rng, params):
        flips = [()] * params.k
        flips[0] = (params.length,)  # out of range
        return flips


def test_policy_contract_is_enforced():
    p = small_params(tau="1/2")
    z = mk_message(2, "000", "110")
    with pytest.raises(ValidationError):
        sample_ball(z, p, seed=0, noise=OverBudgetNoise())
    with pytest.raises(ValidationError):
        sample_ball(z, p, seed=0, noise=WrongCountNoise())
    with pytest.raises(ValidationError):
        sample_ball(z, p, seed=0, noise=WidePositionNoise())


OPTIMIZED_SAMPLER = """
from unittest import mock
import dnacode.channel as channel
from dnacode import Message, Strand, SystemParams, sample_ball

if __debug__:
    raise SystemExit("expected python -O")
z = Message((Strand(0, 2, 1),))
with mock.patch.object(channel, "assignment_feasible", lambda *args: False):
    try:
        sample_ball(z, SystemParams(1, 2, 1, 2, 1, 1, 1), seed=0)
    except AssertionError:
        raise SystemExit(0)
raise SystemExit("sample_ball returned a pool outside the ball")
"""


def test_sampler_postcondition_holds_under_python_O():
    src = str(Path(dnacode.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SAMPLER],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_uniform_noise_is_a_valid_policy():
    p = small_params(tau="1/2", k=4)
    rng = random.Random(0)
    flips = UniformNoise().strand_flips(rng, p)
    assert len(flips) == 4
    assert sum(1 for f in flips if f) <= p.tau_budget


def test_ball_membership_examples():
    p = small_params(m=1, length=2, index_len=1, k=2, tau="1", e_i=1, e_d=0)
    z = mk_message(1, "00")
    assert in_ball(ReadPool.from_reads(["00", "10"], 2), z, p)
    assert not in_ball(ReadPool.from_reads(["00", "01"], 2), z, p)


def test_read_neighborhood_contents():
    p = small_params(m=1, length=3, index_len=2, k=2, e_i=1, e_d=0)
    z = mk_message(2, "000")
    assert read_neighborhood(z, p) == {0b000, 0b100, 0b010}
    exact = small_params(m=1, length=3, index_len=2, k=2, e_i=0, e_d=0)
    assert read_neighborhood(z, exact) == {0b000}


def test_read_neighborhood_matches_membership_definition():
    from dnacode.metrics import pair_leq, split_distance

    p = small_params(e_i=1, e_d=1)
    z = mk_message(2, "000", "110")
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


def test_oracle_shape_checks():
    p = small_params()
    with pytest.raises(ShapeMismatch):
        oracle_balls_intersect(mk_message(2, "000", "110"), mk_message(2, "0000", "1100"), p)


def test_disjoint_when_data_unreachable():
    # e_d = 0 and different data multisets: no common pool can exist
    p = small_params(m=1, length=2, index_len=1, tau="1", e_i=1, e_d=0)
    assert not oracle_balls_intersect(mk_message(1, "00"), mk_message(1, "01"), p)
