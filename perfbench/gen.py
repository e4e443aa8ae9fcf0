"""Seeded input generators.

A message is a sorted tuple of packed strand values, as in ``ref``.  Every
generator takes its own ``random.Random``, so the same seed always gives
the same inputs; the program under test only ever sees what these return.
"""

from __future__ import annotations

import random

from ref import Params, decide, read_neighborhood


def message(rng: random.Random, p: Params, data: list[int] | None = None) -> tuple[int, ...]:
    """Random message; ``data`` fixes the data-field multiset (shuffled over strands)."""
    indices = rng.sample(range(1 << p.index_len), p.m)
    if data is None:
        data = [rng.randrange(1 << p.data_len) for _ in range(p.m)]
    else:
        data = rng.sample(data, len(data))
    return tuple(sorted((i << p.data_len) | d for i, d in zip(indices, data)))


def near_copy(rng: random.Random, z: tuple[int, ...], p: Params) -> tuple[int, ...]:
    """Flip up to e_i index and e_d data bits per strand, keeping indices distinct,
    so the copy is within (e_i, e_d) of z strand by strand."""
    while True:
        taken = {s >> p.data_len for s in z}
        out = []
        for s in z:
            taken.discard(s >> p.data_len)
            while True:
                flips = rng.sample(range(p.data_len, p.length), rng.randint(0, p.e_i))
                flips += rng.sample(range(p.data_len), rng.randint(0, p.e_d))
                t = s
                for bit in flips:
                    t ^= 1 << bit
                if t >> p.data_len not in taken:
                    break
            taken.add(t >> p.data_len)
            out.append(t)
        if tuple(sorted(out)) != z:
            return tuple(sorted(out))


def multiset(rng: random.Random, p: Params, distinct: int) -> list[int]:
    """M data values over ``distinct`` random values, used as evenly as possible,
    so the index groups DNA-distance matches have the same sizes on every seed."""
    values = rng.sample(range(1 << p.data_len), distinct)
    return [values[i % distinct] for i in range(p.m)]


def code(rng: random.Random, p: Params, n: int) -> list[tuple[int, ...]]:
    out: dict[tuple[int, ...], None] = {}
    while len(out) < n:
        out[message(rng, p)] = None
    return list(out)


def disjoint_code(rng: random.Random, p: Params, n: int) -> list[tuple[int, ...]]:
    """n distinct codewords, no two of whose balls provably meet."""
    out: list[tuple[int, ...]] = []
    while len(out) < n:
        z = message(rng, p)
        if z not in out and all(decide(z, c, p) != "yes" for c in out):
            out.append(z)
    return out


def bucketed_code(
    rng: random.Random, p: Params, buckets: int, size: int, distinct: int
) -> list[tuple[int, ...]]:
    """``buckets`` groups of ``size`` codewords; each group shares one data multiset."""
    out: dict[tuple[int, ...], None] = {}
    used: set[tuple[int, ...]] = set()
    for _ in range(buckets):
        data = multiset(rng, p, distinct)
        while tuple(sorted(data)) in used:
            data = multiset(rng, p, distinct)
        used.add(tuple(sorted(data)))
        target = len(out) + size
        while len(out) < target:
            out[message(rng, p, data)] = None
    order = list(out)
    rng.shuffle(order)
    return order


def intersect_pairs(rng: random.Random, p: Params, near: int, random_pairs: int):
    """``near`` near-copy pairs (balls meet) and ``random_pairs`` independent pairs."""
    pairs = []
    for _ in range(near):
        z = message(rng, p)
        pairs.append((z, near_copy(rng, z, p)))
    for _ in range(random_pairs):
        pairs.append((message(rng, p), message(rng, p)))
    rng.shuffle(pairs)
    return pairs


def shared_multiset_pairs(rng: random.Random, p: Params, n: int, distinct: int):
    """Pairs whose data-field multisets agree, so DNA-distance is finite."""
    pairs = []
    while len(pairs) < n:
        data = multiset(rng, p, distinct)
        z1, z2 = message(rng, p, data), message(rng, p, data)
        if z1 != z2:
            pairs.append((z1, z2))
    return pairs


def oracle_batch(rng: random.Random, p: Params, quota: dict[tuple[str, int], int]):
    """Distinct pairs filling ``quota``, keyed on (answer, size of the shared
    read neighbourhood).  The oracle's work grows steeply with that size, so
    fixed quotas keep a batch's cost nearly the same for every seed."""
    left = dict(quota)
    pairs = []
    neighbourhoods: dict[tuple[int, ...], set[int]] = {}
    while any(left.values()):
        z1, z2 = message(rng, p), message(rng, p)
        if z1 == z2:
            continue
        for z in (z1, z2):
            if z not in neighbourhoods:
                neighbourhoods[z] = read_neighborhood(z, p)
        key = (decide(z1, z2, p), len(neighbourhoods[z1] & neighbourhoods[z2]))
        if left.get(key, 0) > 0:
            left[key] -= 1
            pairs.append((z1, z2))
    return pairs
