"""Channel sampling and the brute-force ball-intersection oracle.

The error ball of a message Z is the set of read pools of size M*K that
split into K reads per strand with at most floor(tau*K) of each strand's
reads differing from it, every read within (e_i, e_d) of its strand.
``sample_ball`` draws one pool from the ball: the model fixes only the
ball, and the sampler corrupts, for each strand, a uniform subset of
its K reads of size uniform on {0..floor(tau*K)}, drawing for each an
index-flip weight uniform on {0..e_i} and a data-flip weight uniform on
{0..e_d}, at distinct uniform positions (a zero-weight draw is an exact
copy).  ``in_ball`` decides membership, and ``oracle_balls_intersect``
decides ball intersection by exhaustive enumeration, independent of the
matching-based criteria it is used to validate.

Oracle enumeration is pruned losslessly: every read of a pool lying in
both balls is within (e_i, e_d) of a strand of Z1 and of a strand of Z2,
so candidates are built over the intersection of the two read
neighborhoods; and when tau < 1 each strand must keep at least
K - floor(tau*K) exact copies in the pool, so those forced copies are
fixed as a base and only completions are enumerated.

The completions are walked as multisets in the order of
``combinations_with_replacement``, one read at a time.  A partial pool
fits ball(Z) when its reads can go to strands of Z, each within
(e_i, e_d) of its strand, with at most K per strand and at most
floor(tau*K) per strand differing from it; a partial pool that does
not fit both balls is dropped with every extension of it.  That prune
loses nothing: the grouping of a pool in ball(Z), restricted to a
sub-multiset, fits the same capacities, so no pool containing a misfit
lies in the ball.

The partial pool is held in the source capacities of one
read-assignment network per message (``matching._read_network``, the
network ``in_ball`` solves), built once over the read universe.  Adding
a read raises one source capacity by 1, and ``_Dinic.max_flow`` then
looks for the one extra unit on the residual network left by the
prefix; a step that finds none on either network is undone by restoring
the residual capacities saved at its depth.  The walk keeps an explicit
stack, so a pool of thousands of reads needs no recursion.  A full pool
both flows accept is confirmed with ``in_ball`` against both messages
before the oracle answers True.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .errors import SpaceTooLarge, ValidationError
from .matching import _read_network, assignment_feasible
from .model import (
    DEFAULT_SPACE_CAP,
    Message,
    ReadPool,
    Strand,
    SystemParams,
    _ball_volume,
    _flip_masks,
    check_shape,
    flip_positions,
)

RNG_ID = "mt19937"


@dataclass(frozen=True)
class ReadProvenance:
    """One read: its value, originating strand, and flipped string positions."""

    read: int
    source: Strand
    flips: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flips", tuple(sorted(self.flips)))
        expected = flip_positions(self.source.bits, self.source.length, self.flips)
        if self.read != expected:
            raise ValidationError(
                f"read {self.read} does not equal source {self.source} with "
                f"positions {self.flips} flipped"
            )


@dataclass(frozen=True)
class ChannelSample:
    """A sampled pool plus per-read provenance and the RNG identity."""

    pool: ReadPool
    provenance: tuple[ReadProvenance, ...]
    seed: int
    rng: str = RNG_ID

    def __post_init__(self) -> None:
        from_prov = Counter(p.read for p in self.provenance)
        if sorted(from_prov.items()) != list(self.pool.entries):
            raise ValidationError("pool does not match the provenance multiset")


def _strand_flips(rng: random.Random, params: SystemParams) -> list[tuple[int, ...]]:
    """Flip sets (string positions) for one strand's K reads, drawn as
    the module docstring says."""
    flips: list[tuple[int, ...]] = [()] * params.k
    corrupt = rng.randint(0, params.tau_budget)
    for copy in sorted(rng.sample(range(params.k), corrupt)):
        wi = rng.randint(0, params.e_i)
        ipos = rng.sample(range(params.index_len), wi)
        wd = rng.randint(0, params.e_d)
        dpos = rng.sample(range(params.index_len, params.length), wd)
        flips[copy] = tuple(sorted(ipos + dpos))
    return flips


def sample_ball(z: Message, params: SystemParams, seed: int) -> ChannelSample:
    """Draw one pool from the ball of Z, deterministic given the seed.

    Strands are processed in canonical (sorted) order, K reads each; the
    result is checked against ``assignment_feasible`` before returning.
    """
    check_shape(z, params=params)
    rng = random.Random(seed)
    provenance: list[ReadProvenance] = []
    for s in z.strands:
        for f in _strand_flips(rng, params):
            provenance.append(
                ReadProvenance(flip_positions(s.bits, params.length, f), s, f)
            )
    pool = ReadPool.from_reads([p.read for p in provenance], params.length)
    sample = ChannelSample(pool, tuple(provenance), seed)
    if not assignment_feasible(pool, z, params):
        raise AssertionError("sampled pool must lie in the ball")
    return sample


def in_ball(pool: ReadPool, z: Message, params: SystemParams) -> bool:
    """True iff the pool is a possible channel output for Z."""
    return assignment_feasible(pool, z, params)


def read_neighborhood(z: Message, params: SystemParams) -> set[int]:
    """All read values within (e_i, e_d) of at least one strand of Z."""
    data_len = params.data_len
    index_masks = [i << data_len for i in _flip_masks(params.index_len, params.e_i)]
    data_masks = _flip_masks(data_len, params.e_d)
    return {s.bits ^ i ^ d for s in z.strands for i in index_masks for d in data_masks}


def oracle_balls_intersect(
    z1: Message,
    z2: Message,
    params: SystemParams,
    cap: int = DEFAULT_SPACE_CAP,
) -> bool:
    """Ground truth for ball intersection, by exhaustive enumeration.

    Walks the candidate pools over the pruned read universe, dropping
    every extension of a partial pool that does not fit both balls (see
    the module docstring), and confirms a common pool with ``in_ball``
    against both messages.  Exact, deterministic, and independent of the
    matching-based decision procedures.  ``SpaceTooLarge`` is raised when
    the read universe or the unpruned count of candidate pools exceeds
    ``cap``.
    """
    check_shape(z1, z2, params=params)
    if z1 == z2:
        return True

    bound = (
        params.m
        * _ball_volume(params.index_len, params.e_i)
        * _ball_volume(params.data_len, params.e_d)
    )
    if bound > cap:
        raise SpaceTooLarge(bound, cap, what="read universe")
    shared = read_neighborhood(z1, params) & read_neighborhood(z2, params)
    if not shared:
        return False
    universe = sorted(shared)

    base: Counter[int] = Counter()
    forced = params.k - params.tau_budget
    if forced > 0:
        for v in {s.bits for s in z1.strands} | {s.bits for s in z2.strands}:
            # every strand keeps >= K - floor(tau*K) exact copies, and all
            # reads of a common pool lie in the pruned universe
            if v not in shared:
                return False
            base[v] = forced
    remaining = params.pool_size - sum(base.values())
    if remaining < 0:
        return False

    count = math.comb(len(universe) + remaining - 1, remaining)
    if count > cap:
        raise SpaceTooLarge(count, cap, what="candidate pools")

    # the partial pool lives in the source capacities of one read network
    # per message; at every accepted depth all source edges are saturated
    net1, src1, sink1 = _read_network(universe, z1, params)
    net2, src2, sink2 = _read_network(universe, z2, params)
    for i, v in enumerate(universe):
        src1[i][1] = src2[i][1] = base[v]
    placed = sum(base.values())
    if net1.max_flow(0, sink1) < placed or net2.max_flow(0, sink2) < placed:
        return False

    # the multisets in combinations_with_replacement order, one read a
    # step; saved[d] holds the residual capacities at depth d
    edges = [e for net in (net1, net2) for row in net.adj for e in row]
    saved = [[e[1] for e in edges]]
    picks: list[int] = []
    i = 0
    while len(picks) < remaining:
        if i < len(universe):
            src1[i][1] += 1
            src2[i][1] += 1
            if net1.max_flow(0, sink1) and net2.max_flow(0, sink2):
                picks.append(i)
                saved.append([e[1] for e in edges])
                continue
            i += 1
        elif picks:
            saved.pop()
            i = picks.pop() + 1
        else:
            return False
        for e, c in zip(edges, saved[-1]):
            e[1] = c

    candidate = base + Counter(universe[j] for j in picks)
    pool = ReadPool(params.length, tuple(candidate.items()))
    if in_ball(pool, z1, params) and in_ball(pool, z2, params):
        return True
    raise AssertionError("a pool both read networks accept must lie in both balls")
