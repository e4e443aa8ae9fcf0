"""Channel sampling and the brute-force ball-intersection oracle.

The error ball of a message Z is the set of read pools of size M*K that
split into K reads per strand with at most floor(tau*K) of each strand's
reads differing from it, every read within (e_i, e_d) of its strand.
``sample_ball`` draws one pool from the ball: the model fixes only the
ball, and the sampler corrupts, for each strand, a uniform subset of
its K reads of size uniform on {0..floor(tau*K)}, drawing for each an
index-flip weight uniform on {0..e_i} and a data-flip weight uniform on
{0..e_d}, at distinct uniform positions (a zero-weight draw is an exact
copy).  The draws read MT19937's 32-bit outputs through ``getrandbits``
(``random.Random(seed)``, Matsumoto & Nishimura 1998) and consume them
as ``randrange`` and ``sample`` over a range do in CPython: ``_below``
takes n.bit_length() bits until a value below n comes up, and
``_sample`` follows ``Random.sample``'s list path or set path.  So a pool
is fixed by (message, params, seed) and the generator's output alone,
not by how a Python version implements those two methods.  A sample
is its grouping: for each strand of the message, in canonical order,
the tuple of packed reads drawn from it, in draw order.  Each read is
its strand XOR a flip mask (0 for an exact copy), and the pool, built
on first use, is the multiset of the groups' reads.  The groups hold K
reads per strand, so the sampler proves its pool in the ball by that
grouping alone (``checker.grouping_fits``), with no flow.
``in_ball`` decides membership of any pool, by the read-assignment
flow, and ``oracle_balls_intersect`` decides ball intersection by
exhaustive enumeration, independent of the matching-based criteria it
is used to validate.

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

The partial pool is the flow of one read-assignment network per
message (``matching._read_network``, the builder ``in_ball`` uses too),
built once over the read universe at the full strand capacities, with
no read peeled off.  ``fills``, made of the same unit pushes as each
step, places the forced base; from then on, at every accepted depth,
both networks carry a maximum flow that places every read of the
partial pool.  Adding read i raises the max flow by at most 1, and by
exactly 1 iff the residual network has a path from read node i to the
sink that avoids the source (Ford & Fulkerson 1956).  So a step is one
``_FlowNetwork.push(i)`` per network, which sends the unit along such a
path or changes nothing.  A step that net2 rejects pops net1's path,
and a backtrack pops the two paths of the depth it leaves.  Pops are
LIFO: each path taken back is the last one still pushed on its
network, so every residual capacity returns exactly to its value
before that push.  The walk keeps an explicit stack, so a pool of
thousands of reads needs no recursion.  A full pool both flows accept
is confirmed with ``in_ball`` against both messages before the oracle
answers True.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, ClassVar

from .checker import grouping_fits
from .errors import SpaceTooLarge, ValidationError
from .matching import _read_network, assignment_feasible
from .model import (
    DEFAULT_SPACE_CAP,
    Message,
    ReadPool,
    SystemParams,
    _ball_volume,
    _check_packed,
    _flip_masks,
    _pool_from_counts,
    check_shape,
)

RNG_ID = "mt19937"


@dataclass(frozen=True)
class ChannelSample:
    """A sampled pool, stored as its grouping: ``groups[j]`` holds the
    packed reads drawn from strand ``message.bits[j]``, in draw order.  The
    seed and RNG identity that drew it come with it."""

    message: Message
    groups: tuple[tuple[int, ...], ...]
    seed: int
    rng: ClassVar[str] = RNG_ID

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if len(self.groups) != self.message.m:
            raise ValidationError(
                f"a sample of {self.message.m} strands needs as many groups, "
                f"got {len(self.groups)}"
            )
        length = self.message.length
        for group in self.groups:
            if not group:
                raise ValidationError("a sample needs at least one read per strand")
            for read in group:
                _check_packed(read, length, "read")

    @cached_property
    def pool(self) -> ReadPool:
        """The multiset of the groups' reads, built on first use."""
        return _pool_from_counts(self.message.length, Counter(chain.from_iterable(self.groups)))


def _check_seed(seed: object) -> None:
    """Require a non-negative int seed: the sidecar records the seed, and
    simulate --seed replays only such a one."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a non-negative int, got {seed!r}")


def _proven_sample(
    message: Message, groups: tuple[tuple[int, ...], ...], seed: int
) -> ChannelSample:
    """A ChannelSample of a checked seed and of groups that
    ``checker.grouping_fits`` has proved, made without checking them again."""
    sample = object.__new__(ChannelSample)
    object.__setattr__(sample, "message", message)
    object.__setattr__(sample, "groups", groups)
    object.__setattr__(sample, "seed", seed)
    return sample


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` for n >= 1, drawn as CPython's
    ``_randbelow_with_getrandbits`` draws it: ``n.bit_length()`` bits at a
    time until a value below n comes up."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits: Callable[[int], int], start: int, n: int, k: int) -> list[int]:
    """``sample(range(start, start + n), k)``, drawn as CPython's
    ``Random.sample`` draws it: from a shrinking list when n is at most
    its set size, and by rejecting repeats against a set otherwise.  Both
    paths draw a single item as ``start + _below(n)``."""
    if k == 1:
        return [start + _below(getrandbits, n)]
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(start, start + n))
        result = []
        for i in range(k):
            j = _below(getrandbits, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result
    selected: set[int] = set()
    result = []
    for _ in range(k):
        j = _below(getrandbits, n)
        while j in selected:
            j = _below(getrandbits, n)
        selected.add(j)
        result.append(start + j)
    return result


def _strand_flips(rng: random.Random, params: SystemParams) -> list[int]:
    """Flip masks for one strand's K reads, 0 for an exact copy, drawn as
    the module docstring says."""
    getrandbits = rng.getrandbits
    masks = [0] * params.k
    # _below(n + 1) draws as randint(0, n) does, and a sample of 0 items
    # draws nothing, so skipping one leaves the stream unchanged.  With
    # no budget every count is 0 and the sample draws nothing else, so
    # the count is not drawn: the pool is the same without it
    corrupt = params.tau_budget and _below(getrandbits, params.tau_budget + 1)
    if not corrupt:
        return masks
    index_len, length = params.index_len, params.length
    top = length - 1
    for copy in sorted(_sample(getrandbits, 0, params.k, corrupt)):
        mask = 0
        wi = _below(getrandbits, params.e_i + 1)
        if wi:
            for p in _sample(getrandbits, 0, index_len, wi):
                mask |= 1 << (top - p)
        wd = _below(getrandbits, params.e_d + 1)
        if wd:
            for p in _sample(getrandbits, index_len, length - index_len, wd):
                mask |= 1 << (top - p)
        masks[copy] = mask
    return masks


def sample_ball(z: Message, params: SystemParams, seed: int) -> ChannelSample:
    """Draw one pool from the ball of Z, deterministic given the seed.

    The seed is checked before anything is drawn.  Strands are processed
    in canonical (sorted) order, K reads each, and each strand's reads
    form its group.  Before returning, the groups are checked to group
    the pool into the ball of Z (``checker.grouping_fits``), which proves
    the pool a member and each read an L-bit value, so the sample is
    built without the constructor's checks.
    """
    _check_seed(seed)
    check_shape(z, params=params)
    rng = random.Random(seed)
    groups = tuple(tuple(s ^ f for f in _strand_flips(rng, params)) for s in z.bits)
    if not grouping_fits(groups, z, params):
        raise AssertionError("sampled pool must lie in the ball")
    return _proven_sample(z, groups, seed)


def in_ball(pool: ReadPool, z: Message, params: SystemParams) -> bool:
    """True iff the pool is a possible channel output for Z."""
    return assignment_feasible(pool, z, params)


def read_neighborhood(z: Message, params: SystemParams) -> set[int]:
    """All read values within (e_i, e_d) of at least one strand of Z."""
    check_shape(z, params=params)
    data_len = params.data_len
    index_masks = [i << data_len for i in _flip_masks(params.index_len, params.e_i)]
    data_masks = _flip_masks(data_len, params.e_d)
    return {s ^ i ^ d for s in z.bits for i in index_masks for d in data_masks}


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
        for v in set(z1.bits) | set(z2.bits):
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

    # the partial pool is the flow of one read network per message, which
    # places every read of it at every accepted depth
    net1 = _read_network(universe, z1, params)
    net2 = _read_network(universe, z2, params)
    copies = [base[v] for v in universe]
    if not (net1.fills(copies) and net2.fills(copies)):
        return False

    # the multisets in combinations_with_replacement order, one read a
    # step; paths[d] holds the two augmenting paths of the read at depth d
    paths: list[tuple[list[list[int]], list[list[int]]]] = []
    picks: list[int] = []
    i = 0
    while len(picks) < remaining:
        if i < len(universe):
            path1 = net1.push(i)
            if path1 is not None:
                path2 = net2.push(i)
                if path2 is not None:
                    picks.append(i)
                    paths.append((path1, path2))
                    continue
                net1.pop(path1)
        elif picks:
            path1, path2 = paths.pop()
            net1.pop(path1)
            net2.pop(path2)
            i = picks.pop()
        else:
            return False
        i += 1

    candidate = base + Counter(universe[j] for j in picks)
    pool = ReadPool(params.length, tuple(candidate.items()))
    if in_ball(pool, z1, params) and in_ball(pool, z2, params):
        return True
    raise AssertionError("a pool both read networks accept must lie in both balls")
