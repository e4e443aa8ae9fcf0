"""Split Hamming distances on strands and the DNA-distance on messages.

Distances between same-shape strands are pairs (index distance, data
distance) under the componentwise partial order: (a, b) <= (c, d) iff
a <= c and b <= d.  The DNA-distance between messages with equal
data-field multisets is the worst bottleneck assignment between matching
index groups; messages with different multisets are infinitely far
apart, realized as math.inf so plain comparisons (k < math.inf) work.

Both distances rest on one threshold decision: is there a bijection
between two index groups with every Hamming distance at most t (Gabow &
Tarjan, "Algorithms for two bottleneck optimization problems",
J. Algorithms 1988)?  A pair's value asks ``matching.bottleneck_value``
for each data group in turn: the least threshold, at or above the worst
value of the groups before it, at which the group admits a bijection.
A group within that worst value costs one decision, and a value is
found by threshold sweeps alone, with no bijection built behind it.

The minimum distance of a code needs, pair by pair, only whether a pair
beats the best so far.  A pair is within t iff every data group admits
a bijection within t, one ``matching.has_bijection_within`` decision per
group, stopping at the first group that fails.  The witness is the first
pair at the minimum in canonical order, so a pair beats the witness iff
it is within the best value when it comes before the witness in that
order, and within one less otherwise.  Only a pair that beats the
witness gets its exact value, and it becomes the witness: the witness
the exact values would give, tie rule included.  Distinct codewords are
at distance 1 or more, so the threshold is never negative.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

from .errors import DuplicateCodeword, ShapeMismatch, TooFewCodewords
# bottleneck_bijection stays imported: perfbench/run.py traces metrics.bottleneck_bijection
from .matching import bottleneck_bijection, bottleneck_value, has_bijection_within
from .model import Message, Strand, check_shape, index_groups, split_popcount


class PairDistance(NamedTuple):
    """(index-field Hamming distance, data-field Hamming distance)."""

    idx: int
    dat: int


def pair_leq(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Componentwise order; partial, not total: (1,0) and (0,1) are incomparable."""
    return a[0] <= b[0] and a[1] <= b[1]


def split_distance(x: Strand, y: Strand) -> PairDistance:
    """Hamming distances of the index fields and of the data fields."""
    if (x.length, x.index_len) != (y.length, y.index_len):
        raise ShapeMismatch(
            f"strands have shapes ({x.length},{x.index_len}) and ({y.length},{y.index_len})"
        )
    return PairDistance(*split_popcount(x.bits ^ y.bits, x.data_len))


DnaDistance = Union[int, float]
"""Non-negative int, or math.inf when the data-field multisets differ."""


def dna_distance(z1: Message, z2: Message) -> DnaDistance:
    """DNA-distance between two messages.

    Groups each message's index fields by data field.  math.inf when
    the data-field multisets differ, i.e. when the groups differ in keys
    or sizes.  Otherwise, for each data field u, the bottleneck value
    between the index groups I(u, Z1) and I(u, Z2) (minimum over
    bijections of the maximum index Hamming distance), and the worst
    value over u.
    """
    check_shape(z1, z2)
    g1, g2 = index_groups(z1), index_groups(z2)
    if g1.keys() != g2.keys() or any(len(g1[u]) != len(g2[u]) for u in g1):
        return math.inf
    return _grouped_distance(g1, g2, z1.index_len)


def _grouped_distance(
    g1: dict[int, list[int]], g2: dict[int, list[int]], index_len: int
) -> int:
    # groups of one data-field multiset of index_len-bit index fields: the
    # worst bottleneck over data fields, each group swept up from the worst
    # so far, since a group within it cannot raise it
    worst = 0
    for u in g1:
        worst = bottleneck_value(g1[u], g2[u], worst, index_len)
    return worst


def min_dna_distance(
    code: Sequence[Message],
) -> tuple[DnaDistance, tuple[Message, Message]]:
    """Minimum pairwise DNA-distance of a code, with an argmin pair.

    The witness is the first pair attaining the minimum, iterating
    unordered pairs in the order the code lists them; once the best is
    finite, a pair's exact value is computed only if it beats the
    witness (see the module docstring).  Only codewords
    with one data-field multiset are compared, since all other pairs
    are infinitely far apart; when no two codewords share a multiset the
    minimum is math.inf and the witness the first two codewords.
    """
    if len(code) < 2:
        raise TooFewCodewords(f"need at least 2 codewords, got {len(code)}")
    # this check comes before the shape check: equal packed strands of
    # two shapes are two distinct codewords, as they are unequal messages
    if len(set(code)) != len(code):
        raise DuplicateCodeword("codewords must be pairwise distinct")
    check_shape(*code)
    index_len = code[0].index_len
    groups = [index_groups(z) for z in code]
    buckets: dict[frozenset[tuple[int, int]], list[int]] = {}
    for i, g in enumerate(groups):
        buckets.setdefault(frozenset((u, len(ind)) for u, ind in g.items()), []).append(i)
    best: DnaDistance = math.inf
    first = (0, 1)
    for members in buckets.values():
        for a, i in enumerate(members):
            gi = groups[i]
            for j in members[a + 1 :]:
                gj = groups[j]
                if best < math.inf:
                    # (i, j) beats the witness iff it is within best when
                    # it comes first in canonical order, within best - 1
                    # otherwise: a threshold decision per data group
                    t = best if (i, j) < first else best - 1
                    if not all(has_bijection_within(gi[u], gj[u], t, index_len) for u in gi):
                        continue
                best, first = _grouped_distance(gi, gj, index_len), (i, j)
    return best, (code[first[0]], code[first[1]])
