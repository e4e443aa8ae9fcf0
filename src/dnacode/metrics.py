"""Split Hamming distances on strands and the DNA-distance on messages.

Distances between same-shape strands are pairs (index distance, data
distance) under the componentwise partial order: (a, b) <= (c, d) iff
a <= c and b <= d.  The DNA-distance between messages with equal
data-field multisets is the worst bottleneck assignment between matching
index groups; messages with different multisets are infinitely far
apart, realized as math.inf so plain comparisons (k < math.inf) work.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

from .errors import DuplicateCodeword, ShapeMismatch, TooFewCodewords
from .matching import bottleneck_bijection
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
    return max(bottleneck_bijection(g1[u], g2[u])[0] for u in g1)


def min_dna_distance(
    code: Sequence[Message],
) -> tuple[DnaDistance, tuple[Message, Message]]:
    """Minimum pairwise DNA-distance of a code, with an argmin pair.

    The witness is the first pair attaining the minimum, iterating
    unordered pairs in the order the code lists them.
    """
    if len(code) < 2:
        raise TooFewCodewords(f"need at least 2 codewords, got {len(code)}")
    if len(set(code)) != len(code):
        raise DuplicateCodeword("codewords must be pairwise distinct")
    best: DnaDistance = math.inf
    witness: tuple[Message, Message] | None = None
    for i in range(len(code)):
        for j in range(i + 1, len(code)):
            d = dna_distance(code[i], code[j])
            if witness is None or d < best:
                best = d
                witness = (code[i], code[j])
    assert witness is not None
    return best, witness
