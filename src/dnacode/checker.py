"""Independent re-verification of answers the rest of the package finds.

A checker takes the answer together with the evidence that came with it
and accepts only when that evidence proves it.  It calls none of the
code that found the answer (``matching``, ``codec``, ``channel``): it
reads the model's types and nothing else, so a fault in a search cannot
be repeated by the check of its result.

``grouping_fits`` proves a pool in the error ball of Z from a grouping
of its reads: one group per strand of Z, in canonical order.  The ball
is the set of pools that split into K reads per strand of Z with at
most floor(tau*K) of each strand's reads differing from it, every such
read within (e_i, e_d) of its strand; a grouping that meets those terms
is that split, read for read.
"""

from __future__ import annotations

from typing import Sequence

from .model import Message, SystemParams


def grouping_fits(groups: Sequence[Sequence[int]], z: Message, params: SystemParams) -> bool:
    """True iff the groups group a pool into the ball of Z.

    ``groups[j]`` holds the packed reads grouped under strand ``z.bits[j]``,
    as ``channel.ChannelSample.groups`` does; the pool is the multiset of
    all of them.  The grouping fits exactly when there is one group per
    strand of Z, every group has K reads, at most floor(tau*K) of a
    group's reads differ from its strand, and each such read is a
    length-L word within (e_i, e_d) of its strand.
    """
    if len(groups) != len(z.bits):
        return False
    k, budget = params.k, params.tau_budget
    length, data_len = params.length, params.data_len
    data_mask = (1 << data_len) - 1
    e_i, e_d = params.e_i, params.e_d
    for bits, group in zip(z.bits, groups):
        if len(group) != k:
            return False
        altered = 0
        for read in group:
            if read != bits:
                altered += 1
                x = read ^ bits
                if (
                    x >> length
                    or (x >> data_len).bit_count() > e_i
                    or (x & data_mask).bit_count() > e_d
                ):
                    return False
        if altered > budget:
            return False
    return True
