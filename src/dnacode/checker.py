"""Independent re-verification of answers the rest of the package finds.

A checker takes the answer together with the evidence that came with it
and accepts only when that evidence proves it.  It calls none of the
code that found the answer (``matching``, ``codec``, ``channel``): it
reads the model's types and nothing else, so a fault in a search cannot
be repeated by the check of its result.

``grouping_fits`` proves a pool in the error ball of Z from a grouping
of its reads.  The ball is the set of pools that split into K reads per
strand of Z with at most floor(tau*K) of each strand's reads differing
from it, every such read within (e_i, e_d) of its strand; a grouping
that meets those terms is that split, read for read.
"""

from __future__ import annotations

from typing import Iterable

from .model import Message, SystemParams


def grouping_fits(records: Iterable, z: Message, params: SystemParams) -> bool:
    """True iff the records group a pool into the ball of Z.

    Each record has a ``read`` (a packed int) and the ``source`` strand
    it is grouped under, as ``channel.ReadProvenance`` has; the pool is
    the multiset of the records' reads.  The grouping fits exactly when
    every record's source is a strand of Z, every strand of Z has K
    records, at most floor(tau*K) of a strand's records have a read
    other than the strand, and each such read is a length-L word within
    (e_i, e_d) of its strand.
    """
    strands = {s.bits: s for s in z.strands}
    reads = dict.fromkeys(strands, 0)
    altered = dict.fromkeys(strands, 0)
    length, data_len = params.length, params.data_len
    data_mask = (1 << data_len) - 1
    e_i, e_d = params.e_i, params.e_d
    src = None
    for r in records:
        # a strand's records usually come together and share one source
        # object, so the source is looked up once per run of them
        if r.source is not src:
            src = r.source
            bits = src.bits
            s = strands.get(bits)
            if s is not src and s != src:
                return False
        reads[bits] += 1
        if r.read != bits:
            altered[bits] += 1
            x = r.read ^ bits
            if (
                x >> length
                or (x >> data_len).bit_count() > e_i
                or (x & data_mask).bit_count() > e_d
            ):
                return False
    return all(n == params.k for n in reads.values()) and max(altered.values()) <= params.tau_budget
