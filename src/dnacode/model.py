"""Message space for the binary DNA storage channel.

A strand is a length-L bit vector split into an index field (the first
``index_len`` bits) and a data field (the remaining bits).  A message is
a set of M strands whose index fields are pairwise distinct.  Bit
vectors are packed into Python ints most-significant-bit-first, so
lexicographic order on the binary string equals numeric order on the
packed value; lengths above 64 bits are rejected since desk-scale
verification never needs them.

``tau`` is kept as an exact :class:`fractions.Fraction` so the per-strand
corruption budget ``floor(tau*K)`` never suffers float rounding at regime
boundaries such as tau*K == K/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DuplicateIndex,
    DuplicateStrand,
    ParamMismatch,
    ShapeMismatch,
    SpaceTooLarge,
    ValidationError,
    WrongCount,
    WrongLength,
)

MAX_STRAND_LEN = 64
DEFAULT_SPACE_CAP = 10_000_000


def bits_from_string(s: str) -> int:
    """Pack a binary string (leftmost char = most significant bit)."""
    value = 0
    for ch in s:
        if ch == "1":
            value = (value << 1) | 1
        elif ch == "0":
            value <<= 1
        else:
            raise ValidationError(f"bit string may contain only 0 and 1, got {s!r}")
    return value


def bits_to_string(bits: int, length: int) -> str:
    return format(bits, f"0{length}b")


def flip_positions(bits: int, length: int, positions: Iterable[int]) -> int:
    """Flip string positions (0 = leftmost) in a packed bit vector."""
    for p in positions:
        bits ^= 1 << (length - 1 - p)
    return bits


@dataclass(frozen=True, order=True)
class Strand:
    """A length-``length`` bit vector with an ``index_len``-bit index prefix."""

    bits: int
    length: int
    index_len: int

    def __post_init__(self) -> None:
        if not 0 < self.index_len < self.length:
            raise ValidationError(
                f"need 0 < index_len < length, got index_len={self.index_len}, length={self.length}"
            )
        if self.length > MAX_STRAND_LEN:
            raise ValidationError(f"strand length {self.length} exceeds {MAX_STRAND_LEN}")
        if not 0 <= self.bits < (1 << self.length):
            raise WrongLength(f"bit value {self.bits} does not fit in {self.length} bits")

    @property
    def data_len(self) -> int:
        return self.length - self.index_len

    @property
    def index_bits(self) -> int:
        return self.bits >> self.data_len

    @property
    def data_bits(self) -> int:
        return self.bits & ((1 << self.data_len) - 1)

    @classmethod
    def from_string(cls, s: str, index_len: int) -> "Strand":
        return cls(bits_from_string(s), len(s), index_len)

    @classmethod
    def from_fields(cls, index_bits: int, data_bits: int, length: int, index_len: int) -> "Strand":
        return cls((index_bits << (length - index_len)) | data_bits, length, index_len)

    def __str__(self) -> str:
        return bits_to_string(self.bits, self.length)


@dataclass(frozen=True, order=True)
class Message:
    """A set of strands with pairwise-distinct index fields.

    Strands are stored sorted by packed value, which is the canonical
    order used everywhere (hashing, golden files, pair iteration).
    """

    strands: tuple[Strand, ...]

    def __post_init__(self) -> None:
        given = tuple(self.strands)
        ordered = tuple(sorted(given))
        object.__setattr__(self, "strands", ordered)
        if not ordered:
            raise WrongCount("a message needs at least one strand")
        first = ordered[0]
        shape = (first.length, first.index_len)
        for s in ordered:
            if (s.length, s.index_len) != shape:
                raise ShapeMismatch(
                    f"strand {s} has shape ({s.length},{s.index_len}), "
                    f"expected ({first.length},{first.index_len})"
                )
        # every repeated strand is reported before any shared index field
        seen: set[int] = set()
        for s in given:
            if s.bits in seen:
                raise DuplicateStrand(f"strand {s} appears twice")
            seen.add(s.bits)
        data_len = first.data_len
        by_index: dict[int, Strand] = {}
        for s in ordered:
            index = s.bits >> data_len
            if index in by_index:
                raise DuplicateIndex(
                    f"strands {by_index[index]} and {s} share index field "
                    f"{bits_to_string(index, s.index_len)}"
                )
            by_index[index] = s

    @property
    def m(self) -> int:
        return len(self.strands)

    @property
    def length(self) -> int:
        return self.strands[0].length

    @property
    def index_len(self) -> int:
        return self.strands[0].index_len

    @property
    def data_len(self) -> int:
        return self.strands[0].data_len

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.strands) + "}"


@dataclass(frozen=True)
class ReadPool:
    """A multiset of length-``length`` reads, stored as (value, count) pairs."""

    length: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm: dict[int, int] = {}
        for value, count in self.entries:
            if count <= 0:
                raise ValidationError(f"read multiplicity must be positive, got {count}")
            if not 0 <= value < (1 << self.length):
                raise WrongLength(f"read {value} does not fit in {self.length} bits")
            norm[value] = norm.get(value, 0) + count
        object.__setattr__(self, "entries", tuple(sorted(norm.items())))

    @classmethod
    def from_reads(cls, reads: Iterable[int | str], length: int) -> "ReadPool":
        counts: dict[int, int] = {}
        for r in reads:
            v = bits_from_string(r) if isinstance(r, str) else r
            if isinstance(r, str) and len(r) != length:
                raise WrongLength(f"read {r!r} has length {len(r)}, expected {length}")
            counts[v] = counts.get(v, 0) + 1
        return cls(length, tuple(counts.items()))

    @property
    def size(self) -> int:
        return sum(count for _, count in self.entries)

    def to_reads(self) -> list[int]:
        out: list[int] = []
        for value, count in self.entries:
            out.extend([value] * count)
        return out


@dataclass(frozen=True)
class SystemParams:
    """Channel parameters (M strands, L bits, l index bits, K reads per strand).

    ``tau`` is the maximal fraction of each strand's K reads that may
    differ from it; ``e_i``/``e_d`` bound the index/data bit flips of any
    single read.
    """

    m: int
    length: int
    index_len: int
    k: int
    tau: Fraction
    e_i: int
    e_d: int
    # floor(tau*K), the most reads per strand that may differ from it, set
    # once since every regime test and flow reads it; a plain field, as a
    # cached_property would move the fields into a dict and slow every
    # read of them, such as those in assignment_feasible's inner loop
    tau_budget: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a float has already been rounded to binary, so floor(tau*K) of
        # its exact value can fall one below the intended budget
        if isinstance(self.tau, float):
            raise ValidationError(
                f"tau must be exact (an int, a Fraction or a 'p/q' string), got float {self.tau!r}"
            )
        try:
            object.__setattr__(self, "tau", Fraction(self.tau))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"tau must be a rational number, got {self.tau!r}") from exc
        if self.m < 1 or self.k < 1:
            raise ValidationError("M and K must be positive")
        if not 0 < self.index_len < self.length:
            raise ValidationError(
                f"need 0 < l < L, got l={self.index_len}, L={self.length}"
            )
        if self.length > MAX_STRAND_LEN:
            raise ValidationError(f"L={self.length} exceeds {MAX_STRAND_LEN}")
        if self.m > (1 << self.index_len):
            raise ValidationError(
                f"M={self.m} exceeds the 2^l={1 << self.index_len} available index fields"
            )
        if not 0 < self.tau <= 1:
            raise ValidationError(f"tau must lie in (0, 1], got {self.tau}")
        if not 0 <= self.e_i <= self.index_len:
            raise ValidationError(f"need 0 <= ei <= l, got ei={self.e_i}, l={self.index_len}")
        if not 0 <= self.e_d <= self.length - self.index_len:
            raise ValidationError(
                f"need 0 <= ed <= L-l, got ed={self.e_d}, L-l={self.length - self.index_len}"
            )
        object.__setattr__(self, "tau_budget", math.floor(self.tau * self.k))

    @property
    def data_len(self) -> int:
        return self.length - self.index_len

    @property
    def pool_size(self) -> int:
        return self.m * self.k

    def strand(self, bits: int | str) -> Strand:
        if isinstance(bits, str):
            if len(bits) != self.length:
                raise WrongLength(f"strand {bits!r} has length {len(bits)}, expected {self.length}")
            return Strand.from_string(bits, self.index_len)
        return Strand(bits, self.length, self.index_len)


def split_popcount(x: int, data_len: int) -> tuple[int, int]:
    """Set bits of ``x`` in the index field and in the data field.

    On ``a ^ b`` for two packed strands this is their split distance,
    the quantity every intersection criterion is stated on.  The rows of
    ``matching``'s bijection graphs write these two popcounts out inline,
    since a call per strand pair made code verification about a third
    slower.
    """
    return (x >> data_len).bit_count(), (x & ((1 << data_len) - 1)).bit_count()


def _shape_text(m: int, length: int, index_len: int) -> str:
    return f"(M={m},L={length},l={index_len})"


def check_shape(*messages: Message, params: SystemParams | None = None) -> None:
    """Require the messages to share one (M, L, l) shape, the one ``params`` fixes.

    Raises ShapeMismatch when two messages disagree with each other, and
    ParamMismatch when their common shape disagrees with ``params``.
    """
    shapes = [(z.m, z.length, z.index_len) for z in messages]
    for shape in shapes[1:]:
        if shape != shapes[0]:
            raise ShapeMismatch(
                f"messages have shapes {_shape_text(*shapes[0])} and {_shape_text(*shape)}"
            )
    if params is not None and shapes:
        expected = (params.m, params.length, params.index_len)
        if shapes[0] != expected:
            raise ParamMismatch(
                f"message shape {_shape_text(*shapes[0])} does not match "
                f"params {_shape_text(*expected)}"
            )


RawStrand = Union[int, str, Strand]


def validate_message(raw: Sequence[RawStrand], params: SystemParams) -> Message:
    """Canonicalize ``raw`` into a message of exactly ``params.m`` strands.

    Raises WrongLength / WrongCount / DuplicateStrand / DuplicateIndex in
    that order of precedence; the last two come from :class:`Message`.
    """
    strands: list[Strand] = []
    for item in raw:
        if isinstance(item, Strand):
            if item.length != params.length or item.index_len != params.index_len:
                raise WrongLength(
                    f"strand {item} has shape ({item.length},{item.index_len}), "
                    f"expected ({params.length},{params.index_len})"
                )
            strands.append(item)
        else:
            strands.append(params.strand(item))
    if len(strands) != params.m:
        raise WrongCount(f"expected {params.m} strands, got {len(strands)}")
    return Message(tuple(strands))


def index_groups(msg: Message) -> dict[int, list[int]]:
    """Index fields of the strands carrying each data field, keyed by data field.

    Each list is ascending, since strands are stored in packed order.
    Two messages share a data-field multiset iff their groups have the
    same keys and the same sizes.
    """
    data_len = msg.data_len
    mask = (1 << data_len) - 1
    groups: dict[int, list[int]] = {}
    for s in msg.strands:
        groups.setdefault(s.bits & mask, []).append(s.bits >> data_len)
    return groups


def has_distinct_data(msg: Message) -> bool:
    """True iff all data fields are distinct (equivalently, restricted to (l, 0))."""
    return len(index_groups(msg)) == msg.m


def in_restricted_space(msg: Message, r1: int, r2: int) -> bool:
    """True iff no two strands are simultaneously within r1 index bits and r2 data bits."""
    data_len = msg.data_len
    return not any(
        (d := split_popcount(x.bits ^ y.bits, data_len))[0] <= r1 and d[1] <= r2
        for x, y in combinations(msg.strands, 2)
    )


def space_size(params: SystemParams) -> int:
    """Number of messages: C(2^l, M) * 2^(M*(L-l))."""
    return math.comb(1 << params.index_len, params.m) * (
        1 << (params.m * params.data_len)
    )


def enumerate_space(
    params: SystemParams,
    restrict: tuple[int, int] | None = None,
    cap: int = DEFAULT_SPACE_CAP,
) -> Iterator[Message]:
    """Yield every message once, in a fixed canonical order.

    With ``restrict=(r1, r2)`` only messages of the restricted space pass.
    The (unfiltered) space size is checked against ``cap`` up front.
    """
    count = space_size(params)
    if count > cap:
        raise SpaceTooLarge(count, cap, what="message space")
    length, index_len, data_len = params.length, params.index_len, params.data_len
    for index_combo in combinations(range(1 << index_len), params.m):
        for data_combo in product(range(1 << data_len), repeat=params.m):
            msg = Message(
                tuple(
                    Strand.from_fields(ind, dat, length, index_len)
                    for ind, dat in zip(index_combo, data_combo)
                )
            )
            if restrict is None or in_restricted_space(msg, *restrict):
                yield msg
