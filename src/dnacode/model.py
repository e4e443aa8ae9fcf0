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

A message is its packed strands: ``Message.bits``, the sorted tuple of
their packed values, and one (length, index_len) shape.  Every reader
in the package works on ``bits``; the ``Strand`` objects are made only
when ``Message.strands`` is first read, and kept.

Each input is checked once, where the check is cheapest.  File tokens
are checked and packed by ``io.read_blocks`` (0/1 only, one length per
file, each distinct token once); the builders here take packed ints
only.  ``_check_strand_shape`` is the one shape rule (0 < l < L <= 64)
of ``Strand``, ``SystemParams`` and the CLI, and ``_check_packed`` the
one rule for a packed value of L bits (an int, not a bool, in range).
A pool of checked reads and counts is built by ``_pool_from_counts``
without checking each read again.  Messages are built by one private
builder, ``_message_from_packed``: it runs the count, duplicate-strand
and duplicate-index checks on the ints and makes the message from the
sorted ints through ``_unchecked_message``.  ``validate_message`` and
the CLI's one builder, ``cli._messages``, which checks a file's shape
once for all its blocks, build through it.
``enumerate_space``, whose index fields are distinct by construction,
calls ``_unchecked_message`` on each pick of one packed strand per
column.  The public ``Strand`` and ``Message`` constructors keep all
their checks; ``Message`` runs the builder's int-level checks after its
shape check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import total_ordering
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

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


# deletes 0 and 1: str.translate is one C pass, where str.strip with a
# character set searches that set once per character
_DROP_BITS = str.maketrans("", "", "01")


def _is_bits(s: str) -> bool:
    """Whether ``s`` holds no character other than 0 and 1."""
    return not s.translate(_DROP_BITS)


def _quote(s: str) -> str:
    """``repr(s)`` for an error text, cut to its first 64 characters and
    its length: a token no longer than a strand is shown whole."""
    n = MAX_STRAND_LEN
    return repr(s) if len(s) <= n else f"{s[:n]!r}... ({len(s)} characters)"


def check_bits(s: str) -> None:
    """Reject a string with any character other than 0 and 1.

    ``int(s, 2)`` alone would also take a sign, surrounding whitespace,
    underscores, a ``0b`` prefix and non-ASCII digits.
    """
    if not _is_bits(s):
        raise ValidationError(f"bit string may contain only 0 and 1, got {_quote(s)}")


def bits_from_string(s: str) -> int:
    """Pack a binary string (leftmost char = most significant bit), after
    ``check_bits``."""
    check_bits(s)
    return int(s, 2) if s else 0


def _is_digits(s: str) -> bool:
    """Whether ``s`` is a non-empty run of ASCII decimal digits."""
    return s.isascii() and s.isdigit()


def int_from_string(s: str, what: str = "value") -> int:
    """A non-negative integer written in ASCII decimal digits.

    ``int(s)`` alone would also take a sign (so '-0' and '+3'),
    surrounding whitespace, underscores between digits and non-ASCII
    decimal digits such as '٢'.  More digits than
    ``sys.get_int_max_str_digits()``, which ``int`` refuses, is an
    error whose text gives their count, not the digits.
    """
    if not _is_digits(s):
        raise ValidationError(f"{what} must be a non-negative integer, got {_quote(s)}")
    try:
        return int(s)
    except ValueError:
        raise ValidationError(
            f"{what} has {len(s)} digits, more than the "
            f"{sys.get_int_max_str_digits()} that int() converts"
        ) from None


def tau_from_string(s: str) -> Fraction:
    """tau written as '1' or 'p/q', p and q in ASCII decimal digits, q > 0.

    The library, --params and %params headers all read tau through this
    one grammar, the form ``io.params_header`` writes.  A decimal such as
    '0.7' is left out although ``Fraction('0.7')`` is exact: it would be
    a second written form of the same value.  A float tau is rejected by
    SystemParams for another reason: it is already rounded to binary.
    """
    if s == "1":
        return Fraction(1)
    p, _, q = s.partition("/")
    if not (_is_digits(p) and _is_digits(q) and q.strip("0")):
        raise ValidationError(f"tau must be a fraction p/q or 1, got {_quote(s)}")
    return Fraction(int_from_string(p, "tau"), int_from_string(q, "tau"))


def bits_to_string(bits: int, length: int) -> str:
    return format(bits, f"0{length}b")


def _ball_volume(width: int, radius: int) -> int:
    """V(width, radius): the number of width-bit words within Hamming
    distance radius of a given one."""
    return sum(math.comb(width, i) for i in range(radius + 1))


def _flip_masks(width: int, radius: int) -> tuple[int, ...]:
    """Every width-bit mask of weight at most radius, weight 0 first."""
    return tuple(
        sum(1 << p for p in positions)
        for weight in range(radius + 1)
        for positions in combinations(range(width), weight)
    )


def _check_packed(value: object, length: int, what: str) -> None:
    """Require a packed value of ``length`` bits: an int that is not a
    bool (True is not a bit vector), in range.  ``what`` names the value
    in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an int, got {type(value).__name__} {value!r}")
    if not 0 <= value < (1 << length):
        raise WrongLength(f"{what} {value} does not fit in {length} bits")


def _check_strand_shape(length: int, index_len: int) -> None:
    """Require 0 < l < L <= MAX_STRAND_LEN, for l = ``index_len`` and
    L = ``length``: the one shape rule of strands, messages and params."""
    if not 0 < index_len < length:
        raise ValidationError(f"need 0 < l < L, got l={index_len}, L={length}")
    if length > MAX_STRAND_LEN:
        raise ValidationError(f"L={length} exceeds {MAX_STRAND_LEN}")


@dataclass(frozen=True, order=True)
class Strand:
    """A length-``length`` bit vector with an ``index_len``-bit index prefix."""

    bits: int
    length: int
    index_len: int

    def __post_init__(self) -> None:
        _check_strand_shape(self.length, self.index_len)
        _check_packed(self.bits, self.length, "bit value")

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

    def __str__(self) -> str:
        return bits_to_string(self.bits, self.length)


@total_ordering
class Message:
    """A set of strands with pairwise-distinct index fields.

    A message is ``bits``, the packed values of its strands sorted
    ascending, which is the canonical order used everywhere (hashing,
    golden files, pair iteration), and the one (length, index_len) shape
    of its strands.  The ``Strand`` objects are made from them only when
    ``strands`` is first read, and kept.  Equality, order and ``repr``
    are those of the canonical strand tuple; the message is immutable.
    """

    __slots__ = ("bits", "_shape", "_strands", "__weakref__")
    bits: tuple[int, ...]
    _shape: tuple[int, int]

    def __init__(self, strands: Iterable[Strand]) -> None:
        given = tuple(strands)
        ordered = tuple(sorted(given))
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
        _set_bits(self, tuple(_check_strand_values([s.bits for s in given], *shape)))
        _set_shape(self, shape)
        _set_strands(self, ordered)

    @property
    def strands(self) -> tuple[Strand, ...]:
        """The strands in canonical order, made on first read."""
        try:
            return self._strands
        except AttributeError:
            length, index_len = self._shape
            strands = tuple([_strand(b, length, index_len) for b in self.bits])
            _set_strands(self, strands)
            return strands

    @property
    def m(self) -> int:
        return len(self.bits)

    @property
    def length(self) -> int:
        return self._shape[0]

    @property
    def index_len(self) -> int:
        return self._shape[1]

    @property
    def data_len(self) -> int:
        return self._shape[0] - self._shape[1]

    def __str__(self) -> str:
        width = f"0{self.length}b"
        return "{" + ",".join([format(b, width) for b in self.bits]) + "}"

    def __repr__(self) -> str:
        return f"Message(strands={self.strands!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits and self._shape == other._shape

    def __hash__(self) -> int:
        return hash((self.bits, self._shape))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # strand tuples compare first strands as (bits, length, index_len),
        # and reach the second strands only when the shapes are equal
        return (self.bits[0], self._shape, self.bits) < (other.bits[0], other._shape, other.bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the builder: the default path
        # would restore the slots through the refusing __setattr__
        return _unchecked_message, (self.bits, self._shape)


# the slots are filled through their descriptors: the class's own
# __setattr__ refuses, and a descriptor's __set__ costs less than
# object.__setattr__, which looks the name up first
_set_bits = Message.bits.__set__  # type: ignore[attr-defined]
_set_shape = Message._shape.__set__  # type: ignore[attr-defined]
_set_strands = Message._strands.__set__  # type: ignore[attr-defined]


def _check_strand_values(values: Sequence[int], length: int, index_len: int) -> list[int]:
    """The packed values of one message's strands in canonical order,
    after the checks every message passes: every repeated strand is
    reported, the first repeat in the given order, before any shared
    index field, the first pair in canonical order."""
    ordered = sorted(values)
    if len(set(ordered)) != len(ordered):
        seen: set[int] = set()
        for v in values:
            if v in seen:
                raise DuplicateStrand(f"strand {bits_to_string(v, length)} appears twice")
            seen.add(v)
    data_len = length - index_len
    if len({v >> data_len for v in ordered}) != len(ordered):
        # equal index fields sit next to each other in packed order
        for a, b in zip(ordered, ordered[1:]):
            if a >> data_len == b >> data_len:
                raise DuplicateIndex(
                    f"strands {bits_to_string(a, length)} and {bits_to_string(b, length)} "
                    f"share index field {bits_to_string(a >> data_len, index_len)}"
                )
    return ordered


def _message_from_packed(
    values: Sequence[int], length: int, index_len: int, m: int | None = None
) -> Message:
    """The message of these packed strand values, for a caller that has
    checked the shape by ``_check_strand_shape`` and that each value
    fits in ``length`` bits.

    With ``m``, a count other than m raises WrongCount first; then come
    the checks of :class:`Message`, on the ints.
    """
    if m is not None and len(values) != m:
        raise WrongCount(f"expected {m} strands, got {len(values)}")
    if not values:
        raise WrongCount("a message needs at least one strand")
    return _unchecked_message(
        tuple(_check_strand_values(values, length, index_len)), (length, index_len)
    )


def _unchecked_message(bits: tuple[int, ...], shape: tuple[int, int]) -> Message:
    """The Message of packed strand values that are checked, of the
    checked shape (length, index_len), and in canonical order."""
    msg = object.__new__(Message)
    _set_bits(msg, bits)
    _set_shape(msg, shape)
    return msg


def _strand(bits: int, length: int, index_len: int) -> Strand:
    """A Strand of a checked shape and value, made without checking it again."""
    s = object.__new__(Strand)
    # the fields are set one at a time, as the dataclass __init__ sets
    # them: touching __dict__ instead would slow every later attribute
    # read of the object
    object.__setattr__(s, "bits", bits)
    object.__setattr__(s, "length", length)
    object.__setattr__(s, "index_len", index_len)
    return s


@dataclass(frozen=True)
class ReadPool:
    """A multiset of length-``length`` reads, stored as sorted (value, count) pairs."""

    length: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm: dict[int, int] = {}
        for value, count in self.entries:
            if isinstance(count, bool) or not isinstance(count, int) or count <= 0:
                raise ValidationError(f"read multiplicity must be a positive int, got {count!r}")
            _check_packed(value, self.length, "read")
            norm[value] = norm.get(value, 0) + count
        object.__setattr__(self, "entries", tuple(sorted(norm.items())))

    @property
    def size(self) -> int:
        return sum(count for _, count in self.entries)


def _pool_from_counts(length: int, counts: dict[int, int]) -> ReadPool:
    """The pool holding each packed read ``counts[read]`` times, for a
    caller that has checked every read fits in ``length`` bits and every
    count is positive: it is made without checking them again."""
    pool = object.__new__(ReadPool)
    object.__setattr__(pool, "length", length)
    # sorting the int keys alone is cheaper than sorting (read, count) pairs
    reads = sorted(counts)
    object.__setattr__(pool, "entries", tuple(zip(reads, map(counts.__getitem__, reads))))
    return pool


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
    # read of them
    tau_budget: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("m", "length", "index_len", "k", "e_i", "e_d"):
            value = getattr(self, name)
            # bool is an int subclass, but True is not a count
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(
                    f"{name} must be an int, got {type(value).__name__} {value!r}"
                )
        if isinstance(self.tau, str):
            object.__setattr__(self, "tau", tau_from_string(self.tau))
        elif isinstance(self.tau, (int, Fraction)) and not isinstance(self.tau, bool):
            object.__setattr__(self, "tau", Fraction(self.tau))
        else:
            # a float has already been rounded to binary, so floor(tau*K)
            # of its exact value can fall one below the intended budget;
            # bool is an int subclass, but True is not a fraction
            raise ValidationError(
                f"tau must be exact (an int, a Fraction or a 'p/q' string), "
                f"got {type(self.tau).__name__} {self.tau!r}"
            )
        if self.m < 1 or self.k < 1:
            raise ValidationError("M and K must be positive")
        _check_strand_shape(self.length, self.index_len)
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


def split_popcount(x: int, data_len: int) -> tuple[int, int]:
    """Set bits of ``x`` in the index field and in the data field.

    On ``a ^ b`` for two packed strands this is their split distance,
    the quantity every intersection criterion is stated on.  The row
    kernel ``matching._rows_within`` writes these two popcounts out
    inline, since a call per strand pair made code verification about a
    third slower.
    """
    return (x >> data_len).bit_count(), (x & ((1 << data_len) - 1)).bit_count()


def _shape_text(m: int, length: int, index_len: int) -> str:
    return f"(M={m},L={length},l={index_len})"


def check_shape(*messages: Message, params: SystemParams | None = None) -> None:
    """Require the messages to share one (M, L, l) shape, the one ``params`` fixes.

    Raises ShapeMismatch when two messages disagree with each other, and
    ParamMismatch when their common shape disagrees with ``params``.
    """
    shapes = [(len(z.bits), *z._shape) for z in messages]
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


def validate_message(raw: Iterable[int | Strand], params: SystemParams) -> Message:
    """Canonicalize ``raw``, packed ints and Strands, into a message of
    exactly ``params.m`` strands.

    Each item in turn must be a packed value of L bits or a Strand of
    the params' shape, else it raises ValidationError (WrongLength for a
    value out of range or a Strand of another shape); then come
    WrongCount / DuplicateStrand / DuplicateIndex, in that order of
    precedence, from the packed values.
    """
    length, index_len = params.length, params.index_len
    values: list[int] = []
    for item in raw:
        if isinstance(item, Strand):
            if item.length != length or item.index_len != index_len:
                raise WrongLength(
                    f"strand {item} has shape ({item.length},{item.index_len}), "
                    f"expected ({length},{index_len})"
                )
            values.append(item.bits)
        else:
            _check_packed(item, length, "bit value")
            values.append(item)
    return _message_from_packed(values, length, index_len, params.m)


def index_groups(msg: Message) -> dict[int, list[int]]:
    """Index fields of the strands carrying each data field, keyed by data field.

    Each list is ascending, since strands are stored in packed order.
    Two messages share a data-field multiset iff their groups have the
    same keys and the same sizes.
    """
    data_len = msg.data_len
    mask = (1 << data_len) - 1
    groups: dict[int, list[int]] = {}
    for b in msg.bits:
        groups.setdefault(b & mask, []).append(b >> data_len)
    return groups


def has_distinct_data(msg: Message) -> bool:
    """True iff all data fields are distinct (equivalently, restricted to (l, 0))."""
    return len(index_groups(msg)) == msg.m


def in_restricted_space(msg: Message, r1: int, r2: int) -> bool:
    """True iff no two strands are simultaneously within r1 index bits and r2 data bits."""
    data_len = msg.data_len
    return not any(
        (d := split_popcount(x ^ y, data_len))[0] <= r1 and d[1] <= r2
        for x, y in combinations(msg.bits, 2)
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
    """Yield every message once, in a fixed canonical order: index-field
    sets in lexicographic order, and within each the data fields in
    lexicographic order.

    With ``restrict=(r1, r2)`` only messages of the restricted space pass.
    The (unfiltered) space size is checked against ``cap`` up front.
    Each index-field set builds its M columns of 2^(L-l) packed strands
    once, and its messages are the product of those columns.
    """
    count = space_size(params)
    if count > cap:
        raise SpaceTooLarge(count, cap, what="message space")
    shape = (params.length, params.index_len)
    data_len = params.data_len
    data_values = range(1 << data_len)
    for index_combo in combinations(range(1 << params.index_len), params.m):
        # the index fields are distinct and ascending, so every product of
        # the columns is a message in canonical order
        columns = [[ind << data_len | dat for dat in data_values] for ind in index_combo]
        for bits in product(*columns):
            msg = _unchecked_message(bits, shape)
            if restrict is None or in_restricted_space(msg, *restrict):
                yield msg
