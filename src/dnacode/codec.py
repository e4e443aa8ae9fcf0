"""Decision procedures for ball intersection and code verification.

Everything is driven by the per-strand corruption budget floor(tau*K):

  - budget = K (tau = 1): balls intersect iff a strand bijection exists
    within (2e_i, 2e_d).  Always decisive.
  - K/2 <= budget < K (high tau): a bijection within (e_i, e_d) forces
    intersection.  The converse holds when both messages avoid close
    strand pairs: no two strands within (2e_i, 2e_d), or none within
    (e_i, e_d) provided budget < M*K/(2M-1).  Outside those restricted
    spaces a missing bijection proves nothing, so the answer is Unknown
    rather than an overclaim.
  - budget < K/2 (low tau): no analytic criterion is implemented; the
    channel oracle is the only decision procedure.

For e_d = 0 the same tests reduce to a single DNA-distance computation:
a pair admits a bijection within (r, 0) iff its DNA-distance is at most
r, so min_dna_distance decides whole codes at once.

A code is verified without deciding most of its pairs.  A Yes needs a
bijection within the bound (r1, r2), so the first strand a of codeword i
needs a partner b in codeword j with index fields within r1 and data
fields within r2.  The row kernel of ``matching`` gives a's partners
among the strands of the later codewords, by index-field lookup or by
scan, and so names every j that can answer Yes with i.  Only these
candidate pairs are decided, in canonical order, so the first Yes, and
its bijection, is the one the all-pairs loop finds.
Every other pair has the one-strand Hall violator ({a}, {}): at tau = 1
it is No, and at high tau it is No exactly when its flags prove No, the
same rule a candidate pair without a bijection meets.  So once no pair
answers Yes, the code is Indeterminate iff some pair of its codewords
fails the flag rule, which the four classes of flags decide in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Optional, Sequence

from .errors import DuplicateCodeword, EdNonZero, ValidationError
from .matching import (
    Bijection,
    HallViolator,
    _rows_within,
    bijection_of,
    exists_bijection_within,
    has_perfect_matching,
    match_within,
    near_masks,
    packed,
)
from .metrics import min_dna_distance, pair_leq, split_distance
from .model import (
    Message,
    SystemParams,
    check_shape,
    has_distinct_data,
    in_restricted_space,
)

UNPROVED_REASON = "necessity unproved outside restricted spaces"
LOW_TAU_REASON = "regime not characterized; use oracle"
ED0_MIXED_REASON = "distance bound sufficient only for distinct-data codes"


class Regime(Enum):
    TAU_ONE = "tau-one"
    HIGH_TAU = "high-tau"
    LOW_TAU = "low-tau"


def classify_regime(params: SystemParams) -> Regime:
    budget = params.tau_budget
    if budget == params.k:
        return Regime.TAU_ONE
    if 2 * budget >= params.k:
        return Regime.HIGH_TAU
    return Regime.LOW_TAU


def budget_bound(params: SystemParams) -> Fraction:
    """Exact rational M*K/(2M-1); budgets strictly below it make strand
    avoidance at (e_i, e_d) enough for the high-tau converse."""
    return Fraction(params.m * params.k, 2 * params.m - 1)


@dataclass(frozen=True)
class RegimeTag:
    """Regime plus which restricted-space hypotheses the whole code meets."""

    regime: Regime
    restricted2e: bool = False
    restricted1e_bound: bool = False

    def __post_init__(self) -> None:
        if self.regime is not Regime.HIGH_TAU and (
            self.restricted2e or self.restricted1e_bound
        ):
            raise ValidationError("restricted-space flags apply only to high tau")


class Answer(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class IntersectionResult:
    """Yes carries a certifying bijection; Unknown carries a reason."""

    answer: Answer
    bijection: Optional[Bijection] = None
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.bijection is not None) != (self.answer is Answer.YES):
            raise ValidationError("bijection present iff the answer is Yes")
        if (self.reason is not None) != (self.answer is Answer.UNKNOWN):
            raise ValidationError("reason present iff the answer is Unknown")


Flags = tuple[bool, bool]
"""A message's restricted-space hypotheses, see ``PairTest.restricted``."""


def _flags_prove_no(flags1: Flags, flags2: Flags) -> bool:
    """Whether, at high tau, a missing bijection proves No for two messages
    with these flags."""
    (two1, one1), (two2, one2) = flags1, flags2
    return (two1 and two2) or (one1 and one2)


class PairTest:
    """The pair decision, with everything that depends on the params only
    computed once, so a code or space pays for it once and not per pair.

    ``decide`` answers one pair and gives the bijection of a Yes; the
    verifier runs it on the pairs ``candidates`` screens in.  The search
    reads the answer alone, row by row, through ``no_row``.
    """

    def __init__(self, params: SystemParams) -> None:
        self.regime = classify_regime(params)
        self.m = params.m
        self.index_len = params.index_len
        self.data_len = params.data_len
        one_e = (params.e_i, params.e_d)
        self.two_e = (2 * params.e_i, 2 * params.e_d)
        # the bound a bijection must meet to prove Yes
        self.bound = self.two_e if self.regime is Regime.TAU_ONE else one_e
        # at high tau, avoidance at (e_i, e_d) proves No only for budgets
        # below M*K/(2M-1)
        below = self.regime is Regime.HIGH_TAU and params.tau_budget < budget_bound(params)
        self.one_e = one_e if below else None

    def restricted(self, z: Message) -> Flags:
        """Whether no two strands of Z lie within (2e_i, 2e_d), and whether
        the budget is below M*K/(2M-1) and none lie within (e_i, e_d)."""
        return (
            in_restricted_space(z, *self.two_e),
            self.one_e is not None and in_restricted_space(z, *self.one_e),
        )

    def flags(self, messages: Sequence[Message]) -> list[Flags]:
        """Each message's ``restricted`` flags at high tau, the only regime
        that reads them; empty otherwise."""
        if self.regime is not Regime.HIGH_TAU:
            return []
        return [self.restricted(z) for z in messages]

    def decide(
        self,
        z1: Message,
        z2: Message,
        bits1: tuple[int, ...],
        bits2: tuple[int, ...],
        flags: Optional[tuple[Flags, Flags]] = None,
    ) -> tuple[Answer, Optional[Bijection]]:
        """The answer for two distinct messages of the params' shape, given
        their packed strands, and a bijection with Yes.

        At high tau a No needs both messages' flags; when they are not
        given they are computed here, once no bijection has been found.
        """
        if self.regime is Regime.LOW_TAU:
            return Answer.UNKNOWN, None
        match = match_within(bits1, bits2, self.data_len, self.bound, self.index_len)
        if not isinstance(match, HallViolator):
            return Answer.YES, bijection_of(z1, z2, match)
        if self.regime is Regime.TAU_ONE:
            return Answer.NO, None
        if _flags_prove_no(*(flags or (self.restricted(z1), self.restricted(z2)))):
            return Answer.NO, None
        return Answer.UNKNOWN, None

    def candidates(self, bits: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
        """The pairs i < j of messages, given by their packed strands, in
        which the first strand of message i has a partner within the bound
        in message j, in order: the only pairs that can answer Yes.

        The row kernel ``_rows_within`` gives, for the first strand of each
        message but the last, the ascending positions of its partners among
        the strands of messages 1..n-1, looked up by index field or scanned
        by its one guard rule.  Every message has M strands, so position p
        lies in message 1 + p // M.
        """
        first = [z[0] for z in bits[:-1]]
        later = [b for z in bits[1:] for b in z]
        rows = _rows_within(first, later, self.data_len, self.bound, self.index_len)
        m = self.m
        for i, row in enumerate(rows):
            for j in dict.fromkeys(1 + p // m for p in row):
                if j > i:
                    yield i, j

    def no_row(self, messages: Sequence[Message]) -> Callable[[int, int], int]:
        """The pair decision over a space of distinct messages, as a row
        function: ``row(i, among)`` is the mask of the j in ``among`` (a
        bitmask of positions in ``messages``, i not among them) whose pair
        with message i ``decide`` answers No.  No bijection is built, and
        only the pairs a row is asked for are decided.

        The set-up is paid once per space.  Each distinct strand value a
        of the messages gets one bit, near[a] is the mask of the values
        within the bound of a, and a message's own mask holds the bits of
        its strands.  Row u of pair (i, j) is then near[a_u] & own[j], and
        the pair answers No iff these rows admit no perfect matching.  At
        high tau a No needs ``(two1 and two2) or (one1 and one2)``, so
        each class of flags gets the mask of the messages it may answer No
        with, and a row drops the rest of ``among`` before any matching.
        """
        if self.regime is Regime.LOW_TAU:
            return lambda i, among: 0
        bits = [packed(z) for z in messages]
        values = sorted({a for strands in bits for a in strands})
        near = dict(zip(values, near_masks(values, self.data_len, self.bound, self.index_len)))
        bit = {a: 1 << p for p, a in enumerate(values)}
        own = [sum(bit[a] for a in strands) for strands in bits]
        flags = self.flags(messages)
        partners = {
            flags1: sum(
                1 << j for j, flags2 in enumerate(flags) if _flags_prove_no(flags1, flags2)
            )
            for flags1 in set(flags)
        }

        def row(i: int, among: int) -> int:
            if flags:
                among &= partners[flags[i]]
            near_i = [near[a] for a in bits[i]]
            no = 0
            while among:
                low = among & -among
                among ^= low
                mask = own[low.bit_length() - 1]
                rows = [r & mask for r in near_i]
                if not (all(rows) and has_perfect_matching(rows)):
                    no |= low
            return no

        return row


def balls_intersect(z1: Message, z2: Message, params: SystemParams) -> IntersectionResult:
    """Decide whether the error balls of Z1 and Z2 intersect.

    Decisive in the tau = 1 regime; in the high-tau regime decisive for
    Yes always and for No when both messages satisfy a restricted-space
    hypothesis (checked per pair); Unknown otherwise and in low tau.
    """
    check_shape(z1, z2, params=params)
    if z1 == z2:
        return IntersectionResult(Answer.YES, tuple((s, s) for s in z1.strands))
    test = PairTest(params)
    answer, bij = test.decide(z1, z2, packed(z1), packed(z2))
    if answer is Answer.UNKNOWN:
        reason = LOW_TAU_REASON if test.regime is Regime.LOW_TAU else UNPROVED_REASON
        return IntersectionResult(answer, reason=reason)
    return IntersectionResult(answer, bij)


class VerdictKind(Enum):
    CORRECTING = "correcting"
    NOT_CORRECTING = "not-correcting"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Witness:
    """A codeword pair whose balls provably intersect, with the bijection
    certifying it and the bound the bijection satisfies."""

    pair: tuple[Message, Message]
    bijection: Bijection
    bound: tuple[int, int]

    def __post_init__(self) -> None:
        z1, z2 = self.pair
        lefts = [x for x, _ in self.bijection]
        rights = [y for _, y in self.bijection]
        if sorted(lefts) != list(z1.strands) or sorted(rights) != list(z2.strands):
            raise ValidationError("witness bijection must pair the two codewords' strands")
        for x, y in self.bijection:
            if not pair_leq(split_distance(x, y), self.bound):
                raise ValidationError(
                    f"witness pair {x} -> {y} exceeds the bound {self.bound}"
                )


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    regime: RegimeTag
    witness: Optional[Witness] = None
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.kind is VerdictKind.NOT_CORRECTING):
            raise ValidationError("witness present iff the verdict is not-correcting")
        if (self.reason is not None) != (self.kind is VerdictKind.INDETERMINATE):
            raise ValidationError("reason present iff the verdict is indeterminate")


def is_dna_correcting(code: Sequence[Message], params: SystemParams) -> Verdict:
    """Verify a code by ball intersection on its unordered pairs.

    Correcting iff every pair answers No; NotCorrecting with the first
    Yes pair (canonical order) as witness; Indeterminate when some pair
    is Unknown and none is Yes.  Codes of size 0 or 1 are vacuously
    correcting.

    Only the pairs ``PairTest.candidates`` screens in are decided: in
    every other pair the first codeword's first strand has no partner
    within the bound, so no bijection exists and the pair cannot answer
    Yes.  Such a pair is No at tau = 1, and at high tau it is No iff its
    flags prove No, as is a candidate pair without a bijection.  So with
    no Yes, the verdict is Indeterminate iff some pair fails the flag
    rule, counted over the message classes of equal flags.
    """
    codewords = _validated_code(code, params)
    test = PairTest(params)
    flags = test.flags(codewords)
    tag = _regime_tag(test, flags)
    if len(codewords) < 2:
        return Verdict(VerdictKind.CORRECTING, tag)
    if test.regime is Regime.LOW_TAU:
        return Verdict(VerdictKind.INDETERMINATE, tag, reason=LOW_TAU_REASON)
    bits = [packed(z) for z in codewords]
    for i, j in test.candidates(bits):
        pair_flags = (flags[i], flags[j]) if flags else None
        answer, bij = test.decide(codewords[i], codewords[j], bits[i], bits[j], pair_flags)
        if answer is Answer.YES:
            assert bij is not None
            witness = Witness((codewords[i], codewords[j]), bij, test.bound)
            return Verdict(VerdictKind.NOT_CORRECTING, tag, witness=witness)
    if _some_pair_unproved(flags):
        return Verdict(VerdictKind.INDETERMINATE, tag, reason=UNPROVED_REASON)
    return Verdict(VerdictKind.CORRECTING, tag)


def _some_pair_unproved(flags: Sequence[Flags]) -> bool:
    """Whether, among two or more messages with these high-tau flags, some
    two fail the rule that lets a missing bijection prove No; False when
    no flags are given, as in every other regime.

    The rule reads the flags only, so the classes of equal flags decide
    it: at most four classes, and one pass over the messages to find them.
    A class fails the rule with itself only when both its flags are False,
    and then it fails with every other message as well, so a class that
    holds a single message needs no count.
    """
    return any(
        not _flags_prove_no(flags1, flags2)
        for flags1, flags2 in combinations_with_replacement(set(flags), 2)
    )


def is_dna_correcting_ed0(code: Sequence[Message], params: SystemParams) -> Verdict:
    """Verify a code with e_d = 0 through its minimum DNA-distance.

    tau = 1: correcting iff D(C) > 2e_i.  High tau: D(C) <= e_i proves
    not correcting; D(C) > e_i proves correcting when all codewords have
    pairwise-distinct data fields, and is indeterminate otherwise.
    Agrees with is_dna_correcting wherever both are decisive.
    """
    if params.e_d != 0:
        raise EdNonZero(f"this test requires e_d = 0, got e_d = {params.e_d}")
    codewords = _validated_code(code, params)
    test = PairTest(params)
    tag = _regime_tag(test, test.flags(codewords))
    if len(codewords) < 2:
        return Verdict(VerdictKind.CORRECTING, tag)
    if tag.regime is Regime.LOW_TAU:
        return Verdict(VerdictKind.INDETERMINATE, tag, reason=LOW_TAU_REASON)
    distance, (za, zb) = min_dna_distance(codewords)
    threshold = 2 * params.e_i if tag.regime is Regime.TAU_ONE else params.e_i
    if distance <= threshold:
        bij = exists_bijection_within(za, zb, (threshold, 0))
        if bij is None:
            raise AssertionError("DNA-distance <= r guarantees a bijection within (r, 0)")
        witness = Witness((za, zb), bij, (threshold, 0))
        return Verdict(VerdictKind.NOT_CORRECTING, tag, witness=witness)
    if tag.regime is Regime.TAU_ONE or all(has_distinct_data(z) for z in codewords):
        return Verdict(VerdictKind.CORRECTING, tag)
    return Verdict(VerdictKind.INDETERMINATE, tag, reason=ED0_MIXED_REASON)


def _validated_code(code: Sequence[Message], params: SystemParams) -> tuple[Message, ...]:
    check_shape(*code, params=params)
    if len(set(code)) != len(code):
        raise DuplicateCodeword("codewords must be pairwise distinct")
    return tuple(sorted(code))


def _regime_tag(test: PairTest, flags: Sequence[Flags]) -> RegimeTag:
    if test.regime is not Regime.HIGH_TAU:
        return RegimeTag(test.regime)
    return RegimeTag(
        test.regime,
        restricted2e=all(two for two, _ in flags),
        restricted1e_bound=test.one_e is not None and all(one for _, one in flags),
    )
