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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DuplicateCodeword, EdNonZero, ValidationError
from .matching import Bijection, exists_bijection_within
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


def balls_intersect(z1: Message, z2: Message, params: SystemParams) -> IntersectionResult:
    """Decide whether the error balls of Z1 and Z2 intersect.

    Decisive in the tau = 1 regime; in the high-tau regime decisive for
    Yes always and for No when both messages satisfy a restricted-space
    hypothesis (checked per pair); Unknown otherwise and in low tau.
    """
    check_shape(z1, z2, params=params)
    if z1 == z2:
        return IntersectionResult(Answer.YES, tuple((s, s) for s in z1.strands))
    regime = classify_regime(params)
    if regime is Regime.LOW_TAU:
        return IntersectionResult(Answer.UNKNOWN, reason=LOW_TAU_REASON)
    if regime is Regime.TAU_ONE:
        bij = exists_bijection_within(z1, z2, (2 * params.e_i, 2 * params.e_d))
        if bij is None:
            return IntersectionResult(Answer.NO)
        return IntersectionResult(Answer.YES, bij)
    one_e = (params.e_i, params.e_d)
    bij = exists_bijection_within(z1, z2, one_e)
    if bij is not None:
        return IntersectionResult(Answer.YES, bij)
    two_e = (2 * params.e_i, 2 * params.e_d)
    decisive = (
        in_restricted_space(z1, *two_e) and in_restricted_space(z2, *two_e)
    ) or (
        params.tau_budget < budget_bound(params)
        and in_restricted_space(z1, *one_e)
        and in_restricted_space(z2, *one_e)
    )
    if decisive:
        return IntersectionResult(Answer.NO)
    return IntersectionResult(Answer.UNKNOWN, reason=UNPROVED_REASON)


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
    """Verify a code by testing ball intersection on every unordered pair.

    Correcting iff every pair answers No; NotCorrecting with the first
    Yes pair (canonical order) as witness; Indeterminate when some pair
    is Unknown and none is Yes.  Codes of size 0 or 1 are vacuously
    correcting.
    """
    codewords = _validated_code(code, params)
    tag = _regime_tag(codewords, params)
    if tag.regime is Regime.TAU_ONE:
        bound = (2 * params.e_i, 2 * params.e_d)
    else:
        bound = (params.e_i, params.e_d)
    first_unknown: Optional[str] = None
    for i in range(len(codewords)):
        for j in range(i + 1, len(codewords)):
            result = balls_intersect(codewords[i], codewords[j], params)
            if result.answer is Answer.YES:
                assert result.bijection is not None
                witness = Witness((codewords[i], codewords[j]), result.bijection, bound)
                return Verdict(VerdictKind.NOT_CORRECTING, tag, witness=witness)
            if result.answer is Answer.UNKNOWN and first_unknown is None:
                first_unknown = result.reason
    if first_unknown is not None:
        return Verdict(VerdictKind.INDETERMINATE, tag, reason=first_unknown)
    return Verdict(VerdictKind.CORRECTING, tag)


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
    tag = _regime_tag(codewords, params)
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


def _regime_tag(code: Sequence[Message], params: SystemParams) -> RegimeTag:
    regime = classify_regime(params)
    if regime is not Regime.HIGH_TAU:
        return RegimeTag(regime)
    two_e = (2 * params.e_i, 2 * params.e_d)
    one_e = (params.e_i, params.e_d)
    return RegimeTag(
        regime,
        restricted2e=all(in_restricted_space(z, *two_e) for z in code),
        restricted1e_bound=params.tau_budget < budget_bound(params)
        and all(in_restricted_space(z, *one_e) for z in code),
    )
