"""Regime classification, pairwise ball-intersection decisions, and the
code verifiers, cross-checked against the exhaustive channel oracle."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from dnacode import (
    Answer,
    DuplicateCodeword,
    EdNonZero,
    HallViolator,
    IntersectionResult,
    ParamMismatch,
    Regime,
    RegimeTag,
    ShapeMismatch,
    SystemParams,
    ValidationError,
    Verdict,
    VerdictKind,
    Witness,
    balls_intersect,
    bijection_within_or_violator,
    budget_bound,
    classify_regime,
    enumerate_space,
    in_restricted_space,
    is_dna_correcting,
    is_dna_correcting_ed0,
    oracle_balls_intersect,
)
from dnacode import matching
from dnacode.cli import run
from dnacode.codec import (
    ED0_MIXED_REASON,
    LOW_TAU_REASON,
    UNPROVED_REASON,
    PairTest,
    _validated_code,
)
from dnacode.io import code_lines, write_text
from dnacode.metrics import min_dna_distance, pair_leq, split_distance
from dnacode.model import Strand

from oracles import (
    message_of,
    mk_message,
    mk_params,
    networkx_has_perfect_matching,
    random_message,
    scipy_has_perfect_matching,
)


def test_regime_boundaries():
    cases = [
        ((2, "1"), Regime.TAU_ONE),
        ((2, "1/2"), Regime.HIGH_TAU),      # budget 1, 2*1 >= 2
        ((2, "49/100"), Regime.LOW_TAU),    # budget 0
        ((3, "1"), Regime.TAU_ONE),
        ((3, "2/3"), Regime.HIGH_TAU),      # budget 2
        ((3, "1/2"), Regime.LOW_TAU),       # budget 1, 2*1 < 3
        ((4, "3/4"), Regime.HIGH_TAU),      # budget 3
        ((4, "1/2"), Regime.HIGH_TAU),      # budget 2, boundary case
        ((5, "2/5"), Regime.LOW_TAU),       # budget 2, 4 < 5
        ((6, "5/6"), Regime.HIGH_TAU),      # budget 5 < 6
    ]
    for (k, tau), expected in cases:
        assert classify_regime(mk_params(1, 2, 1, k, tau, 1, 1)) is expected


def test_budget_bound_is_exact():
    assert budget_bound(mk_params(2, 3, 2, 3, "2/3", 1, 0)) == Fraction(6, 3)
    assert budget_bound(mk_params(1, 2, 1, 5, "1/2", 1, 1)) == Fraction(5, 1)
    # budget 2 is NOT strictly below 6/3 = 2: the one-e converse is off
    p = mk_params(2, 3, 2, 3, "2/3", 1, 0)
    assert not p.tau_budget < budget_bound(p)


def test_pair_test_decides_the_budget_bound_in_ints():
    """``PairTest.below_bound`` compares budget*(2M-1) with M*K; it must
    agree with the exact rational ``budget < budget_bound`` everywhere."""
    for m in range(1, 65):
        for k in range(1, 65):
            for budget in range(1, k + 1):
                p = SystemParams(m, 7, 6, k, Fraction(budget, k), 0, 0)
                want = classify_regime(p) is Regime.HIGH_TAU and budget < budget_bound(p)
                assert PairTest(p).below_bound is want, (m, k, budget)


def test_regime_tag_flags_only_in_high_tau():
    RegimeTag(Regime.HIGH_TAU, restricted2e=True)
    with pytest.raises(ValidationError):
        RegimeTag(Regime.TAU_ONE, restricted2e=True)
    with pytest.raises(ValidationError):
        RegimeTag(Regime.LOW_TAU, restricted1e_bound=True)


def test_result_shape_constraints():
    with pytest.raises(ValidationError):
        IntersectionResult(Answer.YES)  # Yes must carry a bijection
    with pytest.raises(ValidationError):
        IntersectionResult(Answer.NO, reason="spurious")
    with pytest.raises(ValidationError):
        IntersectionResult(Answer.UNKNOWN)  # Unknown must carry a reason


def test_tau_one_intersection_examples():
    p = mk_params(1, 3, 2, 2, "1", 1, 0)
    yes = balls_intersect(mk_message(2, "000"), mk_message(2, "110"), p)
    assert yes.answer is Answer.YES
    (a, b), = yes.bijection
    assert pair_leq(split_distance(a, b), (2, 0))

    no = balls_intersect(mk_message(2, "000"), mk_message(2, "001"), p)
    assert no.answer is Answer.NO and no.bijection is None


def test_identical_messages_intersect_with_identity_bijection():
    p = mk_params(2, 3, 2, 2, "1/2", 1, 0)
    z = mk_message(2, "000", "110")
    got = balls_intersect(z, z, p)
    assert got.answer is Answer.YES
    assert got.bijection == tuple((s, s) for s in z.strands)


def test_intersection_validation_errors():
    p = mk_params(1, 3, 1, 2, "1", 1, 0)
    with pytest.raises(ShapeMismatch):
        balls_intersect(mk_message(1, "000"), mk_message(1, "00"), p)
    with pytest.raises(ParamMismatch):
        balls_intersect(mk_message(1, "00"), mk_message(1, "01"), p)


def test_low_tau_is_always_unknown():
    p = mk_params(1, 2, 1, 3, "1/3", 1, 1)  # budget 1, 2 < 3
    got = balls_intersect(mk_message(1, "00"), mk_message(1, "11"), p)
    assert got.answer is Answer.UNKNOWN
    assert got.reason == LOW_TAU_REASON


def test_high_tau_yes_matches_oracle():
    p = mk_params(1, 2, 1, 2, "1/2", 1, 0)
    got = balls_intersect(mk_message(1, "00"), mk_message(1, "10"), p)
    assert got.answer is Answer.YES
    assert oracle_balls_intersect(mk_message(1, "00"), mk_message(1, "10"), p)


def test_high_tau_no_under_restriction_matches_oracle():
    p = mk_params(1, 2, 1, 2, "1/2", 1, 0)
    z1, z2 = mk_message(1, "00"), mk_message(1, "01")
    got = balls_intersect(z1, z2, p)
    assert got.answer is Answer.NO
    assert not oracle_balls_intersect(z1, z2, p)


def test_high_tau_unknown_outside_restrictions():
    # two strands of z1 share a data field, so z1 is outside both
    # restricted spaces; no bijection fits even the doubled bound
    p = mk_params(2, 3, 2, 2, "1/2", 1, 0)
    z1 = mk_message(2, "000", "010")
    z2 = mk_message(2, "001", "100")
    got = balls_intersect(z1, z2, p)
    assert got.answer is Answer.UNKNOWN
    assert got.reason == UNPROVED_REASON


def test_high_tau_one_e_restriction_can_decide():
    # messages restricted at (e_i, e_d) but not at (2e_i, 2e_d); the
    # budget 1 < MK/(2M-1) = 4/3 makes the one-e hypothesis decisive
    p = mk_params(2, 4, 2, 2, "1/2", 1, 1)
    z1 = mk_message(2, "0000", "1111")
    z2 = mk_message(2, "0011", "1100")
    from dnacode import in_restricted_space

    assert in_restricted_space(z1, 1, 1) and in_restricted_space(z2, 1, 1)
    assert not in_restricted_space(z1, 2, 2)
    got = balls_intersect(z1, z2, p)
    assert got.answer in (Answer.NO, Answer.YES)
    if got.answer is Answer.NO:
        assert not oracle_balls_intersect(z1, z2, p)


def two_flag_answer(z1, z2, p, flags1, flags2):
    """The high-tau answer by the rule as the paper states it: a bijection
    within (e_i, e_d) is Yes; without one, both messages avoiding strand
    pairs within (2e_i, 2e_d), or both avoiding them within (e_i, e_d)
    with the budget below M*K/(2M-1), is No; anything else is Unknown."""
    if not isinstance(bijection_within_or_violator(z1, z2, (p.e_i, p.e_d)), HallViolator):
        return Answer.YES
    (two1, one1), (two2, one2) = flags1, flags2
    return Answer.NO if (two1 and two2) or (one1 and one2) else Answer.UNKNOWN


def two_flags(z, p):
    below = p.tau_budget < budget_bound(p)
    return (
        in_restricted_space(z, 2 * p.e_i, 2 * p.e_d),
        below and in_restricted_space(z, p.e_i, p.e_d),
    )


def test_high_tau_answers_follow_the_two_flag_rule_on_every_pair():
    classes = set()
    for shape in [
        (2, 4, 2, 4, "1/2", 1, 0),  # budget 2 < 8/3
        (3, 4, 2, 4, "1/2", 1, 0),  # budget 2 < 12/5
        (2, 4, 2, 4, "3/4", 1, 0),  # budget 3 >= 8/3
        (3, 4, 2, 4, "3/4", 1, 0),  # budget 3 >= 12/5
    ]:
        p = mk_params(*shape)
        assert classify_regime(p) is Regime.HIGH_TAU
        space = list(enumerate_space(p))
        flags = [two_flags(z, p) for z in space]
        classes.update(flags)
        for i, (z1, flags1) in enumerate(zip(space, flags)):
            for z2, flags2 in zip(space[i + 1:], flags[i + 1:]):
                expected = two_flag_answer(z1, z2, p, flags1, flags2)
                assert balls_intersect(z1, z2, p).answer is expected, (shape, z1, z2)
    assert classes == {(True, True), (True, False), (False, True), (False, False)}

def test_verifier_examples():
    p = mk_params(1, 3, 2, 2, "1", 1, 0)
    code = [mk_message(2, "000"), mk_message(2, "001")]
    verdict = is_dna_correcting(code, p)
    assert verdict.kind is VerdictKind.CORRECTING
    assert verdict.regime.regime is Regime.TAU_ONE

    bad = [mk_message(2, "000"), mk_message(2, "110")]
    verdict = is_dna_correcting(bad, p)
    assert verdict.kind is VerdictKind.NOT_CORRECTING
    assert set(verdict.witness.pair) == set(bad)


def test_trivial_codes_are_correcting():
    p = mk_params(1, 3, 1, 2, "1", 1, 0)
    assert is_dna_correcting([], p).kind is VerdictKind.CORRECTING
    assert is_dna_correcting([mk_message(1, "000")], p).kind is VerdictKind.CORRECTING


def test_verifier_rejects_duplicates_and_foreign_shapes():
    p = mk_params(1, 3, 1, 2, "1", 1, 0)
    z = mk_message(1, "000")
    with pytest.raises(DuplicateCodeword):
        is_dna_correcting([z, z], p)
    with pytest.raises(ParamMismatch):
        is_dna_correcting([mk_message(1, "00")], p)


def test_verdict_is_input_order_invariant():
    p = mk_params(1, 3, 2, 2, "1", 1, 0)
    code = [mk_message(2, "000"), mk_message(2, "110"), mk_message(2, "011")]
    verdicts = [is_dna_correcting(perm, p) for perm in (code, code[::-1], [code[1], code[2], code[0]])]
    kinds = {v.kind for v in verdicts}
    assert kinds == {VerdictKind.NOT_CORRECTING}
    pairs = {v.witness.pair for v in verdicts}
    assert len(pairs) == 1  # canonical scan order fixes the witness


def test_witness_replays_through_the_oracle():
    rng = random.Random(71)
    p = mk_params(1, 3, 2, 2, "1", 1, 1)
    seen = 0
    while seen < 10:
        code = []
        while len(code) < 3:
            z = random_message(rng, p)
            if z not in code:
                code.append(z)
        verdict = is_dna_correcting(code, p)
        if verdict.kind is VerdictKind.NOT_CORRECTING:
            seen += 1
            assert oracle_balls_intersect(*verdict.witness.pair, p)
        elif verdict.kind is VerdictKind.CORRECTING:
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not oracle_balls_intersect(code[i], code[j], p)


def test_witness_construction_is_validated():
    z1 = mk_message(2, "000")
    z2 = mk_message(2, "110")
    s1, s2 = z1.strands[0], z2.strands[0]
    Witness((z1, z2), ((s1, s2),), (2, 0))
    with pytest.raises(ValidationError):
        Witness((z1, z2), ((s1, s1),), (2, 0))  # wrong right side
    with pytest.raises(ValidationError):
        Witness((z1, z2), ((s1, s2),), (1, 0))  # exceeds the bound
    with pytest.raises(ValidationError):
        # the right strand's bits with another index length
        Witness((z1, z2), ((s1, Strand(s2.bits, s2.length, 1)),), (2, 0))
    with pytest.raises(ValidationError):
        # the right codeword's bits with another index length
        Witness((z1, mk_message(1, "110")), ((s1, s2),), (2, 0))
    z3, z4 = mk_message(2, "000", "010"), mk_message(2, "100", "110")
    (a, b), (c, d) = z3.strands, z4.strands
    Witness((z3, z4), ((a, c), (b, d)), (2, 1))
    with pytest.raises(ValidationError):
        Witness((z3, z4), ((a, c), (a, d)), (2, 1))  # a repeated strand


def test_verdict_shape_constraints():
    tag = RegimeTag(Regime.TAU_ONE)
    with pytest.raises(ValidationError):
        Verdict(VerdictKind.NOT_CORRECTING, tag)  # missing witness
    with pytest.raises(ValidationError):
        Verdict(VerdictKind.CORRECTING, tag, reason="spurious")


def test_indeterminate_propagates_the_reason():
    p = mk_params(1, 2, 1, 3, "1/3", 1, 1)
    code = [mk_message(1, "00"), mk_message(1, "11")]
    verdict = is_dna_correcting(code, p)
    assert verdict.kind is VerdictKind.INDETERMINATE
    assert verdict.reason == LOW_TAU_REASON


def test_ed0_requires_ed_zero():
    p = mk_params(1, 3, 1, 2, "1", 1, 1)
    with pytest.raises(EdNonZero):
        is_dna_correcting_ed0([mk_message(1, "000")], p)


def test_ed0_examples():
    # tau = 1: distance 2 is within the doubled radius, not correcting
    p = mk_params(1, 3, 2, 2, "1", 1, 0)
    code = [mk_message(2, "000"), mk_message(2, "110")]
    verdict = is_dna_correcting_ed0(code, p)
    assert verdict.kind is VerdictKind.NOT_CORRECTING
    assert verdict.witness.bound == (2, 0)

    # tau = 1: distance 3 > 2 e_i, correcting
    p3 = mk_params(1, 4, 3, 2, "1", 1, 0)
    far = [mk_message(3, "0000"), mk_message(3, "1110")]
    assert is_dna_correcting_ed0(far, p3).kind is VerdictKind.CORRECTING

    # high tau with all-distinct data: distance 2 > e_i = 1, correcting
    ph = mk_params(2, 4, 2, 2, "1/2", 1, 0)
    code = [mk_message(2, "0000", "1101"), mk_message(2, "0001", "1100")]
    verdict = is_dna_correcting_ed0(code, ph)
    assert verdict.kind is VerdictKind.CORRECTING
    assert verdict.regime.regime is Regime.HIGH_TAU


def test_ed0_not_correcting_witness_replays():
    p = mk_params(1, 3, 2, 2, "1/2", 1, 0)
    code = [mk_message(2, "000"), mk_message(2, "100")]  # distance 1 <= e_i
    verdict = is_dna_correcting_ed0(code, p)
    assert verdict.kind is VerdictKind.NOT_CORRECTING
    assert oracle_balls_intersect(*verdict.witness.pair, p)


def test_ed0_small_codes_and_low_tau():
    p = mk_params(1, 3, 2, 2, "1", 1, 0)
    assert is_dna_correcting_ed0([mk_message(2, "000")], p).kind is VerdictKind.CORRECTING
    low = mk_params(1, 3, 2, 3, "1/3", 1, 0)
    verdict = is_dna_correcting_ed0([mk_message(2, "000"), mk_message(2, "001")], low)
    assert verdict.kind is VerdictKind.INDETERMINATE
    assert verdict.reason == LOW_TAU_REASON


def test_ed0_mixed_data_high_tau_is_indeterminate():
    # distance exceeds e_i but a codeword repeats a data value, so the
    # distance bound alone cannot certify the verdict
    p = mk_params(2, 3, 2, 2, "1/2", 1, 0)
    code = [mk_message(2, "000", "010"), mk_message(2, "001", "011")]
    verdict = is_dna_correcting_ed0(code, p)
    assert verdict.kind is VerdictKind.INDETERMINATE
    assert verdict.reason == ED0_MIXED_REASON


def test_ed0_agrees_with_pairwise_verifier_when_both_decide():
    rng = random.Random(73)
    for trial in range(200):
        m, L, l = rng.choice([(1, 3, 1), (1, 3, 2), (2, 3, 2)])
        k, tau = rng.choice([(2, "1"), (2, "1/2"), (3, "2/3")])
        p = mk_params(m, L, l, k, tau, rng.randint(0, l), 0)
        code = []
        while len(code) < rng.choice([2, 3]):
            z = random_message(rng, p)
            if z not in code:
                code.append(z)
        by_distance = is_dna_correcting_ed0(code, p)
        pairwise = is_dna_correcting(code, p)
        if VerdictKind.INDETERMINATE in (by_distance.kind, pairwise.kind):
            continue
        assert by_distance.kind is pairwise.kind, (
            [str(z) for z in code], str(p.tau), p.e_i, by_distance, pairwise,
        )


def test_ed0_witness_is_the_matching_within_its_bound():
    """The e_d = 0 verdict comes from the minimum DNA-distance d of the
    code, at the threshold r = 2e_i (tau = 1) or e_i (high tau): d <= r
    is Not correcting, with the argmin pair and the bijection that
    ``bijection_within_or_violator`` finds within (r, 0); otherwise the
    code is correcting, at high tau only when every codeword's data
    fields are distinct."""
    rng = random.Random(3512)
    witnessed = {Regime.TAU_ONE: 0, Regime.HIGH_TAU: 0}
    for _ in range(300):
        m, length, index_len = rng.choice([(2, 6, 3), (3, 7, 3), (4, 8, 4)])
        k, tau = rng.choice([(2, "1"), (2, "1/2"), (3, "2/3")])
        p = mk_params(m, length, index_len, k, tau, rng.randint(1, 2), 0)
        masks = [0, *(1 << b for b in range(index_len)), 0b11, 0b101]
        code = {random_message(rng, p) for _ in range(rng.randint(1, 3))}
        for z in list(code):
            fields = [(s.index_bits ^ rng.choice(masks), s.data_bits) for s in z.strands]
            if len({index for index, _ in fields}) == m:
                code.add(message_of(p, fields))
        code = list(code)
        rng.shuffle(code)
        verdict = is_dna_correcting_ed0(code, p)
        regime = verdict.regime.regime
        if len(code) < 2:
            assert verdict.kind is VerdictKind.CORRECTING
            continue
        threshold = 2 * p.e_i if regime is Regime.TAU_ONE else p.e_i
        d, (za, zb) = min_dna_distance(tuple(sorted(code)))
        if d <= threshold:
            bound = (threshold, 0)
            assert verdict.kind is VerdictKind.NOT_CORRECTING
            assert verdict.witness == Witness(
                (za, zb), bijection_within_or_violator(za, zb, bound), bound
            )
            witnessed[regime] += 1
        elif regime is Regime.TAU_ONE or all(
            len({s.data_bits for s in z.strands}) == m for z in code
        ):
            assert verdict == Verdict(VerdictKind.CORRECTING, verdict.regime)
        else:
            assert verdict.kind is VerdictKind.INDETERMINATE
            assert verdict.reason == ED0_MIXED_REASON
    assert min(witnessed.values()) > 30, witnessed


def moved_fields(rng, z, bound):
    """Z's strands as (index field, data field), each moved within
    ``bound``: the data field by exactly r2 bits, the index field by up
    to r1 bits wherever that lands on an index field no strand holds."""
    r1, r2 = bound
    taken = {s.index_bits for s in z.strands}
    fields = []
    for s in z.strands:
        index = s.index_bits ^ sum(
            1 << p for p in rng.sample(range(s.index_len), rng.randint(0, r1))
        )
        if index in taken:
            index = s.index_bits
        taken.add(index)
        data = s.data_bits ^ sum(1 << p for p in rng.sample(range(s.data_len), r2))
        fields.append((index, data))
    return fields


def large_m_pairs(rng, params, bound):
    """Three pairs of messages of ``params``: one with a bijection within
    ``bound``, one whose strands all keep a partner but one, and one in
    which two strands of the first message reach only one strand of the
    second."""
    z1 = random_message(rng, params)
    yes = moved_fields(rng, z1, bound)
    # one strand moved far from every strand of Z1: its row is empty
    far = yes[:-1] + [(yes[-1][0], yes[-1][1] ^ ((1 << params.data_len) - 1))]
    # Z1 with its last strand traded for a strand b one index bit from
    # its first strand a: a and b both reach only a in Z1
    a = z1.strands[0]
    taken = {s.index_bits for s in z1.strands}
    b = next(
        b for p in range(params.index_len) if (b := a.index_bits ^ 1 << p) not in taken
    )
    close = [(s.index_bits, s.data_bits) for s in z1.strands[:-1]] + [(b, a.data_bits)]
    return [
        (z1, message_of(params, yes)),
        (z1, message_of(params, far)),
        (message_of(params, close), z1),
    ]


@pytest.mark.parametrize("m, index_len", [(256, 10), (512, 11)])
@pytest.mark.parametrize("tau, e_d", [("1", 1), ("3/4", 0)])
def test_balls_intersect_agrees_with_networkx_and_scipy_at_large_m(m, index_len, tau, e_d):
    pytest.importorskip("networkx")
    pytest.importorskip("scipy")
    params = mk_params(m, 24, index_len, 10, tau, 1, e_d)
    bound = (2, 2 * e_d) if tau == "1" else (1, e_d)
    pairs = large_m_pairs(random.Random(f"{m}-{tau}"), params, bound)
    answers = []
    for x, y in pairs:
        result = balls_intersect(x, y, params)
        within = [
            [
                (s.index_bits ^ t.index_bits).bit_count() <= bound[0]
                and (s.data_bits ^ t.data_bits).bit_count() <= bound[1]
                for t in y.strands
            ]
            for s in x.strands
        ]
        perfect = networkx_has_perfect_matching(within)
        assert scipy_has_perfect_matching(within) is perfect
        assert (result.answer is Answer.YES) is perfect
        if perfect:
            assert [s for s, _ in result.bijection] == list(x.strands)
            assert sorted(t for _, t in result.bijection) == list(y.strands)
            assert all(pair_leq(split_distance(s, t), bound) for s, t in result.bijection)
        elif tau == "1":
            assert result.answer is Answer.NO
        answers.append(result.answer)
    # at high tau the last pair's first message holds two strands within
    # (e_i, e_d), so its missing bijection proves nothing
    last = Answer.NO if tau == "1" else Answer.UNKNOWN
    assert answers == [Answer.YES, Answer.NO, last]


# stand-ins for ``matching._ball_volume`` that force the row kernel's
# path: never below a strand count, so every row is scanned, or never
# above 0, so every row is looked up whenever there are strands to look
# up among and r1 < l; and the probe counts that force the lookup's
# store, a table (no index field is wider than the count) or a dict
KERNEL_VOLUME = {
    "scan": lambda width, radius: math.inf,
    "table": lambda width, radius: 0,
    "dict": lambda width, radius: 0,
}
STORE_PROBES = {"table": math.inf, "dict": 0}


def on_path(outcome, path=None):
    """``outcome()`` with the row kernel's guard as it is (None), forced
    to look up in a table ("table") or a dict ("dict"), or forced to scan
    ("scan"), and the set of stores the kernel's lookups used: empty when
    every row was scanned."""
    stores = set()
    build = matching._index_store

    def recording_store(right, data_len, index_len, probes):
        # a forced table has 2^l slots: keep it small
        assert path != "table" or index_len <= 16
        store = build(right, data_len, index_len, STORE_PROBES.get(path, probes))
        stores.add("table" if isinstance(store, list) else "dict")
        return store

    volume = KERNEL_VOLUME.get(path, matching._ball_volume)
    with mock.patch.object(matching, "_index_store", recording_store), mock.patch.object(
        matching, "_ball_volume", volume
    ):
        return outcome(), stores


def looked_up_and_scanned(outcome):
    """``outcome()`` with the row kernel's guard as it is, and again with
    every row scanned, and the stores the first run used; fails if the
    first run looked no row up, or if a run with every lookup forced
    into a dict gives another outcome than the first."""
    looked_up, stores = on_path(outcome)
    assert stores
    assert on_path(outcome, "dict")[0] == looked_up
    return looked_up, on_path(outcome, "scan")[0], stores


@pytest.mark.parametrize("m", [256, 512])
@pytest.mark.parametrize("tau", ["1", "3/4"])
def test_lookup_rows_give_the_scan_answers_and_witnesses_at_large_m(m, tau):
    params = mk_params(m, 24, 11, 10, tau, 1, 1)
    bound = (2, 2) if tau == "1" else (1, 1)
    pairs = large_m_pairs(random.Random(f"rows-{m}-{tau}"), params, bound)

    def outcome():
        return [
            (balls_intersect(x, y, params), bijection_within_or_violator(x, y, bound))
            for x, y in pairs
        ]

    looked_up, scanned, stores = looked_up_and_scanned(outcome)
    assert looked_up == scanned
    assert "table" in stores
    (yes, bijection), (_, empty_row), (_, violator) = looked_up
    assert yes.answer is Answer.YES and yes.bijection == bijection
    # a Yes, a No on a strand with no partner, and a No that needs the
    # full matching to find its Hall violator
    assert len(empty_row.left_set) == 1 and not empty_row.neighborhood
    assert len(violator.left_set) > 1 and violator.neighborhood


def test_cli_verify_output_is_the_same_with_lookup_and_scan_at_large_m(tmp_path, capsys):
    params = mk_params(512, 24, 11, 10, "1", 1, 1)
    (z1, z2), _, _ = large_m_pairs(random.Random("cli-rows"), params, (2, 2))
    path = tmp_path / "code.txt"
    write_text(path, code_lines([z1, z2], params))

    def outcome():
        code = run(["verify", "--code", str(path)])
        return code, capsys.readouterr()

    looked_up, scanned, stores = looked_up_and_scanned(outcome)
    assert looked_up == scanned
    assert "table" in stores
    code, captured = looked_up
    assert code == 0 and captured.out.startswith("NOT_CORRECTING\n")
    assert "map: " in captured.out


PRECEDENCE_PARAMS = mk_params(2, 3, 2, 2, 1, 1, 0)
_Z = mk_message(2, "000", "110")
_OTHER = {
    "l": mk_message(1, "000", "110"),  # the same packed strands, l = 1
    "M": mk_message(2, "000"),
    "L": mk_message(2, "0000", "1100"),
}
_DUPLICATE = (DuplicateCodeword, "codewords must be pairwise distinct")


def _shapes(a, b):
    return ShapeMismatch, f"messages have shapes {a} and {b}"


@pytest.mark.parametrize(
    "code, by_distance, by_verifier",
    [
        ([_Z, _OTHER["l"], _Z], _DUPLICATE, _shapes("(M=2,L=3,l=2)", "(M=2,L=3,l=1)")),
        ([mk_message(2, "001", "111"), _Z, _OTHER["M"], _Z], _DUPLICATE,
         _shapes("(M=2,L=3,l=2)", "(M=1,L=3,l=2)")),
        ([_Z, _Z, _OTHER["L"]], _DUPLICATE, _shapes("(M=2,L=3,l=2)", "(M=2,L=4,l=2)")),
        ([_OTHER["l"], _Z, _OTHER["l"]], _DUPLICATE, _shapes("(M=2,L=3,l=1)", "(M=2,L=3,l=2)")),
        # equal packed strands of two shapes are two codewords, not a repeat
        ([_Z, _OTHER["l"]], *[_shapes("(M=2,L=3,l=2)", "(M=2,L=3,l=1)")] * 2),
        ([_OTHER["L"], _OTHER["L"]], _DUPLICATE,
         (ParamMismatch, "message shape (M=2,L=4,l=2) does not match params (M=2,L=3,l=2)")),
    ],
)
def test_codeword_checks_keep_their_precedence(code, by_distance, by_verifier):
    """min_dna_distance looks for a repeated codeword before it checks
    shapes; the verifiers check shapes first."""
    for check, want in [
        (lambda: min_dna_distance(code), by_distance),
        (lambda: is_dna_correcting(code, PRECEDENCE_PARAMS), by_verifier),
        (lambda: is_dna_correcting_ed0(code, PRECEDENCE_PARAMS), by_verifier),
    ]:
        with pytest.raises(ValidationError) as caught:
            check()
        assert (type(caught.value), str(caught.value)) == want


def test_validated_code_keeps_the_order_of_sorted_codewords():
    rng = random.Random(3301)
    for _ in range(200):
        length = rng.randint(2, 10)
        index_len = rng.randint(1, length - 1)
        p = mk_params(rng.randint(1, min(4, 1 << index_len)), length, index_len, 2, 1, 1, 0)
        code = list({random_message(rng, p) for _ in range(rng.randint(1, 30))})
        rng.shuffle(code)
        assert _validated_code(code, p) == tuple(sorted(code))
