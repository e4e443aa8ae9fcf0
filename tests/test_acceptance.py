"""Acceptance gate: nine criteria, each a test that prints one
"ACCEPTANCE n (name): PASS/FAIL" line (echoed in the terminal summary).

Ground truth throughout is exhaustive enumeration: the channel-level
ball oracle for intersection questions and the brute-force oracles in
``oracles.py`` for matching, flow, distance, and clique questions.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from dnacode import (
    Answer,
    Strand,
    Strategy,
    VerdictKind,
    balls_intersect,
    budget_bound,
    build_graph,
    dna_distance,
    enumerate_space,
    in_ball,
    in_restricted_space,
    is_dna_correcting,
    is_dna_correcting_ed0,
    max_code,
    oracle_balls_intersect,
    sample_ball,
)
from dnacode.cli import run as cli_run
from dnacode.matching import (
    HallViolator,
    assignment_feasible,
    bijection_within_or_violator,
    bottleneck_bijection,
)
from dnacode.metrics import pair_leq, split_distance

from conftest import ACCEPTANCE_RESULTS
from oracles import (
    all_bipartite_graphs,
    is_optimal_bottleneck,
    max_matching,
    mk_params,
    oracle_assignment_feasible,
    oracle_dna_distance,
    oracle_max_clique_size,
    oracle_max_matching_size,
    random_graph,
    random_message,
    random_same_ms_pair,
    reference_pool,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {number} ({name}): FAIL"
        print(line)
        ACCEPTANCE_RESULTS.append(line)
        raise
    line = f"ACCEPTANCE {number} ({name}): PASS"
    print(line)
    ACCEPTANCE_RESULTS.append(line)


MATRIX_SHAPES = [(1, 2, 1), (2, 3, 2), (2, 3, 1)]
HIGH_TAU_BUDGETS = [(2, 1), (3, 2)]  # (K, floor(tau*K)) with K/2 <= budget < K


@lru_cache(maxsize=None)
def space(m, length, index_len):
    probe = mk_params(m, length, index_len, 2, 1, 0, 0)
    return tuple(enumerate_space(probe))


def error_combos(length, index_len):
    return [
        (ei, ed)
        for ei in range(index_len + 1)
        for ed in range(length - index_len + 1)
    ]


_ORACLE_MEMO = {}


def ground_truth(z1, z2, params):
    if z2 < z1:
        z1, z2 = z2, z1
    key = (
        params.m, params.length, params.index_len, params.k,
        params.tau, params.e_i, params.e_d, z1, z2,
    )
    if key not in _ORACLE_MEMO:
        _ORACLE_MEMO[key] = oracle_balls_intersect(z1, z2, params)
    return _ORACLE_MEMO[key]


def test_criterion_1_tau_one_exactness():
    started = time.monotonic()
    with criterion(1, "tau-one exactness"):
        compared = 0
        for m, length, index_len in MATRIX_SHAPES:
            messages = space(m, length, index_len)
            for ei, ed in error_combos(length, index_len):
                params = mk_params(m, length, index_len, 2, "1", ei, ed)
                for i, z1 in enumerate(messages):
                    for z2 in messages[i + 1:]:
                        got = balls_intersect(z1, z2, params)
                        assert got.answer is not Answer.UNKNOWN
                        assert (got.answer is Answer.YES) == ground_truth(z1, z2, params)
                        compared += 1
        assert compared == 24 + 6 * 276 + 6 * 120
        assert time.monotonic() - started < 300


def test_criterion_2_high_tau_restricted_exactness():
    started = time.monotonic()
    with criterion(2, "high-tau restricted exactness"):
        decided = 0
        for m, length, index_len in MATRIX_SHAPES:
            messages = space(m, length, index_len)
            for k, budget in HIGH_TAU_BUDGETS:
                for ei, ed in error_combos(length, index_len):
                    params = mk_params(m, length, index_len, k, Fraction(budget, k), ei, ed)
                    assert params.tau_budget == budget
                    sweeps = [(2 * ei, 2 * ed)]
                    if params.tau_budget < budget_bound(params):
                        sweeps.append((ei, ed))
                    for radii in sweeps:
                        kept = [z for z in messages if in_restricted_space(z, *radii)]
                        for i, z1 in enumerate(kept):
                            for z2 in kept[i + 1:]:
                                got = balls_intersect(z1, z2, params)
                                assert got.answer is not Answer.UNKNOWN
                                assert (got.answer is Answer.YES) == ground_truth(
                                    z1, z2, params
                                )
                                decided += 1
        assert decided > 1000  # the sweeps are far from vacuous
        assert time.monotonic() - started < 900


def test_criterion_3_high_tau_sufficiency():
    with criterion(3, "high-tau sufficiency"):
        witnessed = 0
        for m, length, index_len in MATRIX_SHAPES:
            messages = space(m, length, index_len)
            for k, budget in HIGH_TAU_BUDGETS:
                for ei, ed in error_combos(length, index_len):
                    params = mk_params(m, length, index_len, k, Fraction(budget, k), ei, ed)
                    for i, z1 in enumerate(messages):
                        for z2 in messages[i + 1:]:
                            bij = bijection_within_or_violator(z1, z2, (ei, ed))
                            if not isinstance(bij, HallViolator):
                                assert ground_truth(z1, z2, params)
                                witnessed += 1
        assert witnessed > 1000


def test_criterion_4_corollary_agreement():
    with criterion(4, "distance-test agreement at ed=0"):
        regimes = [(2, "1"), (2, "1/2"), (3, "2/3")]
        both_decided = 0
        for m, length, index_len in MATRIX_SHAPES:
            messages = space(m, length, index_len)
            rng = random.Random(10_000 * m + 100 * length + index_len)
            for k, tau in regimes:
                for ei in range(index_len + 1):
                    params = mk_params(m, length, index_len, k, tau, ei, 0)
                    codes = [list(pair) for pair in combinations(messages, 2)]
                    for _ in range(500):
                        code = rng.sample(messages, 3)
                        codes.append(code)
                    for code in codes:
                        by_distance = is_dna_correcting_ed0(code, params)
                        pairwise = is_dna_correcting(code, params)
                        if VerdictKind.INDETERMINATE in (by_distance.kind, pairwise.kind):
                            continue
                        assert by_distance.kind is pairwise.kind
                        both_decided += 1
        assert both_decided > 5000


def test_criterion_5_metric_axioms():
    started = time.monotonic()
    with criterion(5, "metric axioms"):
        rng = random.Random(501)
        probe = mk_params(3, 6, 3, 2, 1, 1, 1)
        checked = 0
        while checked < 1000:
            z1, z2 = random_same_ms_pair(rng, probe)
            _, z3 = random_same_ms_pair(rng, probe)
            if sorted(s.data_bits for s in z3.strands) != sorted(
                s.data_bits for s in z1.strands
            ):
                continue
            d12, d13, d23 = (
                dna_distance(z1, z2),
                dna_distance(z1, z3),
                dna_distance(z2, z3),
            )
            assert d12 == oracle_dna_distance(z1, z2)
            assert d13 == oracle_dna_distance(z1, z3)
            assert (d12 == 0) == (z1 == z2)
            assert d12 == dna_distance(z2, z1)
            assert d13 <= d12 + d23
            checked += 1

        for _ in range(10_000):
            x, y, z = (Strand(rng.randrange(64), 6, 3) for _ in range(3))
            dxy = split_distance(x, y)
            assert (dxy == (0, 0)) == (x == y)
            assert dxy == split_distance(y, x)
            dxz, dyz = split_distance(x, z), split_distance(y, z)
            assert pair_leq(dxz, (dxy.idx + dyz.idx, dxy.dat + dyz.dat))
        assert time.monotonic() - started < 60


def test_criterion_6_matching_and_flow_oracles():
    with criterion(6, "matching and flow agree with enumeration"):
        for left in range(1, 5):
            for right in range(1, 5):
                for g in all_bipartite_graphs(left, right):
                    match_left, _ = max_matching(g)
                    size = sum(1 for v in match_left if v >= 0)
                    assert size == oracle_max_matching_size(g)

        rng = random.Random(601)
        for _ in range(1000):
            g = random_graph(rng, max_side=6)
            match_left, _ = max_matching(g)
            size = sum(1 for v in match_left if v >= 0)
            assert size == oracle_max_matching_size(g)

        for _ in range(1000):
            n = rng.randint(1, 6)
            left = rng.sample(range(64), n)
            right = rng.sample(range(64), n)
            assert is_optimal_bottleneck(left, right, bottleneck_bijection(left, right))

        checked = 0
        while checked < 1000:
            m = rng.choice([1, 2, 2, 3, 4])
            k = rng.choice([2, 3, 4])
            while m * k > 8:
                k -= 1
            low = max(1, (m - 1).bit_length())
            length = rng.randint(low + 1, 4)
            index_len = rng.randint(low, length - 1)
            if m > (1 << index_len):
                continue
            params = mk_params(
                m, length, index_len, k,
                f"{rng.randint(1, k)}/{k}",
                rng.randint(0, index_len),
                rng.randint(0, length - index_len),
            )
            z = random_message(rng, params)
            reads = [
                rng.randrange(1 << length)
                if rng.random() < 0.5
                else rng.choice(z.strands).bits
                for _ in range(m * k)
            ]
            pool = reference_pool(reads, length)
            assert assignment_feasible(pool, z, params) == oracle_assignment_feasible(
                pool, z, params
            )
            checked += 1


def test_criterion_7_sampler_soundness():
    with criterion(7, "sampler soundness"):
        rng = random.Random(701)
        grid = [
            mk_params(1, 2, 1, 2, "1", 1, 1),
            mk_params(1, 3, 2, 3, "2/3", 1, 1),
            mk_params(2, 3, 2, 2, "1/2", 2, 1),
            mk_params(2, 3, 1, 4, "3/4", 1, 2),
            mk_params(2, 4, 2, 3, "1/3", 1, 1),
            mk_params(3, 4, 2, 2, "1", 2, 2),
        ]
        for seed in range(1000):
            params = grid[seed % len(grid)]
            z = random_message(rng, params)
            sample = sample_ball(z, params, seed=seed)
            assert sample.pool.size == params.pool_size
            assert in_ball(sample.pool, z, params)

        noiseless = mk_params(2, 3, 2, 3, "1", 0, 0)
        for seed in range(100):
            z = random_message(rng, noiseless)
            sample = sample_ball(z, noiseless, seed=seed)
            assert sample.pool.entries == tuple((s.bits, 3) for s in z.strands)


def test_criterion_8_search_soundness():
    with criterion(8, "search soundness"):
        small = [
            (mk_params(1, 2, 1, 2, "1", 1, 0), None),
            (mk_params(1, 3, 1, 2, "1", 1, 1), None),
            (mk_params(1, 3, 2, 2, "1/2", 1, 1), None),
            (mk_params(1, 3, 1, 3, "2/3", 0, 1), None),
            (mk_params(1, 3, 2, 2, "1", 2, 0), None),
            (mk_params(2, 3, 2, 2, "1", 1, 0), (2, 0)),
            (mk_params(2, 3, 2, 2, "1/2", 1, 0), (2, 0)),
        ]
        for params, restrict in small:
            graph = build_graph(params, restrict)
            assert graph.vertex_count <= 12
            exact = max_code(graph, Strategy.EXACT)
            assert len(exact) == oracle_max_clique_size(graph.adjacency)
            for strategy in Strategy:
                code = max_code(graph, strategy)
                if code:
                    verdict = is_dna_correcting(code, params)
                    assert verdict.kind is VerdictKind.CORRECTING

        larger = mk_params(2, 3, 2, 2, "1/2", 1, 0)
        graph = build_graph(larger)
        for strategy in Strategy:
            code = max_code(graph, strategy)
            assert is_dna_correcting(code, larger).kind is VerdictKind.CORRECTING


def _table_without_seconds(path):
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    return [cells[:-1] for cells in rows]


def test_criterion_9_cli_determinism(capsys, tmp_path):
    with criterion(9, "CLI determinism"):
        msg_a = tmp_path / "a.txt"
        msg_a.write_text(
            "%params M=2,L=3,l=2,K=2,tau=1/2,ei=1,ed=1\n000\n110\n", encoding="utf-8"
        )
        msg_b = tmp_path / "b.txt"
        msg_b.write_text("001\n111\n", encoding="utf-8")
        code_file = tmp_path / "code.txt"
        code_file.write_text(
            "%params M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0\n\n000\n\n110\n\n011\n",
            encoding="utf-8",
        )
        pool_out = tmp_path / "pool.txt"
        prov_out = tmp_path / "prov.txt"
        search_out = tmp_path / "found.txt"
        table_out = tmp_path / "table.csv"

        invocations = [
            (["verify", "--code", str(code_file)], []),
            (["distance", "--a", str(msg_a), "--b", str(msg_b)], []),
            (["min-distance", "--code", str(code_file)], []),
            (["intersect", "--a", str(msg_a), "--b", str(msg_b)], []),
            (["oracle-intersect", "--a", str(msg_a), "--b", str(msg_b)], []),
            (
                [
                    "simulate", "--message", str(msg_a), "--seed", "17",
                    "--out", str(pool_out), "--provenance", str(prov_out),
                ],
                [pool_out, prov_out],
            ),
            (["simulate", "--message", str(msg_a), "--seed", "17"], []),
            (["member", "--pool", str(pool_out), "--message", str(msg_a)], []),
            (
                [
                    "search", "--strategy", "exact",
                    "--params", "M=2,L=3,l=2,K=2,tau=1,ei=1,ed=0",
                    "--out", str(search_out),
                ],
                [search_out],
            ),
        ]
        for argv, files in invocations:
            transcripts = []
            snapshots = []
            for _ in range(2):
                exit_code = cli_run(argv)
                captured = capsys.readouterr()
                assert exit_code == 0, (argv, captured.err)
                transcripts.append(captured.out)
                snapshots.append([f.read_bytes() for f in files])
            assert transcripts[0] == transcripts[1], argv
            assert snapshots[0] == snapshots[1], argv

        # the summary table is append-only and timed; every field except
        # the wall-clock seconds column must repeat exactly
        for _ in range(2):
            exit_code = cli_run(
                [
                    "search", "--strategy", "exact", "--quiet",
                    "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0",
                    "--table", str(table_out),
                ]
            )
            capsys.readouterr()
            assert exit_code == 0
        header, first, second = _table_without_seconds(table_out)
        assert header[:4] == ["M", "L", "l", "K"]
        assert first == second
