"""Command-line interface: first-line protocol, exit codes, file flows."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dnacode
from dnacode import Message, ValidationError, sample_ball
from dnacode.cli import run
from dnacode.io import code_lines, message_lines, params_header, pool_lines, write_text
from dnacode.model import split_popcount

from oracles import (
    message_of,
    mk_params,
    oracle_min_dna_distance,
    random_message,
    reference_dna_distance,
    reference_read_blocks,
    strand_from_fields,
)
from test_io import bad_input_files
from test_metrics import benchmark_shaped_code, large_m_code, local_dna_distance
from test_search import CLI_IN_MODE


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def good_code(tmp_path):
    return write(
        tmp_path / "code.txt",
        "%params M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0\n\n000\n\n001\n",
    )


@pytest.fixture
def bad_code(tmp_path):
    return write(
        tmp_path / "bad_code.txt",
        "%params M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0\n\n000\n\n110\n",
    )


def test_verify_correcting(capsys, good_code):
    code, out, err = invoke(capsys, "verify", "--code", good_code)
    assert code == 0 and err == ""
    assert out.splitlines() == ["CORRECTING", "regime: tau-one"]


def test_verify_not_correcting_shows_witness(capsys, bad_code):
    code, out, _ = invoke(capsys, "verify", "--code", bad_code)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NOT_CORRECTING"
    assert lines[1] == "regime: tau-one"
    assert lines[2] == "pair A: {000}"
    assert lines[3] == "pair B: {110}"
    assert lines[4] == "map: 000->110"


def test_verify_quiet_prints_only_the_verdict(capsys, bad_code):
    code, out, _ = invoke(capsys, "verify", "--code", bad_code, "--quiet")
    assert code == 0
    assert out == "NOT_CORRECTING\n"


def test_flag_params_override_headers(capsys, bad_code):
    # halving tau moves the pair from intersecting to disjoint: the
    # intersection certificate needed the doubled radius
    code, out, _ = invoke(
        capsys, "verify", "--code", bad_code, "--params", "tau=1/2", "--quiet"
    )
    assert code == 0
    assert out == "CORRECTING\n"


def test_verify_regime_line_shows_restriction_flags(capsys, tmp_path):
    # budget 1 is below M*K/(2M-1) = 4/3, so both hypotheses are reported
    header = "%params M=2,L=4,l=2,K=2,tau=1/2,ei=1,ed=0\n"
    both = write(tmp_path / "both.txt", header + "\n0000\n1101\n\n0001\n1100\n")
    code, out, _ = invoke(capsys, "verify", "--code", both)
    assert code == 0
    assert out.splitlines() == [
        "CORRECTING", "regime: high-tau +restricted2e +restricted1e-bound"
    ]
    # each codeword has two strands within (2, 0), none within (1, 0)
    one = write(tmp_path / "one.txt", header + "\n0000\n1100\n\n0001\n1101\n")
    code, out, _ = invoke(capsys, "verify", "--code", one)
    assert code == 0
    assert out.splitlines() == ["CORRECTING", "regime: high-tau +restricted1e-bound"]


def test_distance(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "00\n11\n")
    b = write(tmp_path / "b.txt", "01\n10\n")
    code, out, _ = invoke(capsys, "distance", "--a", a, "--b", b, "--params", "l=1")
    assert code == 0 and out == "D=1\n"

    c = write(tmp_path / "c.txt", "00\n10\n")
    code, out, _ = invoke(capsys, "distance", "--a", a, "--b", c, "--params", "l=1")
    assert code == 0 and out == "D=inf\n"


def test_distance_requires_index_len(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "00\n")
    code, out, err = invoke(capsys, "distance", "--a", a, "--b", a)
    assert code == 2 and out == ""
    assert "missing parameters: l" in err


def test_min_distance_reports_argmin_pair(capsys, tmp_path):
    code_file = write(tmp_path / "c.txt", "%params l=1\n\n00\n11\n\n01\n10\n\n00\n10\n")
    code, out, _ = invoke(capsys, "min-distance", "--code", code_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D=1"
    assert lines[1] == "pair A: {00,11}"
    assert lines[2] == "pair B: {01,10}"


def test_intersect_yes_with_map(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "%params M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0\n000\n")
    b = write(tmp_path / "b.txt", "110\n")
    code, out, _ = invoke(capsys, "intersect", "--a", a, "--b", b)
    assert code == 0
    assert out.splitlines() == ["YES", "map: 000->110"]


def test_intersect_no(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "%params M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0\n000\n")
    b = write(tmp_path / "b.txt", "001\n")
    code, out, _ = invoke(capsys, "intersect", "--a", a, "--b", b)
    assert code == 0 and out == "NO\n"


def test_intersect_unknown_carries_reason_but_exits_zero(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "%params M=1,L=2,l=1,K=3,tau=1/3,ei=1,ed=1\n00\n")
    b = write(tmp_path / "b.txt", "11\n")
    code, out, _ = invoke(capsys, "intersect", "--a", a, "--b", b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "UNKNOWN"
    assert lines[1].startswith("reason: ")


def test_witness_map_at_m_512_is_pinned(capsys, tmp_path):
    # a near copy at M = 512, on which a first-free greedy leaves strands
    # unmatched: the printed bijection is the one Hopcroft-Karp's
    # augmenting paths pick, and another matching algorithm prints another
    p = mk_params(512, 20, 11, 10, "1", 1, 1)
    rng = random.Random(3)
    z1 = random_message(rng, p)
    used = {s.index_bits for s in z1.strands}
    fields = []
    for s in z1.strands:
        # one index bit flipped, to an index neither message uses, and one data bit
        while (index := s.index_bits ^ 1 << rng.randrange(p.index_len)) in used:
            pass
        used.add(index)
        fields.append((index, s.data_bits ^ 1 << rng.randrange(p.data_len)))
    z2 = message_of(p, fields)
    # first-free greedy within (2 e_i, 2 e_d) = (2, 2), the bound at tau = 1
    taken, unmatched = set(), 0
    for a in z1.strands:
        free = [
            j for j, b in enumerate(z2.strands)
            if j not in taken and max(split_popcount(a.bits ^ b.bits, p.data_len)) <= 2
        ]
        if free:
            taken.add(free[0])
        else:
            unmatched += 1
    assert unmatched > 0
    a, b, code = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "code.txt"
    write_text(a, [params_header(p)] + message_lines(z1))
    write_text(b, [params_header(p)] + message_lines(z2))
    write_text(code, code_lines([z1, z2], p))
    digests = []
    for argv in (["intersect", "--a", str(a), "--b", str(b)], ["verify", "--code", str(code)]):
        status, out, _ = invoke(capsys, *argv)
        maps = [line for line in out.splitlines() if line.startswith("map: ")]
        assert status == 0 and len(maps) == 1
        digests.append(hashlib.sha256(maps[0].encode()).hexdigest())
    assert digests == [
        "3b2bcefcef21194bb3b583aba6a1f7b87ae774b58de4bdc1283d8ec1063a556b",
        "a83a7a39b67008625bd36d128638e5f4430f47f0d2c48693aedbae9d0a5ee1d8",
    ]


def test_oracle_intersect_agrees_with_analytic_answers(capsys, tmp_path):
    header = "%params M=1,L=3,l=2,K=2,tau=1/2,ei=1,ed=0\n"
    strands = ["000", "100", "001", "110"]
    for i, s1 in enumerate(strands):
        for s2 in strands[i + 1:]:
            a = write(tmp_path / "a.txt", header + s1 + "\n")
            b = write(tmp_path / "b.txt", header + s2 + "\n")
            _, analytic, _ = invoke(capsys, "intersect", "--a", a, "--b", b, "--quiet")
            code, oracle, _ = invoke(capsys, "oracle-intersect", "--a", a, "--b", b)
            assert code == 0
            if analytic.strip() in ("YES", "NO"):
                assert oracle.strip() == analytic.strip()


def test_oracle_intersect_cap_exits_three(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "%params M=2,L=3,l=2,K=3,tau=2/3,ei=2,ed=1\n000\n110\n")
    b = write(tmp_path / "b.txt", "010\n100\n")
    code, out, err = invoke(capsys, "oracle-intersect", "--a", a, "--b", b, "--cap", "2")
    assert code == 3 and out == ""
    assert "error:" in err


def test_oracle_intersect_answers_a_deep_pool(capsys, tmp_path):
    # 3,000 reads of one strand: the oracle's walk is 3,000 reads deep
    a = write(tmp_path / "a.txt", "%params M=1,L=2,l=1,K=3000,tau=1,ei=1,ed=0\n00\n")
    b = write(tmp_path / "b.txt", "10\n")
    assert invoke(capsys, "oracle-intersect", "--a", a, "--b", b) == (0, "YES\n", "")


def test_simulate_writes_pool_to_stdout_by_default(capsys, tmp_path):
    msg = write(tmp_path / "m.txt", "%params M=2,L=3,l=2,K=2,tau=1,ei=1,ed=1\n000\n110\n")
    code, out, _ = invoke(capsys, "simulate", "--message", msg, "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("%params ")
    assert len(lines) == 1 + 4
    assert all(len(line) == 3 and set(line) <= {"0", "1"} for line in lines[1:])


def test_simulate_out_and_provenance_files(capsys, tmp_path):
    msg = write(tmp_path / "m.txt", "%params M=2,L=3,l=2,K=2,tau=1,ei=1,ed=1\n000\n110\n")
    pool = tmp_path / "pool.txt"
    prov = tmp_path / "prov.txt"
    code, out, _ = invoke(
        capsys, "simulate", "--message", msg, "--seed", "5",
        "--out", str(pool), "--provenance", str(prov),
    )
    assert code == 0 and out == "OK\n"
    pool_lines = pool.read_text(encoding="utf-8").splitlines()
    prov_lines = prov.read_text(encoding="utf-8").splitlines()
    assert len(pool_lines) == 5 and len(prov_lines) == 5
    assert prov_lines[0] == "# seed=5 rng=mt19937"
    # provenance rows align with pool rows
    for row, entry in enumerate(prov_lines[1:]):
        assert entry.split("\t")[0] == str(row)


def test_simulate_then_member_round_trip(capsys, tmp_path):
    msg = write(tmp_path / "m.txt", "%params M=2,L=3,l=2,K=2,tau=1/2,ei=1,ed=1\n000\n110\n")
    pool = tmp_path / "pool.txt"
    for seed in range(30):
        code, out, _ = invoke(
            capsys, "simulate", "--message", msg, "--seed", str(seed), "--out", str(pool)
        )
        assert (code, out) == (0, "OK\n")
        code, out, _ = invoke(capsys, "member", "--pool", str(pool), "--message", msg)
        assert (code, out) == (0, "YES\n")


def test_member_rejects_foreign_pool(capsys, tmp_path):
    msg = write(tmp_path / "m.txt", "%params M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0\n00\n")
    pool = write(tmp_path / "p.txt", "00\n01\n")
    code, out, _ = invoke(capsys, "member", "--pool", pool, "--message", msg)
    assert code == 0 and out == "NO\n"


def test_member_decides_a_512_strand_pool_in_both_interpreter_modes(tmp_path):
    p = mk_params(512, 20, 11, 10, "1/2", 1, 1)
    rng = random.Random(512)
    z = random_message(rng, p)
    reads = [r.read for r in sample_ball(z, p, seed=3).provenance]

    def outside(read, s):
        di, dd = split_popcount(read ^ s.bits, p.data_len)
        return di > p.e_i or dd > p.e_d

    far = rng.randrange(1 << p.length)
    while not all(outside(far, s) for s in z.strands):
        far = rng.randrange(1 << p.length)
    moved = list(reads)
    moved[rng.randrange(len(moved))] = far
    msg = tmp_path / "message.txt"
    write_text(msg, [params_header(p), *message_lines(z)])
    pools = {"YES\n": tmp_path / "sampled.txt", "NO\n": tmp_path / "moved.txt"}
    write_text(pools["YES\n"], pool_lines(reads, p))
    write_text(pools["NO\n"], pool_lines(moved, p))

    src = str(Path(dnacode.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for want, pool in pools.items():
        for mode, flags in [("debug", []), ("optimized", ["-O"])]:
            done = subprocess.run(
                [sys.executable, *flags, "-c", CLI_IN_MODE, mode,
                 "member", "--pool", str(pool), "--message", str(msg)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert (done.returncode, done.stdout, done.stderr) == (0, want, ""), mode


def small_space_code(rng, size=6):
    """``size`` codewords at M=3, L=4, l=2 sharing the data multiset
    {u, u, v}, so index groups of 2 and 1: the benchmark's small-space
    distance shape."""
    u, v = rng.sample(range(4), 2)
    code = []
    while len(code) < size:
        indices = rng.sample(range(4), 3)
        z = Message(tuple(strand_from_fields(i, d, 4, 2) for i, d in zip(indices, (u, u, v))))
        if z not in code:
            code.append(z)
    return code


def test_distance_commands_print_the_same_under_python_O(tmp_path):
    small = mk_params(8, 16, 8, 10, 1, 1, 0)
    code = benchmark_shaped_code(random.Random(23), buckets=10)
    d, (za, zb) = oracle_min_dna_distance(code, reference_dna_distance)
    # a finite pair (the witness) and an infinite one (different buckets),
    # the witness of a large-m code, whose groups take the lane kernel, and
    # two pairs of a small-space code, whose groups of 2 and 1 are valued
    # from the first group's floor-0 decision on
    other = next(z for z in code if reference_dna_distance(za, z) == math.inf)
    wide = large_m_code(random.Random(29))
    wide_d, (wa, wb) = oracle_min_dna_distance(wide, local_dna_distance)
    large = mk_params(512, 20, 11, 10, 1, 1, 0)
    tiny = small_space_code(random.Random(31))
    tiny_d, (ta, tb) = oracle_min_dna_distance(tiny, local_dna_distance)
    tiny_params = mk_params(3, 4, 2, 4, 1, 1, 0)
    runs = []
    # each code with its pairs for `distance`, the witness pair first
    for name, p, c, pairs in [
        ("small", small, code, [(za, zb, d), (za, other, math.inf)]),
        ("large", large, wide, [(wa, wb, wide_d)]),
        (
            "tiny",
            tiny_params,
            tiny,
            [(ta, tb, tiny_d), (tiny[0], tiny[-1], local_dna_distance(tiny[0], tiny[-1]))],
        ),
    ]:
        code_file = tmp_path / f"{name}-code.txt"
        write_text(code_file, code_lines(c, p))
        x, y, best = pairs[0]
        want = f"D={best}\npair A: {x}\npair B: {y}\n"
        runs.append((want, ["min-distance", "--code", str(code_file)]))
        for k, (z1, z2, dist) in enumerate(pairs):
            files = [tmp_path / f"{name}-{k}-{side}.txt" for side in "ab"]
            for f, z in zip(files, (z1, z2)):
                write_text(f, [params_header(p), *message_lines(z)])
            runs.append((f"D={dist}\n", ["distance", "--a", str(files[0]), "--b", str(files[1])]))

    src = str(Path(dnacode.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for want, argv in runs:
        for mode, flags in [("debug", []), ("optimized", ["-O"])]:
            done = subprocess.run(
                [sys.executable, *flags, "-c", CLI_IN_MODE, mode, *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert (done.returncode, done.stdout, done.stderr) == (0, want, ""), (mode, argv)


def test_search_prints_size_and_code(capsys):
    code, out, _ = invoke(
        capsys, "search", "--strategy", "exact",
        "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SIZE=2"
    assert lines[1].startswith("%params ")
    # two single-strand messages follow, blank-line separated
    assert lines[2] == "" and lines[4] == ""


def test_search_out_file_and_verify_round_trip(capsys, tmp_path):
    out_file = tmp_path / "found.txt"
    code, out, _ = invoke(
        capsys, "search", "--strategy", "greedy",
        "--params", "M=2,L=3,l=2,K=2,tau=1,ei=1,ed=0",
        "--out", str(out_file),
    )
    assert code == 0
    assert out.splitlines() == [f"SIZE={out.splitlines()[0].split('=')[1]}"]
    code, out, _ = invoke(capsys, "verify", "--code", str(out_file), "--quiet")
    assert code == 0 and out == "CORRECTING\n"


def test_search_restrict_forms(capsys, tmp_path):
    for restrict in ["distinct-data", "2,0"]:
        code, out, _ = invoke(
            capsys, "search", "--strategy", "exact", "--quiet",
            "--params", "M=2,L=3,l=2,K=2,tau=1,ei=1,ed=0",
            "--restrict", restrict,
        )
        assert code == 0 and out.startswith("SIZE=")
    for restrict in ["1,-2", " +1,0_0", "1_0,0"]:
        code, _, err = invoke(
            capsys, "search", "--strategy", "exact",
            "--params", "M=2,L=3,l=2,K=2,tau=1,ei=1,ed=0",
            "--restrict", restrict,
        )
        assert code == 2 and "--restrict" in err


def test_search_table_appends_with_single_header(capsys, tmp_path):
    table = tmp_path / "rows.csv"
    for _ in range(2):
        code, _, _ = invoke(
            capsys, "search", "--strategy", "exact", "--quiet",
            "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0",
            "--table", str(table),
        )
        assert code == 0
    rows = table.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3
    assert rows[0].split(",")[:4] == ["M", "L", "l", "K"]
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[:8] == ["1", "2", "1", "2", "1", "1", "0", "-"]
        assert cells[8:11] == ["4", "2", "exact"]


def test_search_space_cap_exits_three(capsys):
    code, out, err = invoke(
        capsys, "search", "--strategy", "greedy",
        "--params", "M=2,L=4,l=2,K=2,tau=1,ei=1,ed=0",
        "--cap", "10",
    )
    assert code == 3 and out == ""
    assert "error:" in err


def test_negative_cap_is_invalid_input(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "%params M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0\n00\n")
    out_file, table = tmp_path / "found.txt", tmp_path / "rows.csv"
    for argv in [
        ["oracle-intersect", "--a", a, "--b", a],
        ["search", "--strategy", "exact", "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0",
         "--out", str(out_file), "--table", str(table)],
    ]:
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--cap", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--cap" in captured.err
        assert "argument --cap: value must be a non-negative integer, got '-1'" in captured.err
    assert not out_file.exists() and not table.exists()


def test_missing_file_exits_two(capsys, tmp_path):
    code, out, err = invoke(capsys, "verify", "--code", str(tmp_path / "nope.txt"))
    assert code == 2 and out == ""
    assert "error:" in err


def test_malformed_file_reports_path_and_line(capsys, tmp_path):
    bad = write(tmp_path / "bad.txt", "000\n0x0\n")
    code, _, err = invoke(capsys, "verify", "--code", bad, "--params", "M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0")
    assert code == 2
    assert f"{bad}:2:" in err


def test_conflicting_headers_exit_two(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "%params M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0\n00\n")
    b = write(tmp_path / "b.txt", "%params M=1,L=2,l=1,K=2,tau=1/2,ei=1,ed=0\n11\n")
    code, _, err = invoke(capsys, "intersect", "--a", a, "--b", b)
    assert code == 2 and "tau" in err
    # the error names both files, in the order they were given
    assert f"1 in {a} vs 1/2 in {b}" in err


def test_unknown_strategy_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--strategy", "magic", "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0"])
    assert exc.value.code == 2


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    msg = write(tmp_path / "m.txt", "%params M=2,L=3,l=2,K=2,tau=1/2,ei=1,ed=1\n000\n110\n")
    outputs = set()
    for _ in range(3):
        code, out, _ = invoke(capsys, "simulate", "--message", msg, "--seed", "17")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_parser_is_reused_across_calls_and_errors(capsys, good_code):
    # one parser serves every call of a process; an argparse error must
    # leave nothing behind that changes the calls after it
    rounds = set()
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            run(["search", "--strategy", "magic", "--params", "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0"])
        assert exc.value.code == 2
        error = capsys.readouterr()
        valid = [
            invoke(capsys, "verify", "--code", good_code),
            invoke(capsys, "search", "--strategy", "exact", "--params",
                   "M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0"),
        ]
        rounds.add((error.out, error.err, *valid))
    assert len(rounds) == 1
    (_, err, verify, search), = rounds
    assert "invalid choice: 'magic'" in err
    assert verify == (0, "CORRECTING\nregime: tau-one\n", "")
    assert search[0] == 0 and search[1].startswith("SIZE=2\n")


CLI_RUNS_IN_MODE = """
import contextlib, io, json, sys
from dnacode.cli import run
if __debug__ != (sys.argv[1] == "debug"):
    raise SystemExit("wrong interpreter mode")
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_file_errors_name_the_line_a_per_line_reader_names_under_python_O(tmp_path):
    """`member` and `verify` on pool and code files with one bad line
    print the error of a reader that checks each line as it comes."""
    message = write(tmp_path / "message.txt", "%params L=20,l=11\n" + "0" * 20 + "\n")
    argvs, wants = [], []
    for name, (kind, path) in bad_input_files(tmp_path).items():
        with pytest.raises(ValidationError) as caught:
            reference_read_blocks(path)
        wants.append([2, "", f"error: {caught.value}\n"])
        if kind == "pool":
            argvs.append(["member", "--pool", path, "--message", message])
        else:
            argvs.append(["verify", "--code", path])
    src = str(Path(dnacode.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for mode, flags in [("debug", []), ("optimized", ["-O"])]:
        done = subprocess.run(
            [sys.executable, *flags, "-c", CLI_RUNS_IN_MODE, mode, json.dumps(argvs)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == wants, mode


@pytest.mark.parametrize("seed", ["1_000", " 7", "+4", "٣", "-3", "", "7.0"])
def test_simulate_seed_is_a_non_negative_decimal_integer(capsys, tmp_path, seed):
    # int() would take all of these, and Random(-3) draws what Random(3) does
    msg = write(tmp_path / "m.txt", "%params M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0\n00\n")
    out_file = tmp_path / "pool.txt"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--message", msg, "--seed", seed, "--out", str(out_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("dnacode simulate: error:") and "--seed" in line
               for line in captured.err.splitlines())
    assert f"argument --seed: value must be a non-negative integer, got {seed!r}" in captured.err
    assert not out_file.exists()


def test_simulate_accepts_seed_zero(capsys, tmp_path):
    msg = write(tmp_path / "m.txt", "%params M=1,L=2,l=1,K=2,tau=1,ei=1,ed=0\n00\n")
    prov = tmp_path / "prov.txt"
    code, out, _ = invoke(capsys, "simulate", "--message", msg, "--seed", "0",
                          "--provenance", str(prov))
    assert code == 0 and out.splitlines()[0].startswith("%params")
    assert prov.read_text(encoding="utf-8").startswith("# seed=0 rng=mt19937\n")
