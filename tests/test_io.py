"""Text formats: parameter headers, message/code/pool files."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dnacode import FileFormatError, ParamMismatch, ValidationError
from dnacode.io import (
    code_lines,
    message_lines,
    params_header,
    parse_param_items,
    read_blocks,
    sample_lines,
    tau_text,
    write_text,
)
from dnacode.channel import ChannelSample, sample_ball
from dnacode.model import Message, Strand, tau_from_string

from conftest import run_under_python_O
from oracles import mk_message, mk_params, reference_read_blocks


def test_parse_tau_accepts_one_and_fractions():
    assert tau_from_string("1") == Fraction(1)
    assert tau_from_string("2/3") == Fraction(2, 3)
    assert tau_from_string("10/20") == Fraction(1, 2)


def test_parse_tau_rejects_everything_else():
    for bad in ["2", "0.5", "1/0", "-1/2", "3 / 4", "", "a/b"]:
        with pytest.raises(ValidationError):
            tau_from_string(bad)


def test_tau_text_round_trip():
    for text in ["1", "2/3", "1/2"]:
        assert tau_text(tau_from_string(text)) == text


def test_param_values_are_ascii_digits_only():
    # int() alone takes underscores, signs and non-ASCII digits
    for bad in ["M=1_0", "L=+3", "ei=-0", "l=\u0662", "tau=\u0663/4"]:
        with pytest.raises(ValidationError, match=f"^{bad.split('=')[0]} must be"):
            parse_param_items(bad)
    assert parse_param_items("M=10, tau=3/4") == {"M": 10, "tau": Fraction(3, 4)}


@pytest.mark.parametrize("text, error", [
    ("M=1,Q=2", "unknown parameter 'Q' (expected one of M, L, l, K, tau, ei, ed)"),
    ("m=1", "unknown parameter 'm' (expected one of M, L, l, K, tau, ei, ed)"),
    ("M=1,L=3,M=1", "repeated parameter 'M'"),
    ("tau=1, tau=1/2", "repeated parameter 'tau'"),
])
def test_param_items_reject_unknown_and_repeated_keys(tmp_path, text, error):
    with pytest.raises(ValidationError) as caught:
        parse_param_items(text)
    assert (type(caught.value), str(caught.value)) == (ValidationError, error)
    path = tmp_path / "msg.txt"
    path.write_text(f"# a header\n%params {text}\n000\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as caught:
        read_blocks(path)
    assert str(caught.value) == f"{path}:2: {error}"


def test_header_value_error_carries_its_line(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("# K below\n%params K=0_2\n000\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as exc:
        read_blocks(path)
    assert exc.value.line == 2 and "K" in str(exc.value)


def test_params_header_round_trips_through_a_file(tmp_path):
    p = mk_params(2, 3, 2, 2, "1/2", 1, 0)
    path = tmp_path / "msg.txt"
    write_text(path, [params_header(p)] + message_lines(mk_message(2, "000", "110")))
    file = read_blocks(path)
    assert file.header == {"M": 2, "L": 3, "l": 2, "K": 2, "tau": Fraction(1, 2), "ei": 1, "ed": 0}
    assert (file.message_block(), file.length) == ((0b000, 0b110), 3)


def test_message_file_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("# a comment\n\n000\n# another\n110\n\n", encoding="utf-8")
    file = read_blocks(path)
    assert (file.message_block(), file.length) == ((0b000, 0b110), 3)


def test_message_file_reports_position_of_bad_lines(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("000\n01x\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as exc:
        read_blocks(path)
    assert exc.value.line == 2
    assert str(path) in str(exc.value)
    assert ":2:" in str(exc.value)


def test_ragged_strand_lengths_are_rejected(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("000\n0110\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as exc:
        read_blocks(path)
    assert exc.value.line == 2


def test_header_length_must_match_tokens(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("%params L=4\n000\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_blocks(path)


def test_unknown_directive_is_rejected(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("%settings x=1\n000\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as exc:
        read_blocks(path)
    assert exc.value.line == 1


def test_repeated_headers_merge_but_must_agree(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("%params M=1\n%params L=3\n000\n", encoding="utf-8")
    assert read_blocks(path).header == {"M": 1, "L": 3}

    conflicting = tmp_path / "bad.txt"
    conflicting.write_text("%params M=1\n%params M=2\n000\n", encoding="utf-8")
    with pytest.raises(ParamMismatch):
        read_blocks(conflicting)


def test_message_file_requires_exactly_one_block(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("000\n\n110\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_blocks(path).message_block()
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_blocks(empty).message_block()


def test_code_file_round_trip(tmp_path):
    p = mk_params(1, 2, 1, 2, "1", 1, 0)
    code = [mk_message(1, "00"), mk_message(1, "11")]
    path = tmp_path / "code.txt"
    write_text(path, code_lines(code, p))
    file = read_blocks(path)
    assert file.header["M"] == 1 and file.header["tau"] == Fraction(1)
    assert (file.blocks(), file.length) == ([(0b00,), (0b11,)], 2)


def _sample_of(reads, length, index_len, seed=0):
    """A sample of the one all-zero strand whose group holds the given
    reads in order."""
    z = Message((Strand(0, length, index_len),))
    return ChannelSample(z, (tuple(reads),), seed)


def test_pool_file_round_trip_preserves_multiplicity(tmp_path):
    p = mk_params(1, 2, 1, 3, "1", 1, 0)
    path = tmp_path / "pool.txt"
    write_text(path, sample_lines(_sample_of([0b00, 0b10, 0b00], 2, 1), p)[0])
    file = read_blocks(path)
    assert (file.value_counts(), file.length) == ({0b00: 2, 0b10: 1}, 2)


def test_pool_lines_preserve_the_given_order():
    p = mk_params(1, 2, 1, 2, "1", 1, 0)
    pool, rows = sample_lines(_sample_of([0b10, 0b00], 2, 1), p)
    assert pool == [params_header(p), "10", "00"]
    assert rows[1:] == ["0\t00\t0", "1\t00\t-"]


def test_provenance_lines_record_seed_and_flips():
    p = mk_params(1, 2, 1, 2, "1", 1, 0)
    z = mk_message(1, "00")
    sample = sample_ball(z, p, seed=5)
    pool, lines = sample_lines(sample, p)
    assert lines[0] == "# seed=5 rng=mt19937"
    assert len(lines) == len(pool) == 1 + p.pool_size
    for row, entry in enumerate(lines[1:]):
        position, source, flips = entry.split("\t")
        assert position == str(row) and source == "00"
        assert flips == "-" or all(part.isdigit() for part in flips.split(","))


def test_provenance_lines_match_per_read_formatting():
    p = mk_params(4, 6, 3, 3, "2/3", 1, 1)
    z = mk_message(3, "000101", "011000", "101111", "110010")
    for seed in range(5):
        sample = sample_ball(z, p, seed)
        pairs = [(s, r) for s, group in zip(z.strands, sample.groups) for r in group]
        reads = [format(r, "06b") for _, r in pairs]
        flips = [[pos for pos in range(6) if (r ^ s.bits) >> (5 - pos) & 1] for s, r in pairs]
        rows = [
            f"{i}\t{s}\t{','.join(map(str, f)) or '-'}"
            for i, ((s, _), f) in enumerate(zip(pairs, flips))
        ]
        assert sample_lines(sample, p) == (
            [params_header(p), *reads],
            [f"# seed={seed} rng=mt19937", *rows],
        )


def test_write_text_ends_with_newline(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, ["a", "b"])
    assert path.read_text(encoding="utf-8") == "a\nb\n"


def _pool_file_lines(rng):
    """A 5,120-line pool file: a header and 5,119 reads of 20 bits."""
    reads = [format(rng.randrange(1 << 20), "020b") for _ in range(5119)]
    return ["%params M=512,L=20,l=11,K=10,tau=1/2,ei=1,ed=1", *reads]


def _code_file_lines(rng):
    """A code file of 150 blocks of 8 strands of 24 bits."""
    lines = ["%params M=8,L=24,l=8,K=10,tau=1,ei=1,ed=1"]
    for _ in range(150):
        lines.append("")
        lines += [format(rng.randrange(1 << 24), "024b") for _ in range(8)]
    return lines


BAD_LINES = {
    "bad-character": lambda token: token[:3] + "x" + token[4:],
    "ragged": lambda token: token + "1",
    "bad-params": lambda token: "%params K=0_2",
    "unknown-directive": lambda token: "%settings x=1",
}


def bad_input_files(tmp_path):
    """Pool and code files, each with one bad line at its first, a middle
    and its last line, plus the precedence cases; name -> (kind, path)."""
    rng = random.Random(71)
    files = {}
    for kind, base in [("pool", _pool_file_lines(rng)), ("code", _code_file_lines(rng))]:
        token = base[-1]
        middle = len(base) // 2 + (base[len(base) // 2] == "")
        for bad, spoil in BAD_LINES.items():
            for where, at in [("first", 0), ("middle", middle), ("last", len(base) - 1)]:
                lines = list(base)
                lines[at] = spoil(token)
                files[f"{kind}-{bad}-{where}"] = (kind, lines)
        token_then_params = list(base)
        token_then_params[middle] = BAD_LINES["bad-character"](token)
        token_then_params[middle + 2] = BAD_LINES["bad-params"](token)
        files[f"{kind}-token-before-params"] = (kind, token_then_params)
        files[f"{kind}-header-length"] = (kind, [base[0].replace(",L=2", ",L=3"), *base[1:]])
    out = {}
    for name, (kind, lines) in files.items():
        path = tmp_path / f"{name}.txt"
        write_text(path, lines)
        out[name] = (kind, str(path))
    return out


def _error(read, path):
    with pytest.raises(ValidationError) as caught:
        read(path)
    e = caught.value
    return type(e), str(e), getattr(e, "line", None)


def test_read_blocks_reports_the_line_a_per_line_reader_reports(tmp_path):
    files = bad_input_files(tmp_path)
    assert len(files) == 2 * (4 * 3 + 2)
    for name, (_, path) in files.items():
        want = _error(reference_read_blocks, path)
        assert _error(read_blocks, path) == want, name
        assert want[0] is FileFormatError, name


def _decorated(rng, line):
    """A line with white space the reader strips: spaces or tabs on
    either side, or none."""
    return rng.choice(["", " ", "\t", "  \t"]) + line + rng.choice(["", " ", "\t", " \t "])


def random_token_file(rng):
    """(text, kind) of a random file: one to four blocks of tokens of one
    length, drawn from a few values so that values repeat, separated by
    runs of blank lines; comments; and %params lines before, between and
    after the tokens, some repeated with equal values.  Lines carry
    spaces and tabs and end in LF or CRLF.  In "bad" files one line at a
    random place is a bad token or directive, or a header disagrees
    with the tokens' length."""
    length = rng.randint(1, 8)
    values = [rng.randrange(1 << length) for _ in range(rng.randint(1, 5))]
    headers = [f"%params L={length}", "%params M=3,tau=1/2", "%params K=2", "%params"]
    lines = []
    for b in range(rng.randint(1, 4)):
        if b:
            lines += [""] * rng.randint(1, 3)
        for _ in range(rng.randint(1, 6)):
            while rng.random() < 0.3:
                lines.append(rng.choice([*headers, "# a comment", "#"]))
            lines.append(format(rng.choice(values), f"0{length}b"))
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice([*headers, "# note"]))
    lines += [""] * rng.randint(0, 2) + rng.sample(["# end", headers[0], ""], rng.randint(0, 3))
    kind = "good"
    if rng.random() < 0.5:
        kind = "bad"
        spoilt = rng.choice([
            "0" * length + "x",
            "1" * (length + 1),
            "0" * (length - 1) + "2" if length > 1 else "2",
            "%settings x=1",
            "%params K=0_2",
            "%params M=4",
            f"%params L={length + 1}",
            "%params bad",
        ])
        if spoilt.startswith("%params L="):
            # alone, it disagrees with the tokens rather than a header
            lines = [line for line in lines if line != headers[0]]
        lines.insert(rng.randrange(len(lines) + 1), spoilt)
    ending = rng.choice(["\n", "\r\n"])
    return ending.join(_decorated(rng, line) for line in lines) + ending, kind


# a fragment of each error text the random files raise
ERROR_KINDS = [
    "may contain only 0 and 1",
    "used above",
    "unknown directive",
    "headers disagree",
    "the header says",
    "must be a non-negative integer",
    "expected key=value",
]


def _read_message_block(path):
    """A message file's one block, read as the CLI reads it."""
    return read_blocks(path).message_block()


def reader_agreement(directory, files=400):
    """Each random file read by ``read_blocks``, as a code, pool and
    message file, and by ``reference_read_blocks``: the disagreements,
    and how many good and bad files were read."""
    disagreements = []
    seen = dict.fromkeys(["good", "bad", "one block", *ERROR_KINDS], 0)
    rng = random.Random(331)
    for n in range(files):
        text, kind = random_token_file(rng)
        path = Path(directory) / f"file{n}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            header, blocks = reference_read_blocks(str(path))
        except ValidationError:
            want = _error(reference_read_blocks, path)
            seen["bad"] += 1
            for what in ERROR_KINDS:
                seen[what] += what in want[1]
            for read in (read_blocks, _read_message_block):
                if _error(read, path) != want:
                    disagreements.append((n, read.__name__, _error(read, path), want))
            continue
        seen["good"] += 1
        packed = [tuple(int(token, 2) for token in block) for block in blocks]
        length = len(blocks[0][0]) if blocks else None
        counts = dict(Counter(value for block in packed for value in block))
        file = read_blocks(path)
        got = {
            "code": (file.header, file.blocks(), file.length),
            "pool": (file.header, file.value_counts(), file.length),
        }
        want = {"code": (header, packed, length), "pool": (header, counts, length)}
        if len(blocks) == 1:
            seen["one block"] += 1
            got["message"] = (file.header, _read_message_block(path), file.length)
            want["message"] = (header, packed[0], length)
        elif _error(_read_message_block, path)[1] != (
            f"{path}: expected exactly one message, found {len(blocks)}"
        ):
            disagreements.append((n, "message block count"))
        for reader, result in got.items():
            if result != want[reader]:
                disagreements.append((n, reader, result, want[reader]))
    return disagreements, seen


def test_file_readers_agree_with_the_per_line_reader_on_random_files(tmp_path):
    disagreements, seen = reader_agreement(tmp_path)
    assert disagreements == []
    assert min(seen.values()) >= 10, seen


OPTIMIZED_READER_AGREEMENT = """
import sys, tempfile
from test_io import reader_agreement

if __debug__:
    raise SystemExit("expected python -O")
with tempfile.TemporaryDirectory() as directory:
    disagreements, seen = reader_agreement(directory)
if disagreements or min(seen.values()) < 10:
    raise SystemExit(repr((disagreements[:5], seen)))
"""


def test_file_readers_agree_with_the_per_line_reader_under_python_O():
    done = run_under_python_O(OPTIMIZED_READER_AGREEMENT, timeout=120)
    assert done.returncode == 0, done.stderr
