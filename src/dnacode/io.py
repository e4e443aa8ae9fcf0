"""Text file formats for messages, codes, and read pools.

All files are UTF-8 text.  Lines starting with '#' are comments; an
optional header line '%params M=..,L=..,l=..,K=..,tau=p/q,ei=..,ed=..'
declares parameters (command-line flags override it).  Every other
non-blank line is a binary string: a message file holds one strand per
line, a code file separates messages with one blank line, and a pool
file lists one read per line with repeats expressing multiplicity.

``read_blocks`` is where a token's characters and length are checked:
a block at a time, with the file's line of the first bad token in the
error.  The CLI packs each checked token into an int once, and the
builders in ``model`` take only ints.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .channel import ChannelSample
from .errors import FileFormatError, ParamMismatch, ValidationError
from .model import (
    Message,
    SystemParams,
    _is_bits,
    check_bits,
    int_from_string,
    tau_from_string,
)

PARAM_KEYS = ("M", "L", "l", "K", "tau", "ei", "ed")
ParamValue = Union[int, Fraction]
Block = list[str]


def tau_text(tau: Fraction) -> str:
    return "1" if tau == 1 else f"{tau.numerator}/{tau.denominator}"


def parse_param_items(
    text: str, path: Optional[str] = None, line: Optional[int] = None
) -> dict[str, ParamValue]:
    """Parse 'M=2,L=3,...' into typed values (tau as a Fraction)."""

    def fail(message: str) -> None:
        if path is not None:
            raise FileFormatError(message, path=path, line=line)
        raise ValidationError(message)

    items: dict[str, ParamValue] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not value:
            fail(f"expected key=value, got {part!r}")
        if key not in PARAM_KEYS:
            fail(f"unknown parameter {key!r} (expected one of {', '.join(PARAM_KEYS)})")
        if key in items:
            fail(f"repeated parameter {key!r}")
        try:
            items[key] = tau_from_string(value) if key == "tau" else int_from_string(value, key)
        except ValidationError as e:
            fail(str(e))
    return items


def merge_headers(
    *headers: dict[str, ParamValue], where: str = "", names: Sequence[str] = ()
) -> dict[str, ParamValue]:
    """The union of the headers: two headers that name a key must give it
    one value.  ``where`` prefixes the error, as 'path:line: ' does, and
    ``names``, one per header, says in the error which headers disagree."""
    merged: dict[str, tuple[ParamValue, str]] = {}
    for header, name in zip(headers, names or [""] * len(headers)):
        origin = f" in {name}" if name else ""
        for key, value in header.items():
            first, first_origin = merged.setdefault(key, (value, origin))
            if first != value:
                raise ParamMismatch(
                    f"{where}headers disagree on {key}: {first}{first_origin} vs {value}{origin}"
                )
    return {key: value for key, (value, _) in merged.items()}


def read_blocks(path: Union[str, Path]) -> tuple[dict[str, ParamValue], list[Block]]:
    """Parse a file into its header and blank-line-separated blocks of
    binary strings.

    The line loop only sorts lines into blank, comment, directive and
    token lines.  Tokens are checked a block at a time (0/1 only, one
    length in the whole file), when the block ends and before the next
    directive is parsed.  When a block fails, the lines are read again
    one by one for the first bad token, so each error names its line and
    errors come in line order.
    """
    name = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise FileFormatError(f"cannot read file: {e.strerror or e}", path=name)
    lines = text.splitlines()
    header: dict[str, ParamValue] = {}
    blocks: list[Block] = []
    current: Block = []
    token_len: Optional[int] = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if current:
                token_len = _check_tokens(current, token_len, lines, name)
                blocks.append(current)
                current = []
        elif line[0] == "#":
            continue
        elif line[0] == "%":
            if current:
                token_len = _check_tokens(current, token_len, lines, name)
            if not (line == "%params" or line.startswith("%params ")):
                raise FileFormatError(
                    f"unknown directive {line.split()[0]!r}", path=name, line=lineno
                )
            items = parse_param_items(line[len("%params"):], path=name, line=lineno)
            header = merge_headers(header, items, where=f"{name}:{lineno}: ")
        else:
            current.append(line)
    if current:
        token_len = _check_tokens(current, token_len, lines, name)
        blocks.append(current)
    if token_len is not None and header.get("L", token_len) != token_len:
        raise FileFormatError(
            f"lines have length {token_len} but the header says L={header['L']}", path=name
        )
    return header, blocks


def _check_tokens(block: Block, token_len: Optional[int], lines: list[str], name: str) -> int:
    """The file's token length, after checking that every token of
    ``block`` is a 0/1 string of that length (the first token's when no
    block came before)."""
    if token_len is None:
        token_len = len(block[0])
    if not (_is_bits("".join(block)) and set(map(len, block)) == {token_len}):
        raise _first_bad_token(lines, name)
    return token_len


def _first_bad_token(lines: list[str], name: str) -> FileFormatError:
    """The error of the file's first token line that is not a 0/1 string
    of the first token's length, with its line; called only when a block
    holds such a line, so one is found."""
    token_len: Optional[int] = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        try:
            check_bits(line)
        except ValidationError as e:
            return FileFormatError(str(e), path=name, line=lineno)
        if token_len is None:
            token_len = len(line)
        elif len(line) != token_len:
            return FileFormatError(
                f"length {len(line)} differs from {token_len} used above",
                path=name,
                line=lineno,
            )
    raise AssertionError("a block failed its check, so some token line is bad")


def read_message_file(path: Union[str, Path]) -> tuple[dict[str, ParamValue], Block]:
    header, blocks = read_blocks(path)
    if len(blocks) != 1:
        raise FileFormatError(
            f"expected exactly one message, found {len(blocks)}", path=str(path)
        )
    return header, blocks[0]


def read_code_file(path: Union[str, Path]) -> tuple[dict[str, ParamValue], list[Block]]:
    return read_blocks(path)


def read_pool_file(path: Union[str, Path]) -> tuple[dict[str, ParamValue], Block]:
    header, blocks = read_blocks(path)
    return header, [token for block in blocks for token in block]


def params_header(params: SystemParams) -> str:
    return (
        f"%params M={params.m},L={params.length},l={params.index_len},"
        f"K={params.k},tau={tau_text(params.tau)},ei={params.e_i},ed={params.e_d}"
    )


def message_lines(msg: Message) -> list[str]:
    return [str(s) for s in msg.strands]


def code_lines(code: Sequence[Message], params: SystemParams) -> list[str]:
    lines = [params_header(params)]
    for z in code:
        lines.append("")
        lines.extend(message_lines(z))
    return lines


def sample_lines(sample: ChannelSample, params: SystemParams) -> tuple[list[str], list[str]]:
    """The pool file and the provenance sidecar of a sample, in one walk
    over its strands and their groups.  The pool file is the params
    header and one read per line, group by group; the sidecar is a
    '# seed=.. rng=..' line and one row per read: its index, source
    strand and flipped string positions ('-' for none), tab-separated.
    The flips of a read are the set positions of read XOR strand."""
    length = params.length
    width = f"0{length}b"
    pool = [params_header(params)]
    rows = [f"# seed={sample.seed} rng={sample.rng}"]
    # most reads are exact copies, which print their strand's text, and
    # a flip mask recurs across strands: format each mask's positions once
    flip_sets: dict[int, str] = {}
    i = 0
    for s, group in zip(sample.message.strands, sample.groups):
        bits = s.bits
        source = format(bits, width)
        for read in group:
            if read == bits:
                pool.append(source)
                rows.append(f"{i}\t{source}\t-")
            else:
                mask = read ^ bits
                flips = flip_sets.get(mask)
                if flips is None:
                    flips = flip_sets[mask] = _flip_text(mask, length)
                pool.append(format(read, width))
                rows.append(f"{i}\t{source}\t{flips}")
            i += 1
    return pool, rows


def _flip_text(mask: int, length: int) -> str:
    """The string positions of a mask's set bits, ascending and
    comma-separated: its highest bit first, at position L - bit_length."""
    positions = []
    while mask:
        n = mask.bit_length()
        positions.append(str(length - n))
        mask ^= 1 << (n - 1)
    return ",".join(positions)


def write_text(path: Union[str, Path], lines: Sequence[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
