"""Text file formats for messages, codes, and read pools.

All files are UTF-8 text.  Lines starting with '#' are comments; an
optional header line '%params M=..,L=..,l=..,K=..,tau=p/q,ei=..,ed=..'
declares parameters (command-line flags override it).  Every other
non-blank line is a binary string: a message file holds one strand per
line, a code file separates messages with one blank line, and a pool
file lists one read per line with repeats expressing multiplicity.

``read_blocks`` reads a file in one pass over its distinct lines: it
counts the stripped lines, checks the distinct tokens together (0/1
only, one length) and packs each into an int once.  Only a failed check
reads the lines one by one, for the line of the first bad token, so
errors name their line and come in line order.  A message or code file
comes back as tuples of packed ints in file order, and a pool file as
the number of lines holding each packed read, each with the file's
token length; the builders in ``model`` take only ints.  Output goes
the other way in one step: each line is formatted from its packed value
by one ``format(v, "0{L}b")``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

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
Block = tuple[int, ...]


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


class TokenFile(NamedTuple):
    """A file that ``read_blocks`` has checked: its merged %params
    ``header``, its one token ``length`` (None when no line is a token),
    its ``lines`` stripped, how often each stripped line occurs
    (``counts``) and the packed value of each distinct token
    (``values``)."""

    header: dict[str, ParamValue]
    length: Optional[int]
    lines: list[str]
    counts: Counter[str]
    values: dict[str, int]

    def blocks(self) -> list[Block]:
        """The blank-line-separated blocks of packed tokens, in file order."""
        values = self.values
        blocks: list[Block] = []
        current: list[int] = []
        for line in self.lines:
            value = values.get(line)
            if value is not None:
                current.append(value)
            elif current and not line:
                blocks.append(tuple(current))
                current = []
        if current:
            blocks.append(tuple(current))
        return blocks

    def value_counts(self) -> dict[int, int]:
        """How many token lines hold each packed value."""
        return dict(zip(self.values.values(), map(self.counts.__getitem__, self.values)))


def read_blocks(path: Union[str, Path]) -> TokenFile:
    """Read and check a file: its header and its tokens, each distinct
    line handled once.

    The stripped lines are counted first, so each distinct line is
    sorted into blank, comment, directive or token once.  The distinct
    tokens are checked together (0/1 only, one length in the whole file)
    and packed by one ``int(t, 2)`` each.  A directive's lines are found
    by ``list.index`` and parsed in line order.  When a token fails, the
    lines are read again one by one for the first bad token
    (``_first_bad_token``), and only the directives above it are parsed
    first, so each error names its line and errors come in line order.
    """
    name = str(path)
    try:
        # open() directly: a Path object costs more than a small file's parse
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FileFormatError(f"cannot read file: {e.strerror or e}", path=name)
    lines = list(map(str.strip, text.splitlines()))
    counts = Counter(lines)
    tokens: list[str] = []
    directives: list[tuple[int, str]] = []
    for line in counts:
        if not line or line[0] == "#":
            continue
        if line[0] == "%":
            at = -1
            for _ in range(counts[line]):
                at = lines.index(line, at + 1)
                directives.append((at + 1, line))
        else:
            tokens.append(line)
    bad: Optional[FileFormatError] = None
    token_len: Optional[int] = None
    if tokens:
        # the counter keeps first appearances in file order
        token_len = len(tokens[0])
        if not (_is_bits("".join(tokens)) and set(map(len, tokens)) == {token_len}):
            bad = _first_bad_token(lines, name)
    header: dict[str, ParamValue] = {}
    for lineno, line in sorted(directives):
        if bad is not None and lineno > bad.line:
            break
        if not (line == "%params" or line.startswith("%params ")):
            raise FileFormatError(
                f"unknown directive {line.split()[0]!r}", path=name, line=lineno
            )
        items = parse_param_items(line[len("%params"):], path=name, line=lineno)
        header = merge_headers(header, items, where=f"{name}:{lineno}: ")
    if bad is not None:
        raise bad
    if token_len is not None and header.get("L", token_len) != token_len:
        raise FileFormatError(
            f"lines have length {token_len} but the header says L={header['L']}", path=name
        )
    values = dict(zip(tokens, map(int, tokens, repeat(2))))
    return TokenFile(header, token_len, lines, counts, values)


def _first_bad_token(lines: list[str], name: str) -> FileFormatError:
    """The error of the file's first token line that is not a 0/1 string
    of the first token's length, with its line, given the stripped
    lines; called only when a token is such a line, so one is found."""
    token_len: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
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
    raise AssertionError("a token failed its check, so some token line is bad")


def read_message_file(path: Union[str, Path]) -> tuple[dict[str, ParamValue], Block, int]:
    """The header, the one block of packed strands and the token length
    of a message file."""
    file = read_blocks(path)
    blocks = file.blocks()
    if len(blocks) != 1:
        raise FileFormatError(
            f"expected exactly one message, found {len(blocks)}", path=str(path)
        )
    return file.header, blocks[0], file.length


def read_code_file(
    path: Union[str, Path]
) -> tuple[dict[str, ParamValue], list[Block], Optional[int]]:
    """The header, the blocks of packed strands and the token length of a
    code file."""
    file = read_blocks(path)
    return file.header, file.blocks(), file.length


def read_pool_file(
    path: Union[str, Path]
) -> tuple[dict[str, ParamValue], dict[int, int], Optional[int]]:
    """The header, the number of lines holding each packed read and the
    token length of a pool file."""
    file = read_blocks(path)
    return file.header, file.value_counts(), file.length


def params_header(params: SystemParams) -> str:
    return (
        f"%params M={params.m},L={params.length},l={params.index_len},"
        f"K={params.k},tau={tau_text(params.tau)},ei={params.e_i},ed={params.e_d}"
    )


def message_lines(msg: Message) -> list[str]:
    """One line per strand, each formatted from its packed value."""
    width = f"0{msg.length}b"
    return [format(b, width) for b in msg.bits]


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
    for bits, group in zip(sample.message.bits, sample.groups):
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
