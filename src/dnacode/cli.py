"""Command-line front end.

The first stdout line of every subcommand is machine-readable
(CORRECTING / NOT_CORRECTING / INDETERMINATE, YES / NO / UNKNOWN,
D=<n>, SIZE=<n>, OK, or a pool file); the lines after it are detail,
and --quiet drops them.  Exit codes: 0 = a verdict was computed
(whatever it is), 1 = stdout closed before the output was written (as
in ``dnacode ... | head -1``), 2 = invalid input, 3 = a resource cap
was exceeded.
Parameters come from --params key=value lists and/or %params file
headers; flags override headers, and M and L are inferred from input
files when omitted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import io
from .channel import in_ball, oracle_balls_intersect, sample_ball
from .codec import RegimeTag, balls_intersect, is_dna_correcting
from .errors import ResourceCapExceeded, ValidationError
from .io import (
    PARAM_KEYS,
    ParamValue,
    Block,
    TokenFile,
    code_lines,
    merge_headers,
    parse_param_items,
    sample_lines,
    tau_text,
    write_text,
)
from .matching import Bijection
from .metrics import dna_distance, min_dna_distance
# validate_message stays imported: perfbench/run.py traces cli.validate_message
from .model import (
    DEFAULT_SPACE_CAP,
    Message,
    SystemParams,
    _check_strand_shape,
    _is_digits,
    _message_from_packed,
    _pool_from_counts,
    _quote,
    int_from_string,
    validate_message,
)
from .search import SearchRow, Strategy, run_search


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lines = args.handler(args)
    except ResourceCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        print("\n".join(lines[:1] if args.quiet else lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: stdout goes to devnull, as the signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def _int_argument(s: str) -> int:
    """``int_from_string`` as an argparse type: argparse prints an
    ArgumentTypeError's own text, where for any other error it names the
    type function."""
    try:
        return int_from_string(s)
    except ValidationError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnacode",
        description="DNA storage channel model: verify, measure, simulate, and search codes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--params",
        metavar="SPEC",
        help="comma-separated key=value list over M,L,l,K,tau,ei,ed; "
        "tau as p/q or 1; overrides file headers",
    )
    common.add_argument(
        "--quiet", action="store_true", help="print only the first output line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify", parents=[common], help="decide whether a code file is DNA-correcting"
    )
    p.add_argument("--code", required=True, help="code file, messages separated by blank lines")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "distance", parents=[common], help="DNA-distance between two messages"
    )
    p.add_argument("--a", required=True, help="first message file")
    p.add_argument("--b", required=True, help="second message file")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser(
        "min-distance",
        parents=[common],
        help="minimum DNA-distance of a code, with an argmin pair",
    )
    p.add_argument("--code", required=True)
    p.set_defaults(handler=_cmd_min_distance)

    p = sub.add_parser(
        "intersect", parents=[common], help="decide error-ball intersection analytically"
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser(
        "oracle-intersect",
        parents=[common],
        help="decide error-ball intersection by brute-force enumeration",
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument(
        "--cap",
        type=_int_argument,
        default=DEFAULT_SPACE_CAP,
        help=f"candidate-pool enumeration cap (default {DEFAULT_SPACE_CAP})",
    )
    p.set_defaults(handler=_cmd_oracle_intersect)

    p = sub.add_parser(
        "simulate", parents=[common], help="sample one read pool from a message's error ball"
    )
    p.add_argument("--message", required=True)
    p.add_argument("--seed", required=True, type=_int_argument)
    p.add_argument("--out", help="write the pool file here instead of stdout")
    p.add_argument("--provenance", help="write a per-read provenance sidecar here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "member", parents=[common], help="test whether a pool lies in a message's error ball"
    )
    p.add_argument("--pool", required=True)
    p.add_argument("--message", required=True)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser(
        "search", parents=[common], help="search an enumerated space for a large code"
    )
    p.add_argument("--strategy", required=True, choices=[s.value for s in Strategy])
    p.add_argument(
        "--restrict",
        metavar="R",
        help="'r1,r2' to restrict the space, or 'distinct-data'",
    )
    p.add_argument("--out", help="write the code file here")
    p.add_argument("--table", help="append a CSV summary row here")
    p.add_argument(
        "--cap",
        type=_int_argument,
        default=DEFAULT_SPACE_CAP,
        help=f"message-space enumeration cap (default {DEFAULT_SPACE_CAP})",
    )
    p.set_defaults(handler=_cmd_search)
    return parser


def _resolve(
    args: argparse.Namespace,
    files: Sequence[TokenFile],
    block: Optional[Block] = None,
    length: Optional[int] = None,
    need: Sequence[str] = PARAM_KEYS,
) -> dict[str, ParamValue]:
    """The parameters in force: the headers of ``files``, required to
    agree, under --params, with M read off ``block`` and L off its
    file's token ``length`` where neither gives them."""
    values = merge_headers(*[f.header for f in files], names=[f.path for f in files])
    if args.params:
        values.update(parse_param_items(args.params))
    if block:
        values.setdefault("M", len(block))
        values.setdefault("L", length)
    missing = [k for k in need if k not in values]
    if missing:
        raise ValidationError(
            "missing parameters: " + ", ".join(missing) + " (use --params or a %params header)"
        )
    return values


def _system_params(
    args: argparse.Namespace,
    files: Sequence[TokenFile],
    block: Optional[Block] = None,
    length: Optional[int] = None,
) -> SystemParams:
    values = _resolve(args, files, block, length)
    # PARAM_KEYS names the fields of SystemParams in their order
    return SystemParams(*[values[key] for key in PARAM_KEYS])


def _read_message(path: str) -> tuple[TokenFile, Block]:
    """A message file and its one block."""
    file = io.read_blocks(path)
    return file, file.message_block()


def _messages(
    file: TokenFile,
    blocks: Sequence[Block],
    index_len: int,
    m: Optional[int] = None,
    L: Optional[int] = None,
) -> list[Message]:
    """The messages of blocks of a checked ``file``: its token length is
    compared with the L in force, when one is, and its (L, l) shape
    checked, once for all blocks; each block must have the M in force,
    when one is."""
    if not blocks:
        return []
    if L is not None:
        file.check_length(L)
    length = file.length
    _check_strand_shape(length, index_len)
    return [_message_from_packed(block, length, index_len, m) for block in blocks]


def _message(
    file: TokenFile, block: Block, index_len: int, m: Optional[int] = None, L: Optional[int] = None
) -> Message:
    """The message of a message file's block, built as ``_messages`` builds it."""
    return _messages(file, [block], index_len, m, L)[0]


def _message_pair(args: argparse.Namespace) -> tuple[Message, Message, SystemParams]:
    (a, block_a), (b, block_b) = _read_message(args.a), _read_message(args.b)
    params = _system_params(args, [a, b], block_a, a.length)
    m, L, index_len = params.m, params.length, params.index_len
    return _message(a, block_a, index_len, m, L), _message(b, block_b, index_len, m, L), params


def _fmt_distance(d: float) -> str:
    return "inf" if math.isinf(d) else str(int(d))


def _fmt_bijection(bijection: Bijection) -> str:
    width = f"0{bijection[0][0].length}b"
    return " ".join([f"{x.bits:{width}}->{y.bits:{width}}" for x, y in bijection])


def _regime_line(tag: RegimeTag) -> str:
    parts = [tag.regime.value]
    if tag.restricted2e:
        parts.append("+restricted2e")
    if tag.restricted1e_bound:
        parts.append("+restricted1e-bound")
    return "regime: " + " ".join(parts)


def _cmd_verify(args: argparse.Namespace) -> list[str]:
    file = io.read_blocks(args.code)
    blocks = file.blocks()
    params = _system_params(args, [file], blocks[0] if blocks else None, file.length)
    code = _messages(file, blocks, params.index_len, params.m, params.length)
    del file, blocks  # a TokenFile holds every line of its file: free them first
    verdict = is_dna_correcting(code, params)
    lines = [verdict.kind.name, _regime_line(verdict.regime)]
    if verdict.witness is not None:
        za, zb = verdict.witness.pair
        lines += [
            f"pair A: {za}",
            f"pair B: {zb}",
            f"map: {_fmt_bijection(verdict.witness.bijection)}",
        ]
    if verdict.reason is not None:
        lines.append(f"reason: {verdict.reason}")
    return lines


def _cmd_distance(args: argparse.Namespace) -> list[str]:
    (a, block_a), (b, block_b) = _read_message(args.a), _read_message(args.b)
    values = _resolve(args, [a, b], need=["l"])
    m, L, index_len = values.get("M"), values.get("L"), values["l"]
    d = dna_distance(_message(a, block_a, index_len, m, L), _message(b, block_b, index_len, m, L))
    return [f"D={_fmt_distance(d)}"]


def _cmd_min_distance(args: argparse.Namespace) -> list[str]:
    file = io.read_blocks(args.code)
    values = _resolve(args, [file], need=["l"])
    code = _messages(file, file.blocks(), values["l"], values.get("M"), values.get("L"))
    del file  # free its lines before the work
    d, (za, zb) = min_dna_distance(code)
    return [f"D={_fmt_distance(d)}", f"pair A: {za}", f"pair B: {zb}"]


def _cmd_intersect(args: argparse.Namespace) -> list[str]:
    result = balls_intersect(*_message_pair(args))
    lines = [result.answer.value.upper()]
    if result.bijection is not None:
        lines.append(f"map: {_fmt_bijection(result.bijection)}")
    if result.reason is not None:
        lines.append(f"reason: {result.reason}")
    return lines


def _cmd_oracle_intersect(args: argparse.Namespace) -> list[str]:
    hit = oracle_balls_intersect(*_message_pair(args), cap=args.cap)
    return ["YES" if hit else "NO"]


def _cmd_simulate(args: argparse.Namespace) -> list[str]:
    file, block = _read_message(args.message)
    params = _system_params(args, [file], block, file.length)
    z = _message(file, block, params.index_len, params.m, params.length)
    del file  # free its lines before the work
    sample = sample_ball(z, params, args.seed)
    file_lines, rows = sample_lines(sample, params)
    if args.provenance:
        write_text(args.provenance, rows)
    if args.out:
        write_text(args.out, file_lines)
        return ["OK"]
    return file_lines


def _cmd_member(args: argparse.Namespace) -> list[str]:
    pool_file = io.read_blocks(args.pool)
    counts = pool_file.value_counts()
    file, block = _read_message(args.message)
    params = _system_params(args, [pool_file, file], block, file.length)
    pool_file.check_length(params.length)
    pool = _pool_from_counts(params.length, counts)
    z = _message(file, block, params.index_len, params.m, params.length)
    del pool_file, file, counts  # free their lines before the work
    return ["YES" if in_ball(pool, z, params) else "NO"]


def _cmd_search(args: argparse.Namespace) -> list[str]:
    params = _system_params(args, [])
    restrict = _parse_restrict(args.restrict, params) if args.restrict else None
    code, row = run_search(params, Strategy(args.strategy), restrict, args.cap)
    file_lines = code_lines(code, params)
    if args.out:
        write_text(args.out, file_lines)
    if args.table:
        _append_table_row(args.table, row, args.restrict)
    out = [f"SIZE={len(code)}"]
    if not args.out:
        out.extend(file_lines)
    return out


def _parse_restrict(text: str, params: SystemParams) -> tuple[int, int]:
    if text == "distinct-data":
        # pairwise-distinct data fields; index distance never exceeds l
        return (params.index_len, 0)
    r1, _, r2 = text.partition(",")
    if not (_is_digits(r1) and _is_digits(r2)):
        raise ValidationError(
            f"--restrict must be 'r1,r2' with non-negative integers or 'distinct-data', "
            f"got {_quote(text)}"
        )
    return (int_from_string(r1, "--restrict"), int_from_string(r2, "--restrict"))


def _append_table_row(path: str, row: SearchRow, restrict_text: Optional[str]) -> None:
    target = Path(path)
    fresh = not target.exists() or target.stat().st_size == 0
    with target.open("a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(
                ["M", "L", "l", "K", "tau", "ei", "ed", "restrict",
                 "space", "code_size", "strategy", "seconds"]
            )
        p = row.params
        writer.writerow(
            [p.m, p.length, p.index_len, p.k, tau_text(p.tau), p.e_i, p.e_d,
             restrict_text or "-", row.space_size, row.code_size,
             row.strategy.value, f"{row.seconds:.3f}"]
        )


if __name__ == "__main__":
    sys.exit(run())
