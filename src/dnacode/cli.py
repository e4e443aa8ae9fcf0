"""Command-line front end.

The first stdout line of every subcommand is machine-readable
(CORRECTING / NOT_CORRECTING / INDETERMINATE, YES / NO / UNKNOWN,
D=<n>, SIZE=<n>, OK, or a pool file); the lines after it are detail,
and --quiet drops them.  Exit codes: 0 = a verdict was computed
(whatever it is), 2 = invalid input, 3 = a resource cap was exceeded.
Parameters come from --params key=value lists and/or %params file
headers; flags override headers, and M and L are inferred from input
files when omitted.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .channel import in_ball, oracle_balls_intersect, sample_ball
from .codec import RegimeTag, balls_intersect, is_dna_correcting
from .errors import ResourceCapExceeded, ValidationError
from .io import (
    PARAM_KEYS,
    ParamValue,
    Block,
    code_lines,
    merge_headers,
    parse_param_items,
    pool_lines,
    provenance_lines,
    read_code_file,
    read_message_file,
    read_pool_file,
    tau_text,
    write_text,
)
from .matching import Bijection
from .metrics import dna_distance, min_dna_distance
from .model import (
    DEFAULT_SPACE_CAP,
    Message,
    ReadPool,
    Strand,
    SystemParams,
    int_from_string,
    validate_message,
)
from .search import SearchRow, Strategy, run_search

def main() -> int:
    return run()


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
    print("\n".join(lines[:1] if args.quiet else lines))
    return 0


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
        type=int_from_string,
        default=DEFAULT_SPACE_CAP,
        help=f"candidate-pool enumeration cap (default {DEFAULT_SPACE_CAP})",
    )
    p.set_defaults(handler=_cmd_oracle_intersect)

    p = sub.add_parser(
        "simulate", parents=[common], help="sample one read pool from a message's error ball"
    )
    p.add_argument("--message", required=True)
    p.add_argument("--seed", required=True, type=int)
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
        type=int_from_string,
        default=DEFAULT_SPACE_CAP,
        help=f"message-space enumeration cap (default {DEFAULT_SPACE_CAP})",
    )
    p.set_defaults(handler=_cmd_search)
    return parser


def _resolve(
    args: argparse.Namespace,
    headers: Mapping[str, dict[str, ParamValue]],
    block: Optional[Block] = None,
    need: Sequence[str] = PARAM_KEYS,
) -> dict[str, ParamValue]:
    """The parameters in force: the file headers, keyed by file and
    required to agree, under --params, with M and L read off ``block``
    where neither gives them."""
    values = merge_headers(*headers.values(), names=list(headers))
    if args.params:
        values.update(parse_param_items(args.params))
    if block:
        values.setdefault("M", len(block))
        values.setdefault("L", len(block[0][1]))
    missing = [k for k in need if k not in values]
    if missing:
        raise ValidationError(
            "missing parameters: " + ", ".join(missing) + " (use --params or a %params header)"
        )
    return values


def _system_params(
    args: argparse.Namespace,
    headers: Mapping[str, dict[str, ParamValue]],
    block: Optional[Block] = None,
) -> SystemParams:
    values = _resolve(args, headers, block)
    return SystemParams(
        m=values["M"], length=values["L"], index_len=values["l"], k=values["K"],
        tau=values["tau"], e_i=values["ei"], e_d=values["ed"],
    )


def _message_pair(args: argparse.Namespace) -> tuple[Message, Message, SystemParams]:
    header_a, block_a = read_message_file(args.a)
    header_b, block_b = read_message_file(args.b)
    params = _system_params(args, {args.a: header_a, args.b: header_b}, block_a)
    return _message(block_a, params), _message(block_b, params), params


def _message(block: Block, params: SystemParams) -> Message:
    return validate_message([token for _, token in block], params)


def _bare_message(block: Block, index_len: int) -> Message:
    return Message(tuple(Strand.from_string(token, index_len) for _, token in block))


def _fmt_distance(d: float) -> str:
    return "inf" if math.isinf(d) else str(int(d))


def _fmt_bijection(bijection: Bijection) -> str:
    return " ".join(f"{x}->{y}" for x, y in bijection)


def _regime_line(tag: RegimeTag) -> str:
    parts = [tag.regime.value]
    if tag.restricted2e:
        parts.append("+restricted2e")
    if tag.restricted1e_bound:
        parts.append("+restricted1e-bound")
    return "regime: " + " ".join(parts)


def _cmd_verify(args: argparse.Namespace) -> list[str]:
    header, blocks = read_code_file(args.code)
    params = _system_params(args, {args.code: header}, blocks[0] if blocks else None)
    code = [_message(block, params) for block in blocks]
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
    header_a, block_a = read_message_file(args.a)
    header_b, block_b = read_message_file(args.b)
    index_len = _resolve(args, {args.a: header_a, args.b: header_b}, need=["l"])["l"]
    d = dna_distance(_bare_message(block_a, index_len), _bare_message(block_b, index_len))
    return [f"D={_fmt_distance(d)}"]


def _cmd_min_distance(args: argparse.Namespace) -> list[str]:
    header, blocks = read_code_file(args.code)
    index_len = _resolve(args, {args.code: header}, need=["l"])["l"]
    code = [_bare_message(block, index_len) for block in blocks]
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
    header, block = read_message_file(args.message)
    params = _system_params(args, {args.message: header}, block)
    sample = sample_ball(_message(block, params), params, args.seed)
    file_lines = pool_lines([p.read for p in sample.provenance], params)
    if args.provenance:
        write_text(args.provenance, provenance_lines(sample))
    if args.out:
        write_text(args.out, file_lines)
        return ["OK"]
    return file_lines


def _cmd_member(args: argparse.Namespace) -> list[str]:
    pool_header, read_entries = read_pool_file(args.pool)
    msg_header, block = read_message_file(args.message)
    params = _system_params(args, {args.pool: pool_header, args.message: msg_header}, block)
    pool = ReadPool.from_reads([token for _, token in read_entries], params.length)
    return ["YES" if in_ball(pool, _message(block, params), params) else "NO"]


def _cmd_search(args: argparse.Namespace) -> list[str]:
    params = _system_params(args, {})
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
    try:
        return (int_from_string(r1), int_from_string(r2))
    except ValidationError:
        raise ValidationError(
            f"--restrict must be 'r1,r2' with non-negative integers or 'distinct-data', "
            f"got {text!r}"
        ) from None


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
    sys.exit(main())
