"""Adversarial input ends in exit 2 and one error line, never a traceback:
files that are not UTF-8, integers longer than ``int()`` converts, text
too long to echo in full, and arbitrary file bytes and --params text."""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dnacode import SystemParams, ValidationError
from dnacode.cli import run
from dnacode.io import PARAM_KEYS
from dnacode.model import _quote, int_from_string, tau_from_string

from conftest import run_under_python_O

PARAMS = "M=1,L=3,l=2,K=2,tau=1,ei=1,ed=0"
# every command that reads a file, with "{}" for the file under test, "m"
# for a good message file and "p" for a good pool file
COMMANDS = {
    "verify": ["verify", "--code", "{}"],
    "min-distance": ["min-distance", "--code", "{}"],
    "distance --a": ["distance", "--a", "{}", "--b", "m"],
    "distance --b": ["distance", "--a", "m", "--b", "{}"],
    "intersect --a": ["intersect", "--a", "{}", "--b", "m"],
    "intersect --b": ["intersect", "--a", "m", "--b", "{}"],
    "oracle-intersect": ["oracle-intersect", "--a", "{}", "--b", "m", "--cap", "1000"],
    "simulate": ["simulate", "--message", "{}", "--seed", "1"],
    "member --pool": ["member", "--pool", "{}", "--message", "m"],
    "member --message": ["member", "--pool", "p", "--message", "{}"],
}


def command_argv(name, path, directory):
    """The argv of a command reading ``path`` as its file under test,
    with every parameter given by --params."""
    good = {"m": Path(directory) / "message.txt", "p": Path(directory) / "pool.txt"}
    good["m"].write_text("000\n", encoding="utf-8")
    good["p"].write_text("000\n001\n", encoding="utf-8")
    swap = {"{}": str(path), "m": str(good["m"]), "p": str(good["p"])}
    return [swap.get(arg, arg) for arg in COMMANDS[name]] + ["--params", PARAMS]


def run_captured(argv):
    """``run(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", COMMANDS)
def test_a_file_that_is_not_utf8_exits_two_naming_it(tmp_path, name):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe000\n")
    assert run_captured(command_argv(name, path, tmp_path)) == (
        2, "", f"error: {path}: not UTF-8 text: byte 0 (invalid start byte)\n"
    )


def digit_limit_failures(directory):
    """Each entry point given a run of digits longer than ``int()``
    converts, and what it did wrong: a CLI call must exit 2 with one
    error line that gives the length and not the digits, and the library
    must raise ValidationError with that text."""
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 700)
    short = f"has {len(digits)} digits, more than the {limit} that int() converts"
    failures = []

    def expect(what, call, text):
        try:
            call()
        except ValidationError as e:
            if str(e) != text:
                failures.append((what, str(e)[:200]))
        except Exception as e:
            failures.append((what, repr(e)[:200]))
        else:
            failures.append((what, "no error"))

    expect("int_from_string", lambda: int_from_string(digits, "K"), f"K {short}")
    expect("tau numerator", lambda: tau_from_string(f"{digits}/1"), f"tau {short}")
    expect("SystemParams", lambda: SystemParams(1, 3, 2, 2, f"1/{digits}", 1, 0), f"tau {short}")

    message = Path(directory) / "message.txt"
    message.write_text("000\n", encoding="utf-8")
    cases = {
        "--params": (["verify", "--code", str(message), "--params", f"M={digits}"], f"M {short}"),
        "--params tau q": (
            ["intersect", "--a", str(message), "--b", str(message), "--params", f"tau=1/{digits}"],
            f"tau {short}",
        ),
        "--restrict r1": (
            ["search", "--strategy", "greedy", "--params", PARAMS, "--restrict", f"{digits},0"],
            f"--restrict {short}",
        ),
        "--restrict r2": (
            ["search", "--strategy", "greedy", "--params", PARAMS, "--restrict", f"0,{digits}"],
            f"--restrict {short}",
        ),
    }
    for key, value in [("K", digits), ("tau", f"{digits}/2")]:
        header = Path(directory) / f"header-{key}.txt"
        header.write_text(f"# a long value\n%params {key}={value}\n000\n", encoding="utf-8")
        cases[f"%params {key}"] = (
            ["simulate", "--message", str(header), "--seed", "1", "--params", PARAMS],
            f"{header}:2: {key} {short}",
        )
    for what, (argv, text) in cases.items():
        got = run_captured(argv)
        if got != (2, "", f"error: {text}\n"):
            failures.append((what, [part[:200] for part in map(str, got)]))
    # argparse prints an integer option's error after its usage, and exits 2
    for option, argv in [
        ("--seed", ["simulate", "--message", str(message), "--params", PARAMS, "--seed", digits]),
        ("--cap", ["oracle-intersect", "--a", str(message), "--b", str(message),
                   "--params", PARAMS, "--cap", digits]),
    ]:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                run(argv)
        except SystemExit as e:
            code = e.code
        text = err.getvalue()
        if (code, text.endswith(f"argument {option}: value {short}\n")) != (2, True):
            failures.append((option, code, text[-300:]))
    return failures


def test_integers_past_the_digit_limit_are_invalid_input(tmp_path):
    assert digit_limit_failures(tmp_path) == []


OPTIMIZED_DIGIT_LIMIT = """
import tempfile
from test_bad_input import digit_limit_failures

if __debug__:
    raise SystemExit("expected python -O")
with tempfile.TemporaryDirectory() as directory:
    failures = digit_limit_failures(directory)
if failures:
    raise SystemExit(repr(failures))
"""


def test_integers_past_the_digit_limit_are_invalid_input_under_python_O():
    done = run_under_python_O(OPTIMIZED_DIGIT_LIMIT, timeout=120)
    assert done.returncode == 0, done.stderr


LONG = "x" * 5000
SEARCH = ["search", "--strategy", "greedy", "--cap", "300", "--params"]
# each site that echoes the text it refuses, given 5,000 characters of it:
# an argv, with "{}" for a file holding the text after it, if any
LONG_ECHOES = {
    "check_bits": (["verify", "--code", "{}"], "0" * 4999 + "x\n"),
    "int_from_string": (SEARCH + [f"M={LONG}"], None),
    "tau_from_string": (SEARCH + [f"tau=1/{LONG}"], None),
    "_parse_restrict": (SEARCH + [PARAMS, "--restrict", LONG], None),
    "parse_param_items item": (SEARCH + [LONG], None),
    "parse_param_items key": (SEARCH + [f"{LONG}=1"], None),
    "parse_param_items header": (["verify", "--code", "{}"], f"%params {LONG}\n000\n"),
    "unknown directive": (["verify", "--code", "{}"], f"%{LONG}\n000\n"),
}


@pytest.mark.parametrize("site", LONG_ECHOES)
def test_a_long_text_is_echoed_cut_to_its_first_64_characters(site):
    argv, text = LONG_ECHOES[site]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code, out, err = run_captured([str(path) if arg == "{}" else arg for arg in argv])
    assert (code, out) == (2, ""), err[:300]
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err.encode("utf-8")) < 200, err
    assert re.search(r"'\.\.\. \(500\d characters\)", err), err


def test_quote_keeps_the_repr_of_a_text_no_longer_than_a_strand():
    for text in ["", "M", "x" * 64, "\t'\"\u00e9" * 16]:
        assert _quote(text) == repr(text)
    assert _quote("x" * 65) == repr("x" * 64) + "... (65 characters)"


# pieces of files and --params lists: good and bad tokens, directives and
# values, a value past the digit limit, and text of any kind
HUGE = "9" * 5000
LINES = st.one_of(
    st.sampled_from([
        "000", "001", "110", "111", "0000", "01x", "", "  ", "#", "%params", "%params L=3",
        "%params M=2", "%params l=0", f"%params K={HUGE}", f"%params tau=1/{HUGE}", "%settings",
    ]),
    st.text(max_size=8),
)
FILE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(LINES, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
)
VALUES = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "1/2", "2/3", "1/0", "-1", "1_0", "", HUGE, f"1/{HUGE}"]),
    st.text(max_size=4),
)
PARAM_TEXT = st.one_of(
    st.text(max_size=24),
    st.lists(st.tuples(st.sampled_from([*PARAM_KEYS, "x", ""]), VALUES), max_size=9).map(
        lambda items: ",".join(f"{key}={value}" for key, value in items)
    ),
)


def assert_one_outcome(argv):
    """``run`` returns 0, 2 or 3, and prints nothing to stderr on 0 and
    one error line and no stdout otherwise."""
    code, out, err = run_captured(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", argv
    else:
        assert out == "" and err.startswith("error: ") and err.endswith("\n"), (argv, err)
        assert err.count("\n") == 1, (argv, err)


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", COMMANDS)
@FUZZ
@given(data=FILE_BYTES)
def test_no_file_ends_in_a_traceback(name, data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.txt"
        path.write_bytes(data)
        assert_one_outcome(command_argv(name, path, directory))


@FUZZ
@given(text=PARAM_TEXT)
def test_no_params_text_ends_in_a_traceback(text):
    assert_one_outcome(["search", "--strategy", "greedy", "--cap", "300", f"--params={text}"])
