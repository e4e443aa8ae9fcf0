"""Shared pytest wiring: the acceptance suite records one PASS/FAIL line
per criterion, echoed in the terminal summary so plain `pytest -v` output
shows them, and ``run_under_python_O`` runs a check script in a fresh
optimized interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import dnacode

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def run_under_python_O(script, timeout):
    """Run ``script`` in a fresh ``python -O`` that imports the package and
    this directory's modules; returns the finished process."""
    src = str(Path(dnacode.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
