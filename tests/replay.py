"""Replay the committed answers with the standard library alone.

Two corpora: ``tests/golden/cli_corpus.txt`` (each invocation's argv, exit
code, stdout and stderr, replayed in-process through ``qlinalg.cli.main``)
and ``tests/golden/answers.txt`` (see ``answer_corpus``).  Nothing here
imports pytest, so any interpreter the package supports can run it::

    PYTHONPATH=src python3.13 tests/replay.py

It prints one line per entry that differs, ``<file>: <entry>``, and exits
with 1 if there is any.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

from qlinalg.cli import main

from answer_corpus import ANSWERS, KEYS, answer_line, recorded

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.txt"


def run(argv) -> tuple[int, str, str]:
    """One in-process invocation; argparse's own exits count as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_corpus(text: str) -> list[tuple[list[str], int, str, str]]:
    records = []
    for block in text.split("### qlinalg ")[1:]:
        head, exit_line, rest = block.split("\n", 2)
        out, err = rest.removeprefix("--- stdout\n").split("--- stderr\n")
        records.append(
            (shlex.split(head), int(exit_line.removeprefix("exit: ")), out, err)
        )
    return records


def mismatches() -> list[str]:
    """``<file>: <entry>`` for each corpus entry whose replay differs."""
    found = [
        f"{CORPUS.name}: qlinalg {shlex.join(argv)}"
        for argv, *expected in parse_corpus(CORPUS.read_text())
        if run(argv) != tuple(expected)
    ]
    lines = recorded()
    found += [
        f"{ANSWERS.name}: {name} {regime}"
        for name, regime in KEYS
        if answer_line(name, regime) != lines.get((name, regime))
    ]
    return found


if __name__ == "__main__":
    differ = mismatches()
    for line in differ:
        print(line)
    sys.exit(1 if differ else 0)
