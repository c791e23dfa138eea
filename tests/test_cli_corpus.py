"""Byte-exact CLI corpus: every verb, plain and JSON, answers, verdicts, errors.

``tests/golden/cli_corpus.txt`` records, per invocation, the argv, the exit
code, stdout and stderr.  The test replays each invocation in-process through
``main()`` and compares all four.  After an intended output change, rewrite
the file with::

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import shlex
import sys

from replay import CORPUS, parse_corpus, run
from test_cli_boundary import parser_verbs

_NINE_BY_NINE = "; ".join(
    " ".join(str((3 * i + 5 * j) % 7 - 3) for j in range(9)) for i in range(9)
)

# Each entry runs plain and again with --format json (errors print no
# payload, but the exit code and message are checked under both formats).
CASES: tuple[tuple[str, ...], ...] = (
    # solve: unique, traced, inconsistent, infinite
    ("solve", "3 2 | 5 ; -2 1 | -6"),
    ("solve", "3 2 | 5 ; -2 1 | -6", "--trace"),
    ("solve", "1 1 | 1; 1 1 | 2"),
    ("solve", "1 2 1 | 3; 2 4 0 | 2"),
    ("solve", "1 2 1 -1 | 3; 2 4 0 1 | 2", "--trace"),
    ("solve", "0 0 | 0; 0 0 | 0"),
    ("solve", "1 1 1; 1 1 2"),
    ("solve", "1 2 | 3 4; 5 6 | 7 8"),
    # rref / reduce
    ("rref", "0 2 4; 1 1 1; 2 0 -2"),
    ("rref", "0 2 4; 1 1 1; 2 0 -2", "--trace"),
    ("rref", "0 0; 0 0", "--trace"),
    ("rref", "1 2 | 3"),
    ("reduce", "2 4 1; 1/2 3 -1; 0 1 7/3"),
    ("reduce", "2 4 1; 1/2 3 -1; 0 1 7/3", "--form", "semi-reduced", "--trace"),
    ("reduce", "2 4 1; 1/2 3 -1; 0 1 7/3", "--form", "reduced"),
    ("reduce", "0 3 6; 2 4 1; 1 2 1/2", "--form", "echelon", "--trace"),
    ("reduce", "0 3 6; 2 4 1; 1 2 1/2", "--form", "reduced-echelon"),
    # inverse
    ("inverse", "1 2; 3 4"),
    ("inverse", "2 3; 4 6"),
    ("inverse", "1 2 3; 4 5 6"),
    # det
    ("det", "1 0 2; 3 1 -1; 1 2 4"),
    ("det", "0 2 1/2; 3 1 -1; 1 2 4", "--trace"),
    ("det", "1 0 2; 3 1 -1; 1 2 4", "--method", "cofactor"),
    ("det", "1 0; 0 1", "--method", "cofactor", "--trace"),
    ("det", _NINE_BY_NINE, "--method", "cofactor"),
    ("det", "1 two; 3 4"),
    ("det", "1 2; 3"),
    ("det", "1 2; 3 4/0"),
    ("det", "   "),
    ("det", "1 2 3; 4 5 6"),
    # cofactor / adjoint / cramer / inv-entry
    ("cofactor", "1 2 0; -1 1/2 3; 2 0 1"),
    ("cofactor", "1 2"),
    ("adjoint", "1 2 0; -1 1/2 3; 2 0 1"),
    ("adjoint", "x"),
    ("cramer", "2 -1 | 7; 3 4 | -5"),
    ("cramer", "1 1 | 2; 1 1 | 3"),
    ("cramer", "1 1 | 2"),
    ("inv-entry", "1 2; 3 4", "--entry", "2,1"),
    ("inv-entry", "2 3; 4 6", "--entry", "1,1"),
    ("inv-entry", "1 0; 0 1", "--entry", "0,1"),
    ("inv-entry", "1 0; 0 1", "--entry", "3,1"),
    # spans and subspaces
    ("basis", "1 2 3; 2 4 6; 0 1 1"),
    ("basis", "0 0; 0 0"),
    ("basis", "1 2; 3"),
    ("span-member", "1 1 1 1; 0 0 1 1", "1 1 2 2"),
    ("span-member", "1 1 1 1; 0 0 1 1", "1 0 0 0"),
    ("span-member", "0 0; 0 0", "0 0"),
    ("span-member", "1 1 1", "1 1; 2 2"),
    ("extend-basis", "1 1 0; 0 1 1"),
    ("extend-basis", "1 1 0; 2 2 0"),
    ("extend-basis", "1 2; 3 4; 5 6"),
    ("subspace", "a; -2a+b; -a", "--params", "a,b"),
    ("subspace", "x; 1"),
    ("subspace", "0; 0"),
    ("subspace", "x*y; 1"),
    ("subspace", "2*; a"),
    ("fundamentals", "1 2 3; 2 4 6"),
    ("fundamentals", "1 0; 0 1"),
    ("fundamentals", "0 0 0"),
    ("fundamentals", "1 | 2"),
    # linear maps
    ("transform", "x1 + x2; 2x1; -x2/3"),
    ("transform", "x1 + x2; 2x1; -3x2 + 1/2x1"),
    ("transform", "x1 + x2; 2x1", "--apply", "1 -1/2"),
    ("transform", "2 0 -> 0 1 4; -1 1 -> 2 1 5", "--apply", "3 5"),
    ("transform", "1 2; 0 1"),
    ("transform", "x1; 13"),
    ("transform", "1 2 -> 1; 2 4 -> 2"),
    ("transform", "1 0 -> 1"),
    ("transform", "1 2 -> 1 -> 2"),
    ("transform", "1 2; 0 1", "--apply", "1 2 3"),
    ("kernel", "-5x1; 2x2+x3; -x1; 0"),
    ("kernel", "1 0; 0 1"),
    ("kernel", "x1 + 1; x2"),
    ("kernel", "1 0 -> 1; 2 0 -> 2"),
    ("range", "-5x1; 2x2+x3; -x1; 0"),
    ("range", "0 0; 0 0"),
    ("range", "x1; x2 - 7"),
    ("range", "x1 x2"),
    # eigen
    ("eigen", "2 0 1; 0 1 -2; 0 0 -1"),
    ("eigen", "1 1; 0 1"),
    ("eigen", "0 -1; 1 0"),
    ("eigen", "2 0 0; 0 0 -1; 0 1 0"),
    ("eigen", "5"),
    ("eigen", "3 0; 0 3"),
    ("eigen", "1 2 3; 4 5 6"),
    ("diagonalize", "2 0 1; 0 1 -2; 0 0 -1"),
    ("diagonalize", "1 0 0 0; 0 1 1 1; 0 0 -1 1; 0 0 0 -1"),
    ("diagonalize", "0 -1; 1 0"),
    ("diagonalize", "1 2"),
    ("power", "2 0 1; 0 1 -2; 0 0 -1", "--power", "6"),
    ("power", "1 1; 0 2", "--power", "-2"),
    ("power", "1 1; 0 2", "--power", "0"),
    ("power", "1 1; 1 1", "--power", "-1"),
    ("power", "1 2 3", "--power", "2"),
    # vectors
    ("dot", "2 4 1 3", "0 1 2 5"),
    ("dot", "1/2; 1/3", "6 -3"),
    ("dot", "1 2", "1 2 3"),
    ("dot", "1 2; 3 4", "1 2"),
    ("gram-schmidt", "1 0 1 1; 0 1 0 1; 0 1 1 1"),
    ("gram-schmidt", "1 1; 2 2; 0 1"),
    ("gram-schmidt", "0 0; 0 0"),
    ("gram-schmidt", "1 0; 0 0"),
    # matrix shapes
    ("decompose-sym", "1 2; 3 4"),
    ("decompose-sym", "1/2 -1 0; 4 0 2; 1 3 1"),
    ("decompose-sym", "1 2 3"),
    ("transpose", "1 2 3; 4 5 6"),
    ("transpose", "1/2 | 3"),
    ("mul", "1 2; 3 4", "5; 6"),
    ("mul", "1/2 1; 0 2", "2 0; 1 -1/3"),
    ("mul", "1 2; 3 4", "1 2 3"),
)


def _invocations() -> list[list[str]]:
    runs = []
    for case in CASES:
        runs.append(list(case))
        runs.append([*case, "--format", "json"])
    return runs


def _section(text: str) -> list[str]:
    if text and not text.endswith("\n"):
        raise ValueError(f"output without a final newline: {text!r}")
    return text.splitlines()


def render_corpus(runs: list[list[str]]) -> str:
    lines = []
    for argv in runs:
        code, out, err = run(argv)
        lines.append(f"### qlinalg {shlex.join(argv)}")
        lines.append(f"exit: {code}")
        lines.append("--- stdout")
        lines.extend(_section(out))
        lines.append("--- stderr")
        lines.extend(_section(err))
    return "\n".join(lines) + "\n"


def test_corpus_covers_every_verb_plain_and_json():
    verbs = parser_verbs()
    assert {case[0] for case in CASES} == verbs
    records = parse_corpus(CORPUS.read_text())
    assert [argv for argv, *_ in records] == _invocations()
    # every verb has an answer in both formats
    answered = {
        (argv[0], "--format" in argv) for argv, code, _, _ in records if code == 0
    }
    assert answered == {(v, json_) for v in verbs for json_ in (False, True)}
    assert {code for _, code, _, _ in records} == {0, 1, 2}


def test_corpus_replays_byte_for_byte():
    for argv, code, out, err in parse_corpus(CORPUS.read_text()):
        assert run(argv) == (code, out, err), shlex.join(argv)


if __name__ == "__main__":
    CORPUS.write_text(render_corpus(_invocations()))
    sys.exit(0)
