"""The committed answers hold on every other local CPython the package supports.

``scalars._ratio`` fills ``Fraction``'s private slots, so a CPython that
renamed them would change every answer while this suite, run by one
interpreter, stayed green.  This test finds the other local interpreters of
version 3.10 or later (``requires-python``): those under
``~/.pyenv/versions`` and the ``python3.1x`` executables on ``PATH``, leaving
out pyenv's shims (they need not resolve), copies of one binary and the
running interpreter's minor version.  It runs ``tests/replay.py``, which
needs only the standard library, once in each, one process at a time, at
most five in all, and reports every differing entry by interpreter, file and
entry.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
MOST = 5


def _version(text: str) -> tuple[int, ...] | None:
    """(3, 12) from "3.12.1" or "python3.12"; None for anything else."""
    parts = text.removeprefix("python").split(".")[:2]
    return tuple(map(int, parts)) if len(parts) == 2 and all(map(str.isdigit, parts)) else None


def _interpreters() -> list[tuple[str, Path]]:
    """(version, path) of each other local CPython >= 3.10, at most ``MOST``."""
    pyenv = Path.home() / ".pyenv" / "versions"
    found = [(d.name, d / "bin" / "python") for d in sorted(pyenv.glob("3.*"))]
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        if directory and Path(directory).name != "shims":
            found += [(p.name, p) for p in sorted(Path(directory).glob("python3.1[0-9]"))]
    running = sys.version_info[:2]
    seen = {os.path.realpath(sys.executable)}
    chosen = []
    for name, path in found:
        version, real = _version(name), os.path.realpath(path)
        if (
            version is None or version < (3, 10) or version == running
            or real in seen or not os.access(real, os.X_OK)
        ):
            continue
        seen.add(real)
        chosen.append((name, path))
    return chosen[:MOST]


def test_the_answers_hold_on_every_other_local_interpreter():
    interpreters = _interpreters()
    if not interpreters:
        pytest.skip(
            "no other CPython >= 3.10 found under ~/.pyenv/versions "
            "or as python3.1x on PATH"
        )
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    failures = []
    for name, path in interpreters:
        done = subprocess.run(
            [str(path), "-S", str(TESTS / "replay.py")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        lines = done.stdout.splitlines() or done.stderr.splitlines()[-3:]
        if done.returncode or lines:
            failures += [f"{path} ({name}): {line}" for line in lines or ["no output"]]
    assert not failures, "\n".join(failures)
