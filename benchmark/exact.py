"""The benchmark's own exact arithmetic, written apart from qlinalg.

Matrices are lists of rows of ``Fraction``.  Nothing here imports the
package under test, so an answer that agrees with these helpers has been
checked by a second, independent computation.
"""

from __future__ import annotations

import re
from fractions import Fraction

Q = Fraction


def identity(n: int) -> list[list[Fraction]]:
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Q(0))


def matmul(a, b) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def matvec(a, v) -> list[Fraction]:
    return [dot(row, v) for row in a]


def rank(a) -> int:
    """Rank by plain Gaussian elimination on a private copy."""
    g = [list(r) for r in a]
    r = 0
    for c in range(len(g[0]) if g else 0):
        p = next((k for k in range(r, len(g)) if g[k][c] != 0), None)
        if p is None:
            continue
        g[r], g[p] = g[p], g[r]
        for k in range(r + 1, len(g)):
            if g[k][c] != 0:
                f = g[k][c] / g[r][c]
                g[k] = [x - f * y for x, y in zip(g[k], g[r])]
        r += 1
    return r


def poly_mul(p, q) -> list[Fraction]:
    """Product of ascending coefficient lists."""
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def render(a) -> str:
    """The row text format: entries by spaces, rows by ``;``."""
    return "; ".join(" ".join(str(x) for x in row) for row in a)


def render_augmented(a, b) -> str:
    return "; ".join(
        " ".join(str(x) for x in row) + " | " + str(v) for row, v in zip(a, b)
    )


# ---- row operations as printed by ``--trace`` --------------------------------

_SCALE = re.compile(r"(-?\d+(?:/\d+)?)R(\d+)\Z")
_ADD = re.compile(r"(-?(?:\d+(?:/\d+)?)?)R(\d+)\+R(\d+)->R(\d+)\Z")
_SWAP = re.compile(r"R(\d+)<->R(\d+)\Z")


def parse_row_op(text: str) -> tuple:
    """``('scale', alpha, i)``, ``('add', alpha, src, dst)`` or ``('swap', i, j)``.

    Rows come back 0-based; the text is 1-based.
    """
    m = _SWAP.match(text)
    if m:
        return ("swap", int(m.group(1)) - 1, int(m.group(2)) - 1)
    m = _ADD.match(text)
    if m:
        coef = {"": "1", "-": "-1"}.get(m.group(1), m.group(1))
        if m.group(3) != m.group(4):
            raise ValueError(f"target row named twice differently in {text!r}")
        return ("add", Q(coef), int(m.group(2)) - 1, int(m.group(3)) - 1)
    m = _SCALE.match(text)
    if m:
        return ("scale", Q(m.group(1)), int(m.group(2)) - 1)
    raise ValueError(f"not a row operation: {text!r}")


def apply_row_op(a, op) -> list[list[Fraction]]:
    g = [list(r) for r in a]
    if op[0] == "swap":
        g[op[1]], g[op[2]] = g[op[2]], g[op[1]]
    elif op[0] == "scale":
        g[op[2]] = [op[1] * x for x in g[op[2]]]
    else:
        _, alpha, src, dst = op
        g[dst] = [t + alpha * s for t, s in zip(g[dst], g[src])]
    return g


def parse_vector(text: str) -> list[Fraction]:
    """``(1, -1/3, 0)`` -> fractions."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a vector: {text!r}")
    return [Q(x) for x in body[1:-1].split(",")]


def parse_block(lines) -> list[list[Fraction]]:
    """Rows printed as ``[ 1  -2/3 ]``."""
    rows = []
    for line in lines:
        body = line.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"not a matrix row: {line!r}")
        rows.append([Q(x) for x in body[1:-1].split()])
    return rows


def parse_inline(text: str) -> list[list[Fraction]]:
    """``[1 0; 2/3 1]`` -> rows."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"not an inline matrix: {text!r}")
    return [[Q(x) for x in row.split()] for row in body[1:-1].split(";")]


def inverse(a) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a nonsingular matrix (used to build inputs)."""
    n = len(a)
    g = [list(r) + row for r, row in zip(a, identity(n))]
    for c in range(n):
        p = next(k for k in range(c, n) if g[k][c] != 0)
        g[c], g[p] = g[p], g[c]
        piv = g[c][c]
        g[c] = [x / piv for x in g[c]]
        for k in range(n):
            if k != c and g[k][c] != 0:
                f = g[k][c]
                g[k] = [x - f * y for x, y in zip(g[k], g[c])]
    return [r[n:] for r in g]
