"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles on plain
tuples of Fractions — no imports from the package under test — so that
agreement between these oracles and the library is meaningful.  The one
exception is :func:`poly_product`, a builder of test inputs, which hands its
product over as the library's ``Polynomial`` value.
"""

import re
from fractions import Fraction
from itertools import permutations
from math import gcd

from qlinalg import Polynomial


def perm_parity(perm) -> int:
    """+1 for even permutations, -1 for odd (by counting inversions)."""
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_det(rows) -> Fraction:
    """Determinant straight from the permutation-sum definition (n! terms)."""
    grid = [list(r) for r in rows]
    n = len(grid)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(perm_parity(perm))
        for i in range(n):
            prod *= grid[i][perm[i]]
        total += prod
    return total


def render_sum(constant, terms) -> str:
    """``c0 + c1 name1 - ...`` text: zero coefficients dropped, a coefficient
    of magnitude 1 left out, a non-integer one parenthesised, and the constant
    shown when it is nonzero or stands alone."""
    signed = []  # (negative?, text) per shown piece
    if constant != 0 or not terms:
        signed.append((constant < 0, f"{abs(constant)}"))
    for name, c in terms:
        if c == 0:
            continue
        size = abs(c)
        if size == 1:
            text = name
        elif size.denominator == 1:
            text = f"{size.numerator}{name}"
        else:
            text = f"({size.numerator}/{size.denominator}){name}"
        signed.append((c < 0, text))
    if not signed:
        return "0"
    (negative, text), rest = signed[0], signed[1:]
    return ("-" if negative else "") + text + "".join(
        (" - " if neg else " + ") + t for neg, t in rest
    )


def render_polynomial(coefficients, var) -> str:
    """Ascending text of the polynomial with these coefficients in ``var``."""
    if not coefficients:
        return "0"
    monomials = [(var if k == 1 else f"{var}^{k}", c) for k, c in enumerate(coefficients)]
    return render_sum(coefficients[0], monomials[1:])


class MalformedScalar(ValueError):
    """Stands in for the library's error of the same name."""


class ZeroDenominator(ValueError):
    """Stands in for the library's error of the same name."""


_INT = re.compile(r"[+-]?\d+\Z")
_RATIO = re.compile(r"([+-]?\d+)/(\d+)\Z")
_DECIMAL = re.compile(r"[+-]?\d+\.\d+\Z")


def parse_scalar_reference(text):
    """The scalar reader as it stood before the single-grammar one: three
    regexes pick the token's shape and ``Fraction(str)`` reads its value.
    Raises exceptions of the library's class names with its messages."""
    s = text.strip()
    if _INT.match(s) or _DECIMAL.match(s):
        return Fraction(s)
    m = _RATIO.match(s)
    if m:
        if int(m.group(2)) == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return Fraction(s)
    raise MalformedScalar(f"not an exact scalar: {text!r}")


def naive_matmul(a, b):
    """Plain triple-loop product on nested sequences."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [
            sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(inner)),
                Fraction(0))
            for j in range(cols)
        ]
        for i in range(rows)
    ]


def naive_power(a, k: int):
    """Repeated multiplication, no squaring tricks."""
    n = len(a)
    result = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(k):
        result = naive_matmul(result, a)
    return result


def residual(a, x, b) -> list:
    """A x - b computed entrywise; all zeros iff x solves the system."""
    n = len(a[0])
    assert len(x) == n
    return [
        sum((Fraction(a[i][j]) * Fraction(x[j]) for j in range(n)), Fraction(0))
        - Fraction(b[i])
        for i in range(len(a))
    ]


def rank(rows) -> int:
    """Rank by plain Gaussian elimination on a private copy (0 for no rows)."""
    grid = [[Fraction(x) for x in row] for row in rows]
    found = 0
    for c in range(len(grid[0]) if grid else 0):
        pivot = next((i for i in range(found, len(grid)) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[found], grid[pivot] = grid[pivot], grid[found]
        for i in range(found + 1, len(grid)):
            f = grid[i][c] / grid[found][c]
            grid[i] = [x - f * y for x, y in zip(grid[i], grid[found])]
        found += 1
    return found


def apply_op(grid, op) -> None:
    """One plain-tuple row operation, in place: ("swap", i, k),
    ("add", alpha, source, target) or ("scale", alpha, row)."""
    if op[0] == "swap":
        _, i, k = op
        grid[i], grid[k] = grid[k], grid[i]
    elif op[0] == "add":
        _, alpha, src, tgt = op
        grid[tgt] = [t + alpha * s for t, s in zip(grid[tgt], grid[src])]
    else:
        _, alpha, row = op
        grid[row] = [alpha * x for x in grid[row]]


def eliminate(rows, stage):
    """Row reduction by the textbook rule, on a private ``Fraction`` copy.

    Columns left to right; the topmost nonzero row at or below the working
    row is swapped up, and each nonzero entry below the pivot is cleared.
    Stage 1 then scales every pivot that is not 1 to 1; stage 2 also clears
    above the pivots, last pivot first, nearest row first.  Returns the
    plain-tuple operations, the end grid as a tuple of tuples, and the
    (row, column) of every pivot.
    """
    grid = [[Fraction(x) for x in row] for row in rows]
    ops, pivots = [], []

    def do(op):
        apply_op(grid, op)
        ops.append(op)

    for c in range(len(grid[0])):
        r = len(pivots)
        if r == len(grid):
            break
        src = next((k for k in range(r, len(grid)) if grid[k][c] != 0), None)
        if src is None:
            continue
        if src != r:
            do(("swap", r, src))
        for k in range(r + 1, len(grid)):
            if grid[k][c] != 0:
                do(("add", -grid[k][c] / grid[r][c], r, k))
        pivots.append((r, c))
    if stage >= 1:
        for r, c in pivots:
            if grid[r][c] != 1:
                do(("scale", 1 / grid[r][c], r))
    if stage >= 2:
        for r, c in reversed(pivots):
            for k in range(r - 1, -1, -1):
                if grid[k][c] != 0:
                    do(("add", -grid[k][c], r, k))
    return ops, tuple(tuple(row) for row in grid), pivots


def fraction_free_reference(rows):
    """The fraction-free sweep as the library ran it before its rows shrank,
    on full-width rows: the record of one downward Bareiss run.

    Each row is cleared by the lcm of its entries' denominators (an int row
    keeps scale 1); the topmost nonzero row at or below the working row is
    swapped up, and every row below the pivot becomes ``(p*x - a*y) // prev``
    with its columns up to the pivot's set to 0.  Returns a dict of
    ``pivots``, ``free``, ``chosen`` (pivot row, previous pivot), ``steps``
    (``("swap", r, src)`` or ``(pivot row, row, entry, row scale)``),
    ``sign``, ``last`` and ``scales``.
    """
    grid, scales = [], []
    for row in rows:
        row = [Fraction(x) for x in row]
        s = 1
        for x in row:
            s = s * x.denominator // gcd(s, x.denominator)
        grid.append([int(x * s) for x in row])
        scales.append(s)
    height, width = len(grid), len(grid[0])
    pivots, free, chosen, steps = [], [], [], []
    sign = prev = 1
    r = 0
    for c in range(width):
        if r == height:
            free += range(c, width)
            break
        src = next((k for k in range(r, height) if grid[k][c]), None)
        if src is None:
            free.append(c)
            continue
        if src != r:
            grid[r], grid[src] = grid[src], grid[r]
            scales[r], scales[src] = scales[src], scales[r]
            sign = -sign
            steps.append(("swap", r, src))
        top = grid[r]
        p, zeros, tail = top[c], [0] * (c + 1), top[c + 1:]
        for k in range(r + 1, height):
            row = grid[k]
            if a := row[c]:
                grid[k] = zeros + [(p * x - a * y) // prev for x, y in zip(row[c + 1:], tail)]
                steps.append((r, k, a, scales[k]))
            else:
                grid[k] = zeros + [p * x // prev for x in row[c + 1:]]
        pivots.append(c)
        chosen.append((top, prev))
        prev = p
        r += 1
    return dict(
        pivots=pivots, free=free, chosen=chosen, steps=steps,
        sign=sign, last=prev, scales=scales,
    )


def det_by_elimination(rows) -> Fraction:
    """Product of the semi-reduced diagonal, signed by the swaps."""
    ops, end, pivots = eliminate(rows, 0)
    if len(pivots) < len(rows):
        return Fraction(0)
    value = Fraction((-1) ** sum(op[0] == "swap" for op in ops))
    for i in range(len(rows)):
        value *= end[i][i]
    return value


def solve_by_elimination(a_rows, b):
    """("inconsistent", row, semi-reduced value), ("unique", values) or
    ("infinite", leading, free, constants, coefficients), read off the
    reduced augmented matrix."""
    aug = [list(row) + [c] for row, c in zip(a_rows, b)]
    n = len(a_rows[0])
    _, semi, pivots = eliminate(aug, 0)
    for i, j in pivots:
        if j == n:
            return ("inconsistent", i, semi[i][n])
    _, full, pivots = eliminate(aug, 2)
    leading = tuple(j for _, j in pivots)
    free = tuple(j for j in range(n) if j not in leading)
    constants = tuple(full[i][n] for i, _ in pivots)
    if not free:
        return ("unique", constants)
    coefficients = tuple(tuple(-full[i][f] for f in free) for i, _ in pivots)
    return ("infinite", leading, free, constants, coefficients)


def inverse_by_elimination(rows):
    """The right half of the reduced [A | I], or None when A is singular."""
    n = len(rows)
    both = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    _, full, pivots = eliminate(both, 2)
    if [j for _, j in pivots] != list(range(n)):
        return None
    return tuple(row[n:] for row in full)


def null_basis(rows):
    """One kernel vector per free column: that column set to 1, the other
    free columns to 0, the leading variables read off the reduced matrix."""
    _, full, pivots = eliminate(rows, 2)
    cols = len(rows[0])
    lead = {j for _, j in pivots}
    basis = []
    for f in (f for f in range(cols) if f not in lead):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, j in pivots:
            v[j] = -full[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def char_poly_by_interpolation(rows):
    """Ascending coefficients of det(A - xI): the determinant by elimination
    at x = 0..n, then the Lagrange polynomial through those n+1 points."""
    n = len(rows)
    points = range(n + 1)
    coeffs = [Fraction(0)] * (n + 1)
    for t in points:
        shifted = [[Fraction(x) - (t if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(rows)]
        value = det_by_elimination(shifted)
        # basis: ascending coefficients of prod over s != t of (x - s)
        basis, scale = [Fraction(1)], Fraction(1)
        for s in points:
            if s != t:
                basis = [lo - s * hi for lo, hi in zip([0] + basis, basis + [0])]
                scale *= t - s
        coeffs = [c + value * b / scale for c, b in zip(coeffs, basis)]
    return tuple(coeffs)


def poly_product(*factors, roots=()) -> Polynomial:
    """The ``Polynomial`` of the product of the ascending coefficient lists
    ``factors`` and of (x - r)^m for each (r, m) in ``roots``, multiplied out
    by schoolbook convolution (1 when there is no factor)."""
    out = [Fraction(1)]
    for f in [*factors, *([-r, 1] for r, m in roots for _ in range(m))]:
        product = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                product[i + j] += a * b
        out = product
    return Polynomial(out)


def first_vanishing(rows):
    """None for independent rows; else (row, op) for the first row the
    downward sweep empties, op being None when a zero row was given."""
    if rank(rows) == len(rows):
        return None
    zero = next((i for i, row in enumerate(rows) if not any(row)), None)
    if zero is not None:
        return (zero, None)
    grid = [[Fraction(x) for x in row] for row in rows]
    for op in eliminate(rows, 0)[0]:
        apply_op(grid, op)
        if op[0] == "add" and not any(grid[op[3]]):
            return (op[3], op)
    raise AssertionError("no row vanished in a dependent family")


def greedy_extension(vectors):
    """Extension to a basis by its definition: None for a dependent input,
    else the inputs followed by each of e1, e2, ... that keeps the set
    independent, tried in order."""
    n = len(vectors[0])
    current = [tuple(Fraction(x) for x in v) for v in vectors]
    if rank(current) < len(current):
        return None
    for j in range(n):
        if len(current) == n:
            break
        e = tuple(Fraction(int(t == j)) for t in range(n))
        if rank(current + [e]) == len(current) + 1:
            current.append(e)
    return tuple(current)


def in_span(basis, v) -> bool:
    """Is ``v`` a combination of the independent ``basis`` (zero when empty)?"""
    return rank(list(basis) + [v]) == len(basis)


def same_span_by_membership(ambient_a, basis_a, ambient_b, basis_b) -> bool:
    """Span equality as mutual membership of the two bases."""
    return (
        ambient_a == ambient_b
        and all(in_span(basis_a, v) for v in basis_b)
        and all(in_span(basis_b, v) for v in basis_a)
    )


def rand_fraction(rng, lo=-6, hi=6, denominators=(1, 1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def rand_grid(rng, rows, cols, **kw):
    return [[rand_fraction(rng, **kw) for _ in range(cols)] for _ in range(rows)]


def rand_invertible_grid(rng, n, **kw):
    while True:
        g = rand_grid(rng, n, n, **kw)
        if leibniz_det(g) != 0:
            return g


# An 8x8 matrix whose characteristic polynomial has no rational root; its
# primitive integer form has a 67-bit constant term and a 56-bit leading
# coefficient, which defeated enumerating divisors of the constant term.
UNSPLIT_8X8 = (
    "-2/3 3/2 -3/11 -8 -5/2 7/2 3/11 -9/5; "
    "6/5 3/5 9/2 3 3 -9/11 -1/7 4/5; "
    "3/11 -6/11 -1 -7/5 3 -8/3 -2/11 -7/5; "
    "7/2 9/2 -1 -8/5 -3/2 9/5 9/5 0; "
    "2/5 -5/2 -6/7 1/11 2/11 6/7 -1 -5/3; "
    "7/3 7/11 -1 4 1 -3 1/2 -1; "
    "4/3 1 2 3 -4/11 -9/2 -4/3 -6; "
    "1 -4/7 2 -1 9/5 4/5 -1 -7/3"
)
