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
from math import comb, factorial, gcd, prod

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


_SCALAR = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d+))?\Z")


def parse_scalar_by_pattern(text):
    """The scalar reader as it stood with one pattern for the whole grammar:
    a match splits the token into sign, digits, denominator and fraction
    digits, read with ``int``.  Raises exceptions of the library's class
    names with its messages."""
    m = _SCALAR.match(text.strip())
    if m is None:
        raise MalformedScalar(f"not an exact scalar: {text!r}")
    sign, whole, den, frac = m.groups()
    if den is None and frac is None:
        return Fraction(int(sign + whole))
    if frac is not None:
        n = int(whole) * 10 ** len(frac) + int(frac)
        return Fraction(-n if sign == "-" else n, 10 ** len(frac))
    if not (q := int(den)):
        raise ZeroDenominator(f"zero denominator in {text!r}")
    return Fraction(int(sign + whole), q)


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
    ``pivots``, ``free``, ``order`` (the input row now at each row),
    ``chosen`` (pivot row, previous pivot), ``steps`` (``("swap", r, src)``
    or ``(pivot row, row, entry, row scale)``), ``sign``, ``last`` and
    ``scales``.
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
    pivots, free, chosen, steps, order = [], [], [], [], list(range(height))
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
            order[r], order[src] = order[src], order[r]
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
        pivots=pivots, free=free, order=order, chosen=chosen, steps=steps,
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


def _multiplied_out(factors, roots) -> list:
    """Ascending ``Fraction`` coefficients of the product of the coefficient
    lists ``factors`` and of (x - r)^m for each (r, m) in ``roots``, by
    schoolbook convolution ([1] when there is no factor)."""
    out = [Fraction(1)]
    for f in [*factors, *([-r, 1] for r, m in roots for _ in range(m))]:
        product = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                product[i + j] += a * b
        out = product
    return out


def poly_product(*factors, roots=()) -> Polynomial:
    """The ``Polynomial`` of the product of the ascending coefficient lists
    ``factors`` and of (x - r)^m for each (r, m) in ``roots``, multiplied out
    by schoolbook convolution (1 when there is no factor)."""
    return Polynomial(_multiplied_out(factors, roots))


def companion(roots, rest=(1,)):
    """The companion matrix of p(x) = prod (x - r)^m * rest(x) / lead(rest),
    over (r, m) in ``roots``, and p's ascending coefficients (its leading 1
    last).  Row i > 0 has a 1 at column i - 1, and the last column is
    -c_0, ..., -c_{n-1}, so det(x I - C) = p(x)."""
    p = [Fraction(c) / Fraction(rest[-1]) for c in _multiplied_out([rest], roots)]
    n = len(p) - 1
    rows = [[Fraction(int(j == i - 1)) for j in range(n - 1)] + [-p[i]] for i in range(n)]
    return rows, tuple(p)


def poly_gcd(a, b) -> tuple:
    """The monic gcd over Q of the ascending coefficient lists ``a`` and
    ``b``, not both zero, by Euclid's algorithm on ``Fraction`` remainders."""
    a, b = _stripped(a), _stripped(b)
    while b:
        rem = a
        while len(rem) >= len(b):
            f = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            rem = _stripped([x - f * (b[i - shift] if i >= shift else 0)
                             for i, x in enumerate(rem)][:-1])
        a, b = b, rem
    return tuple(c / a[-1] for c in a)


def _stripped(cs) -> list:
    """``Fraction`` coefficients without high zeros."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


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


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def gram_schmidt_by_projection(rows):
    """The textbook projection loop on the canonical basis of the rows' span
    (the nonzero rows of the semi-reduced matrix): each W_i is its source
    vector less dot(v, W_j)/|W_j|^2 times each earlier W_j.  Returns the
    vectors, squared norms, projections and source, each as a tuple."""
    _, end, pivots = eliminate(rows, 0)
    source = end[: len(pivots)]
    ws: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    projections: list[tuple[Fraction, ...]] = []
    for v in source:
        coeffs = tuple(dot(v, w) / n for w, n in zip(ws, norms))
        w = list(v)
        for c, earlier in zip(coeffs, ws):
            w = [x - c * e for x, e in zip(w, earlier)]
        wt = tuple(w)
        n2 = dot(wt, wt)
        assert n2 != 0, "independent input cannot orthogonalize to zero"
        ws.append(wt)
        norms.append(n2)
        projections.append(coeffs)
    return tuple(ws), tuple(norms), tuple(projections), source


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


# ---- closed-form families: each matrix and its answers from a formula ------------


def cauchy(xs, ys):
    """The Cauchy matrix [1/(x_i + y_j)]."""
    return [[1 / Fraction(x + y) for y in ys] for x in xs]


def cauchy_det(xs, ys) -> Fraction:
    """prod_{i<j} (x_j - x_i)(y_j - y_i) / prod_{i,j} (x_i + y_j)."""
    n = len(xs)
    num = prod((xs[j] - xs[i]) * (ys[j] - ys[i]) for i in range(n) for j in range(i + 1, n))
    return Fraction(num) / prod(Fraction(x + y) for x in xs for y in ys)


def cauchy_inverse(xs, ys):
    """(C^-1)_ij = -a(-y_i) b(x_j) / ((x_j + y_i) a'(x_j) b'(-y_i)) with
    a(t) = prod (t - x_k) and b(t) = prod (t + y_k): the Lagrange form of the
    inverse of a Cauchy matrix."""
    one = Fraction(1)
    a_at = [prod((-y - x for x in xs), start=one) for y in ys]  # a(-y_i)
    b_at = [prod((x + y for y in ys), start=one) for x in xs]  # b(x_j)
    da = [prod((x - u for u in xs if u != x), start=one) for x in xs]  # a'(x_j)
    db = [prod((u - y for u in ys if u != y), start=one) for y in ys]  # b'(-y_i)
    return [
        [-a_at[i] * b_at[j] / ((x + y) * da[j] * db[i]) for j, x in enumerate(xs)]
        for i, y in enumerate(ys)
    ]


def hilbert(n):
    """H_n = [1/(i + j - 1)] for 1 <= i, j <= n: the Cauchy matrix of
    x = (1, ..., n), y = (0, ..., n - 1)."""
    return [[Fraction(1, i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)]


def hilbert_det(n) -> Fraction:
    """c_n^4 / c_2n with c_n = prod_{k<n} k!."""
    c_n, c_2n = (prod(map(factorial, range(m))) for m in (n, 2 * n))
    return Fraction(c_n ** 4, c_2n)


def hilbert_inverse(n):
    """(H_n^-1)_ij = (-1)^(i+j) (i + j - 1) C(n + i - 1, n - j) C(n + j - 1, n - i)
    C(i + j - 2, i - 1)^2 (M.-D. Choi, Amer. Math. Monthly 90, 1983): integers."""
    return [
        [
            (-1) ** (i + j) * (i + j - 1) * comb(n + i - 1, n - j) * comb(n + j - 1, n - i)
            * comb(i + j - 2, i - 1) ** 2
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]


def hadamard(n):
    """Sylvester's Hadamard matrix of order n = 2^k: H_2m = [[H_m, H_m], [H_m, -H_m]].
    H H^T = n I, so |det H| = n^(n/2) and H^-1 = H / n (H is symmetric)."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    assert len(h) == n, "the order must be a power of 2"
    return h


def vandermonde(xs):
    """The Vandermonde matrix [x_i^j], 0 <= j < n, of the nodes ``xs``."""
    return [[Fraction(x) ** j for j in range(len(xs))] for x in xs]


def vandermonde_det(xs) -> Fraction:
    """prod_{i<j} (x_j - x_i): zero exactly when two nodes are equal."""
    n = len(xs)
    diffs = (Fraction(xs[j]) - xs[i] for i in range(n) for j in range(i + 1, n))
    return prod(diffs, start=Fraction(1))


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
