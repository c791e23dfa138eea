"""Differential checks of the eigen pipeline against sympy, where installed.

sympy is not a dependency of the package; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

from qlinalg import Matrix, Polynomial, char_poly, rational_roots
from qlinalg.poly import _squarefree_part

import oracles

sympy = pytest.importorskip("sympy")

Q = Fraction
DENOMINATORS = (1, 2, 3, 5, 7, 11)


def _sympy_char_coefficients(grid):
    """Ascending coefficients of det(A - x I), computed by sympy."""
    m = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in grid]
    )
    descending = m.charpoly().all_coeffs()  # det(x I - A)
    sign = (-1) ** len(grid)
    return [sign * Q(int(c.p), int(c.q)) for c in reversed(descending)]


def test_char_poly_matches_sympy():
    rng = random.Random(16001)
    for n in range(1, 13):
        for _ in range(2):
            grid = [
                [Q(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(n)]
                for _ in range(n)
            ]
            assert list(char_poly(Matrix(grid)).coefficients) == (
                _sympy_char_coefficients(grid)
            )


def _quadratic_factors(rng):
    """Quadratics with no rational root.  Half the time a pair, x^2 - c and
    10^k x^2 - (c 10^k + 1), with roots less than 10^-k apart: closer than
    1/L for the product's primitive leading coefficient L, a multiple of 10^k."""
    if rng.random() < 0.5:
        c = rng.choice((2, 3, 5, 6, 7))
        k = rng.randint(1, 9)
        return [[-c, 0, 1], [-(c * 10 ** k + 1), 0, 10 ** k]]
    return [[rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(-9, 9), rng.randint(1, 9)]]


def _is_irreducible(quad):
    return sympy.Poly(quad[::-1], sympy.Symbol("x")).is_irreducible


def test_rational_roots_finds_every_constructed_root():
    rng = random.Random(16002)
    for _ in range(150):
        lead = rng.randint(1, 15)
        expected: dict[Fraction, int] = {}
        rest = [[lead * rng.choice((1, -1))]]
        linear = []  # (root, multiplicity) in the order drawn
        if rng.random() < 0.3:
            expected[Q(0)] = rng.randint(1, 3)
            linear.append((Q(0), expected[Q(0)]))
        for _ in range(rng.randint(0, 4)):
            root = Q(rng.randint(-40, 40), rng.randint(1, 15))
            mult = rng.randint(1, 3)
            expected[root] = expected.get(root, 0) + mult
            linear.append((root, mult))
        if rng.random() < 0.7:
            quads = _quadratic_factors(rng)
            if all(_is_irreducible(quad) for quad in quads):
                rest += quads

        roots, residual = rational_roots(oracles.poly_product(*rest, roots=linear))
        assert dict(roots) == expected
        assert len(roots) == len(expected)
        assert residual == oracles.poly_product(*rest)


def _sympy_rational_roots(p):
    """{root: multiplicity} of the linear factors sympy finds over Q."""
    coefficients = [sympy.Rational(c.numerator, c.denominator) for c in p.coefficients]
    poly = sympy.Poly(coefficients[::-1], sympy.Symbol("x"), domain="QQ")
    roots = {}
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            b, a = factor.all_coeffs()
            root = -a / b
            roots[Q(int(root.p), int(root.q))] = mult
    return roots


def _long_root(rng):
    bits = rng.randint(60, 200)
    return Q(rng.randint(-(2 ** bits), 2 ** bits), rng.randint(1, 2 ** rng.randint(1, bits)))


def test_rational_roots_match_sympy_on_long_coefficients():
    rng = random.Random(16003)
    for _ in range(40):
        p = Polynomial([Q(rng.randint(1, 2 ** 40) * rng.choice((1, -1)), rng.randint(1, 99))])
        while p.degree < 7 and rng.random() < 0.8:
            p = oracles.poly_product(p.coefficients, roots=[(_long_root(rng), rng.randint(1, 2))])
        if rng.random() < 0.6:
            p = oracles.poly_product(
                p.coefficients, [rng.randint(-(2 ** 80), 2 ** 80) for _ in range(3)]
            )
        if p.degree < 1:
            p = oracles.poly_product(p.coefficients, roots=[(_long_root(rng), 1)])
        roots, residual = rational_roots(p)
        assert dict(roots) == _sympy_rational_roots(p)
        assert residual.degree == p.degree - sum(m for _, m in roots)


def test_char_poly_roots_match_sympy_on_sixteen_by_sixteen():
    # [[B, C], [0, T]]: a 10x10 block B of p/q entries, usually without a
    # rational eigenvalue, above an upper triangular T whose diagonal repeats
    rng = random.Random(16004)
    for _ in range(4):
        diagonal = [Q(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(4)]
        diagonal += diagonal[:2]
        grid = [
            [
                Q(rng.randint(-9, 9), rng.choice(DENOMINATORS))
                if i < 10 or j > i else diagonal[i - 10] if j == i else Q(0)
                for j in range(16)
            ]
            for i in range(16)
        ]
        p = char_poly(Matrix(grid))
        roots, _ = rational_roots(p)
        assert dict(roots) == _sympy_rational_roots(p)
        assert all(dict(roots)[x] >= diagonal.count(x) for x in diagonal)


# ---- the squarefree part against sympy's sqf_part --------------------------------------


def _sympy_squarefree(q):
    """sympy's squarefree part of the ascending integer coefficients ``q``,
    primitive with a positive leading coefficient."""
    part = sympy.Poly(q[::-1], sympy.Symbol("x"), domain="ZZ").sqf_part()
    _, part = part.primitive()
    return [int(c) for c in part.all_coeffs()[::-1]] if part.LC() > 0 else [
        -int(c) for c in part.all_coeffs()[::-1]
    ]


def _factor(rng, family):
    """One factor of a drawn polynomial: degree 1-3, small coefficients, or
    64-200-bit ones in the "long" family; leading coefficient nonzero."""
    degree = rng.randint(1, 3)
    if family == "long":
        bits = rng.randint(64, 200)
        return [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(degree)] + [
            rng.randint(1, 2 ** bits)
        ]
    return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, 1, 2, 3, -1))]


def _drawn(rng, family):
    """Ascending primitive integer coefficients of a product of drawn factors.
    "integer" and "long" factors repeat now and then; "repeated" ones always
    do; "x^k" multiplies by x^k, k = 1..5."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        low = 2 if family == "repeated" else 1
        factors += [_factor(rng, family)] * rng.choice((low, low, 2, 3))
    if family == "x^k":
        factors += [[0, 1]] * rng.randint(1, 5)
    return oracles.poly_product(*factors).primitive_integer_coefficients()


def _positive(s):
    return list(s) if s[-1] > 0 else [-c for c in s]


@pytest.mark.parametrize("family", ("integer", "long", "repeated", "x^k"))
def test_squarefree_part_matches_sympy(family):
    rng = random.Random(f"squarefree/{family}")
    for _ in range(60):
        q = _drawn(rng, family)
        assert _positive(_squarefree_part(q)) == _sympy_squarefree(q), q


# Polynomials on which a weaker squarefree step goes wrong.  At an evaluation
# point xi = 2 min(|q|, |q'|), or lower, (x - a)^2 can give gcd(q(xi), q'(xi))
# a factor xi - a that the content of the digits absorbs, so a proper divisor
# of the gcd would be accepted; and for x^4 (x - 1) and (x + 3)(2x^2 - 1)
# the first candidate divides q but not q'.
_EDGES = (
    (1, -2, 1), (4, -4, 1), (25, -10, 1), (0, 0, 0, 0, -1, 1), (-3, -1, 6, 2),
    (0, 0, 9, -6, 1), (36, -12, 1), (-1, 0, 0, 0, 1),
)


@pytest.mark.parametrize("q", _EDGES)
def test_squarefree_part_matches_sympy_where_a_weaker_step_fails(q):
    assert _positive(_squarefree_part(q)) == _sympy_squarefree(q)


def test_squarefree_part_matches_sympy_on_characteristic_polynomials():
    rng = random.Random(16005)
    for n in range(1, 13):
        grid = [[Q(rng.randint(-3, 3), rng.choice(DENOMINATORS)) for _ in range(n)] for _ in range(n)]
        for i in range(n // 2):  # a rank-deficient top-left block: x^k and repeated roots
            grid[i] = [2 * x for x in grid[-1]]
        q = char_poly(Matrix(grid)).primitive_integer_coefficients()
        assert _positive(_squarefree_part(q)) == _sympy_squarefree(q), n
