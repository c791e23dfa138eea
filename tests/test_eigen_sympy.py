"""Differential checks of the eigen pipeline against sympy, where installed.

sympy is not a dependency of the package; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

from qlinalg import Matrix, Polynomial, char_poly, rational_roots

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
        return [Polynomial([-c, 0, 1]), Polynomial([-(c * 10 ** k + 1), 0, 10 ** k])]
    return [Polynomial(
        [rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(-9, 9), rng.randint(1, 9)]
    )]


def _is_irreducible(quad):
    coefficients = [sympy.Rational(c.numerator, c.denominator) for c in quad.coefficients]
    return sympy.Poly(coefficients[::-1], sympy.Symbol("x")).is_irreducible


def test_rational_roots_finds_every_constructed_root():
    rng = random.Random(16002)
    for _ in range(150):
        lead = rng.randint(1, 15)
        expected: dict[Fraction, int] = {}
        p = Polynomial([lead * rng.choice((1, -1))])
        if rng.random() < 0.3:
            expected[Q(0)] = rng.randint(1, 3)
            p = p * Polynomial([0, 1]) ** expected[Q(0)]
        for _ in range(rng.randint(0, 4)):
            root = Q(rng.randint(-40, 40), rng.randint(1, 15))
            mult = rng.randint(1, 3)
            expected[root] = expected.get(root, 0) + mult
            p = p * Polynomial([-root, 1]) ** mult
        rest = Polynomial([p.coefficients[-1]])
        if rng.random() < 0.7:
            quads = _quadratic_factors(rng)
            if all(_is_irreducible(quad) for quad in quads):
                for quad in quads:
                    rest = rest * quad
                    p = p * quad

        roots, residual = rational_roots(p)
        assert dict(roots) == expected
        assert len(roots) == len(expected)
        assert residual == rest


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
            p = p * Polynomial([-_long_root(rng), 1]) ** rng.randint(1, 2)
        if rng.random() < 0.6:
            p = p * Polynomial([rng.randint(-(2 ** 80), 2 ** 80) for _ in range(3)])
        if p.degree < 1:
            p = p * Polynomial([-_long_root(rng), 1])
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
