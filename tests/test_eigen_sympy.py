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
