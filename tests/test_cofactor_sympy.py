"""Differential checks of the cofactor route against sympy, where installed:
cofactor determinants and expansions, the adjoint (against sympy's
``DomainMatrix`` adjugate, read off the characteristic polynomial rather than
off minors), the adjoint-route inverse and Cramer's rule.

sympy is not a dependency of the package; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

from qlinalg import (
    Matrix,
    NotInvertible,
    SingularCoefficient,
    WrongSize,
    adjoint,
    cofactor_expand,
    cramer_solve,
    det_cofactor,
    inverse_adjoint,
)

sympy = pytest.importorskip("sympy")

Q = Fraction
INTEGER = (1,)
RATIONAL = (1, 2, 3, 5, 7)


def _to_sympy(grid):
    return sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in grid]
    )


def _from_sympy(m):
    return [[Q(int(c.p), int(c.q)) for c in m.row(i)] for i in range(m.rows)]


def _grid(rng, n, denominators, singular):
    """An n x n grid with some zero entries; when ``singular``, its last row is
    a combination of the others (the zero row when n = 1)."""
    grid = [
        [Q(rng.randint(-9, 9) if rng.random() > 0.2 else 0, rng.choice(denominators))
         for _ in range(n)]
        for _ in range(n)
    ]
    if singular:
        weights = [Q(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(n - 1)]
        grid[-1] = [sum((w * r[j] for w, r in zip(weights, grid)), Q(0)) for j in range(n)]
    return grid


def _cases():
    rng = random.Random(16101)
    for n in range(1, 7):
        for denominators in (INTEGER, RATIONAL):
            for singular in (False, True):
                for _ in range(3 if n < 6 else 1):
                    yield _grid(rng, n, denominators, singular)
    # larger sizes: one reduction per line keeps each case cheap
    for n, denominators, singular in (
        (9, INTEGER, False), (9, RATIONAL, True), (12, RATIONAL, False),
        (12, INTEGER, True), (16, INTEGER, False), (16, RATIONAL, False),
    ):
        yield _grid(rng, n, denominators, singular)


@pytest.mark.parametrize("grid", list(_cases()))
def test_cofactor_route_matches_sympy(grid):
    n = len(grid)
    a, s = Matrix(grid), _to_sympy(grid)
    d = s.det(method="bareiss")
    want = Q(int(d.p), int(d.q))
    assert det_cofactor(a) == want
    for k in range(n):
        assert cofactor_expand(a, row=k).value == want
        assert cofactor_expand(a, col=k).value == want
    if n > 1:
        assert adjoint(a) == Matrix(_from_sympy(s.to_DM().adjugate().to_Matrix()))
    b = [Q(k - 2, 1 + k % 3) for k in range(n)]
    if want == 0:
        with pytest.raises(NotInvertible):
            inverse_adjoint(a)
        with pytest.raises(SingularCoefficient):
            cramer_solve(a, b)
        return
    if n > 1:
        assert inverse_adjoint(a) == Matrix(_from_sympy(s.inv()))
    else:
        with pytest.raises(WrongSize):
            inverse_adjoint(a)
    x = s.LUsolve(_to_sympy([[c] for c in b]))
    assert list(cramer_solve(a, b)) == [row[0] for row in _from_sympy(x)]
