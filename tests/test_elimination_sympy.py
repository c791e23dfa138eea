"""Differential checks of the fraction-free sweep's readers against sympy,
where installed: eigenspaces, the fundamental subspaces, ``solve``, the
Gauss-Jordan inverse, the completely reduced form, ``det`` and Gram-Schmidt;
``det``, ``solve``, the inverse and Gram-Schmidt on 64- to 200-bit numerators
as well.

sympy is not a dependency of the package; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

from qlinalg import (
    AllZeroInput,
    Inconsistent,
    Infinite,
    Matrix,
    NotInvertible,
    Unique,
    det,
    eigen_summary,
    fundamental_subspaces,
    gram_schmidt,
    inverse_gauss_jordan,
    leaders,
    reduce,
    solve,
)

sympy = pytest.importorskip("sympy")

Q = Fraction
INTEGER = (1,)
RATIONAL = (1, 2, 3, 5, 7)


def _to_sympy(grid):
    return sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in grid]
    )


def _fraction(x):
    return Q(int(x.p), int(x.q))


def _vector(column):
    """A sympy column as a tuple of Fractions."""
    return tuple(_fraction(x) for x in column)


def _grid(rng, rows, cols, denominators):
    """A grid with about one zero entry in four; now and then a zero column,
    and, past two rows, a last row that combines the first two."""
    grid = [
        [Q(rng.randint(-9, 9) if rng.random() > 0.25 else 0, rng.choice(denominators))
         for _ in range(cols)]
        for _ in range(rows)
    ]
    if rng.random() < 0.25:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = Q(0)
    if rows > 2 and rng.random() < 0.5:
        w = Q(rng.randint(-3, 3), rng.choice(denominators))
        grid[-1] = [x + w * y for x, y in zip(grid[0], grid[1])]
    return grid


def _grids():
    rng = random.Random(18101)
    for rows in range(1, 8):
        for cols in range(1, 8):
            yield _grid(rng, rows, cols, INTEGER if (rows + cols) % 2 else RATIONAL)


def _long_grids():
    """1x1 to 7x7 grids of 64- to 200-bit numerators over either kind of
    denominator, each with its wide and tall slices; past two rows, the 64-
    and 200-bit ones have a dependent last row."""
    rng = random.Random(19101)
    for n in range(1, 8):
        for bits in (64, 128, 200):
            dens = INTEGER if (n + bits) % 2 else RATIONAL
            grid = [[Q(rng.getrandbits(bits) * rng.choice((1, -1)), rng.choice(dens))
                     for _ in range(n)] for _ in range(n)]
            if n > 2 and bits != 128:
                grid[-1] = [x - 3 * y for x, y in zip(grid[0], grid[1])]
            yield grid
            if n > 1:
                yield grid[1:]  # wide
                yield [row[1:] for row in grid]  # tall


GRIDS = list(_grids())
LONG = list(_long_grids())
_FULL = random.Random(18103)
# the squares of GRIDS, each once more with its last row the sum of the
# others, and dense squares of both entry kinds
SQUARES = [g for g in GRIDS if len(g) == len(g[0])]
SQUARES += [g[:-1] + [[sum(col[:-1], Q(0)) for col in zip(*g)]] for g in SQUARES] + [
    [[Q(_FULL.randint(1, 9) * _FULL.choice((1, -1)), _FULL.choice(dens)) for _ in range(n)]
     for _ in range(n)]
    for n in range(1, 8) for dens in (INTEGER, RATIONAL)
]
LONG_SQUARES = [g for g in LONG if len(g) == len(g[0])]


@pytest.mark.parametrize("grid", GRIDS)
def test_fundamental_subspaces_and_rref_match_sympy(grid):
    a, s = Matrix(grid), _to_sympy(grid)
    found = fundamental_subspaces(a)
    assert found.rank == s.rank()
    assert found.null.basis == tuple(_vector(v) for v in s.nullspace())
    assert found.column.basis == tuple(_vector(v) for v in s.columnspace())
    end, _ = reduce(a, "completely_reduced")
    rref, pivots = s.rref()
    assert end == Matrix([list(_vector(rref.row(i))) for i in range(rref.rows)])
    assert tuple(j for _, j in leaders(end)) == pivots


@pytest.mark.parametrize("grid", GRIDS + LONG)
def test_solve_matches_gauss_jordan_solve(grid):
    rng = random.Random(repr(grid))
    b = [Q(rng.randint(-5, 5), rng.choice(RATIONAL)) for _ in grid]
    if rng.random() < 0.6:  # consistent: b = A x
        x = [Q(rng.randint(-5, 5), rng.choice(RATIONAL)) for _ in grid[0]]
        b = [sum((u * v for u, v in zip(row, x)), Q(0)) for row in grid]
    answer = solve(Matrix(grid), b)
    try:
        solution, params = _to_sympy(grid).gauss_jordan_solve(_to_sympy([[x] for x in b]))
    except ValueError:
        assert isinstance(answer, Inconsistent)
        return
    if not params:
        assert isinstance(answer, Unique)
        assert answer.values == _vector(solution)
        return
    assert isinstance(answer, Infinite)
    # each free column of sympy's solution is its own parameter
    symbols = [solution[f] for f in answer.free]
    assert set(symbols) == set(params)
    for k in range(-1, len(symbols)):  # the particular solution, then each free unit
        unit = [int(i == k) for i in range(len(symbols))]
        point = solution.subs(dict(zip(symbols, unit)))
        assert answer.at(unit) == _vector(point)


@pytest.mark.parametrize("grid", SQUARES + LONG_SQUARES)
def test_inverse_gauss_jordan_matches_inv(grid):
    s = _to_sympy(grid)
    if s.det() == 0:
        with pytest.raises(NotInvertible):
            inverse_gauss_jordan(Matrix(grid))
        return
    inverse = s.inv()
    assert inverse_gauss_jordan(Matrix(grid)) == Matrix(
        [list(_vector(inverse.row(i))) for i in range(inverse.rows)]
    )


@pytest.mark.parametrize("grid", SQUARES + LONG_SQUARES)
def test_det_matches_bareiss(grid):
    assert det(Matrix(grid)) == _fraction(_to_sympy(grid).det(method="bareiss"))


@pytest.mark.parametrize("grid", GRIDS + LONG)
def test_gram_schmidt_matches_sympy_on_its_source(grid):
    if not any(any(row) for row in grid):
        with pytest.raises(AllZeroInput):
            gram_schmidt(grid)
        return
    answer = gram_schmidt(grid)
    vs = [_to_sympy([v]) for v in answer.source]
    ws = sympy.GramSchmidt(vs, orthonormal=False)
    assert answer.vectors == tuple(_vector(w) for w in ws)
    assert answer.squared_norms == tuple(_fraction(w.dot(w)) for w in ws)
    assert answer.projections == tuple(
        tuple(_fraction(v.dot(w) / w.dot(w)) for w in ws[:i]) for i, v in enumerate(vs)
    )


def _similar(rng, n, denominators):
    """P J P^-1 for a unimodular-ish P and a J of rational eigenvalues, some
    repeated, with a Jordan block now and then (so a short eigenspace)."""
    while True:
        p = _to_sympy(_grid(rng, n, n, INTEGER))
        if p.det() != 0:
            break
    values = [Q(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(n)]
    j = sympy.zeros(n, n)
    for i in range(n):
        j[i, i] = sympy.Rational(values[i].numerator, values[i].denominator)
        if i and rng.random() < 0.3:
            j[i, i] = j[i - 1, i - 1]
            j[i - 1, i] = 1 if rng.random() < 0.5 else 0
    product = p * j * p.inv()
    return [[_fraction(product[i, k]) for k in range(n)] for i in range(n)]


def _eigen_grids():
    rng = random.Random(18102)
    for n in range(1, 7):
        for denominators in (INTEGER, RATIONAL):
            yield _similar(rng, n, denominators)
    yield [[Q(0), Q(-1)], [Q(1), Q(0)]]  # no rational eigenvalue
    yield [[Q(1), Q(2), Q(0)], [Q(3), Q(4), Q(0)], [Q(0), Q(0), Q(5, 2)]]  # one of three


@pytest.mark.parametrize("grid", list(_eigen_grids()))
def test_eigenspaces_match_eigenvects(grid):
    summary = eigen_summary(Matrix(grid))
    rational = {
        _fraction(value): (mult, tuple(_vector(v) for v in vectors))
        for value, mult, vectors in _to_sympy(grid).eigenvects()
        if value.is_rational
    }
    assert dict(summary.roots) == {lam: mult for lam, (mult, _) in rational.items()}
    for lam, space in summary.spaces:
        basis = rational[lam][1]
        assert space.dimension == len(basis)
        assert all(v in space for v in basis)
