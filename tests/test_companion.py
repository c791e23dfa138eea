"""Companion matrices as closed-form eigen oracles.

The companion matrix C of p(x) = prod (x - r)^m * f(x), f irreducible over Q
or 1, is built from p's coefficients alone (``oracles.companion``).  Its
characteristic polynomial det(C - x I) is (-1)^n p(x), its rational
eigenvalues are the chosen roots with their multiplicities, and, C being
nonderogatory, every eigenspace is a line.  So ``eigen_summary`` and
``diagonalize`` must find C diagonalizable exactly when every m is 1, and
not split, with residual (-1)^n f / lead(f), when f != 1.
"""

from fractions import Fraction

import pytest

from qlinalg import (
    Diagonalizable,
    Matrix,
    NotDiagonalizable,
    NotSplit,
    Polynomial,
    diagonalize,
    eigen_summary,
)

import oracles

Q = Fraction

# (roots with multiplicities, f)
_CASES = [
    # 2 (x + 1)^4 (x - 1/2)(x - 1): the squarefree step needs five points
    ({Q(-1): 4, Q(1, 2): 1, Q(1): 1}, (1,)),
    ({Q(-1): 4, Q(1): 1, Q(2): 1}, (1,)),
    ({Q(3): 1, Q(-2): 1, Q(1, 3): 1, Q(5, 2): 1}, (1,)),
    ({Q(0): 3, Q(2): 1, Q(-7, 3): 2}, (1,)),
    ({Q(2 ** 40 + 15, 3): 2, Q(-(2 ** 35), 7): 1, Q(1): 1}, (1,)),
    ({Q(1, 2): 1, Q(-4): 1}, (1, 0, 1)),
    ({Q(2): 3, Q(0): 1}, (-3, 0, 2)),
    ({Q(-1, 3): 2}, (-2, 0, 0, 1)),
    ({}, (5, 5, 0, 0, 3)),
    # n = 11 to 24: roots over 3, 5, 7, 11 and 13 with 20-160-bit numerators,
    # so that d and each mu = d lam run to hundreds of bits
    ({Q(2**20 + 7, 3): 1, Q(-(2**24 + 1), 5): 1, Q(2**28 - 3, 7): 1,
      Q(-(2**32 + 9), 11): 1, Q(2**36 + 5, 13): 1, Q(1, 3): 1, Q(-2, 5): 1,
      Q(3, 7): 1, Q(-4, 11): 1, Q(5, 13): 1, Q(-1): 1}, (1,)),
    ({Q(2**40 + 3, 7): 4, Q(-(2**60 + 11), 13): 1, Q(2**22 + 1, 3): 2,
      Q(-(2**30), 5): 1, Q(7, 11): 1, Q(0): 1, Q(-5, 3): 2}, (1,)),
    # 3 x^4 + 5 x + 10 is irreducible (Eisenstein at 5)
    ({Q(3**50 + 2, 5): 1, Q(-(2**80 + 1), 11): 2, Q(2**100 + 9, 13): 1,
      Q(5**40, 7): 1, Q(-1, 3): 1, Q(9, 13): 3, Q(2**26 + 1, 3): 1,
      Q(-(7**30), 11): 1, Q(4, 5): 1}, (10, 5, 0, 0, 3)),
    ({**{Q((-1) ** b * (2**b + 2 * b + 1), den): 1
         for b, den in zip((20, 50, 80, 110, 140, 160), (3, 5, 7, 11, 13, 3))},
      **{Q(k, (3, 5, 7, 11, 13)[k % 5]): 1 for k in range(-7, 7)}}, (1,)),
    ({Q(2**160 + 1, 13): 5, Q(-(2**120 + 3), 11): 3, Q(2**64 + 5, 7): 2,
      **{Q(k, (3, 5, 7, 11, 13)[k % 5]): 1 for k in range(1, 15)}}, (1,)),
]


def _is_line_of_eigenvectors(rows, lam, space):
    """Is ``space`` one line, spanned by some v != 0 with C v = lam v?"""
    if space.dimension != 1:
        return False
    (v,) = space.basis
    return any(v) and [x for (x,) in oracles.naive_matmul(rows, [[x] for x in v])] == [
        lam * x for x in v
    ]


@pytest.mark.parametrize("roots, f", _CASES)
def test_eigen_summary_of_a_companion_matrix(roots, f):
    rows, p = oracles.companion(roots.items(), f)
    n = len(rows)
    s = eigen_summary(Matrix(rows))
    assert s.char == Polynomial([(-1) ** n * c for c in p])
    assert s.roots == tuple(sorted(roots.items(), reverse=True))
    assert [lam for lam, _ in s.spaces] == sorted(roots, reverse=True)
    assert all(_is_line_of_eigenvectors(rows, lam, space) for lam, space in s.spaces)
    if len(f) > 1:
        assert not s.split and s.diagonalizable is None and s.deficient is None
        assert s.residual == Polynomial([(-1) ** n * Q(c, f[-1]) for c in f])
    else:
        repeated = [(lam, m, 1) for lam, m in s.roots if m > 1]
        assert s.split and s.residual is None
        assert s.diagonalizable == (not repeated)
        assert s.deficient == (repeated[0] if repeated else None)


@pytest.mark.parametrize("roots, f", _CASES)
def test_diagonalize_a_companion_matrix(roots, f):
    rows, _ = oracles.companion(roots.items(), f)
    n = len(rows)
    decreasing = sorted(roots.items(), reverse=True)
    verdict = diagonalize(Matrix(rows))
    if len(f) > 1:
        assert verdict == NotSplit(
            found=tuple(decreasing),
            residual=Polynomial([(-1) ** n * Q(c, f[-1]) for c in f]),
        )
    elif any(m > 1 for _, m in decreasing):
        lam, m = next((lam, m) for lam, m in decreasing if m > 1)
        assert verdict == NotDiagonalizable(eigenvalue=lam, algebraic=m, geometric=1)
    else:
        assert isinstance(verdict, Diagonalizable)
        assert [verdict.D[i, i] for i in range(n)] == [lam for lam, _ in decreasing]
        L, D = verdict.L.entries, verdict.D.entries
        assert oracles.naive_matmul(rows, L) == oracles.naive_matmul(L, D)
