"""Eigenvalues, eigenspaces, and diagonalization — all over the rationals.

The characteristic polynomial det(A - x I) is computed exactly by Berkowitz's
division-free algorithm, and its rational roots are isolated by a Sturm
sequence (:func:`qlinalg.poly.rational_roots`); both take time polynomial in
n and in the entry bit size.  Both compute on Python ints: Berkowitz on d A,
d the common denominator of A, and the root search on the polynomial's
primitive integer coefficients; each coefficient and root becomes a
``Fraction`` once, at the end.  Irrational or complex eigenvalues cannot be
represented here; in that case the honest answer is a :class:`NotSplit`
verdict carrying whatever rational roots were found and the unfactored
remainder.

Eigenvalues are always reported in decreasing order, and the diagonal factor
of a diagonalization lists them that way.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Union

from .elimination import inverse_gauss_jordan
from .errors import NegativePowerOfSingular, NotInvertible, NotSquare, _Record
from .matrix import Matrix
from .poly import Polynomial, rational_roots
from .scalars import Q, _cleared, as_scalar
from .spaces import Subspace, fundamental_subspaces


def char_poly(a: Matrix) -> Polynomial:
    """det(A - x I), ascending coefficients; leading coefficient (-1)^n.

    Berkowitz's division-free algorithm, O(n^4) ring operations, run on the
    integer matrix B = d A, d the lcm of A's denominators.  Write each leading
    principal submatrix as B_k = [[M, C], [R, b_kk]].  The descending
    coefficients of det(x I - B_k) are the lower-triangular Toeplitz matrix
    with first column [1, -b_kk, -R C, -R M C, ..., -R M^(k-1) C] times those
    of det(x I - M).  Since det(x I - A) = d^-n det(d x I - B), its
    coefficient of x^i is that of det(x I - B) over d^(n-i).
    """
    if not a.is_square:
        raise NotSquare("characteristic polynomials need a square matrix")
    n = a.rows
    flat, d = _cleared([x for row in a.entries for x in row])
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    coeffs = [1]
    for k in range(n):
        m = [g[i][:k] for i in range(k)]
        r = g[k][:k]
        col = [1, -g[k][k]]
        v = [g[i][k] for i in range(k)]
        for _ in range(k):
            col.append(-sum(map(mul, r, v)))
            v = [sum(map(mul, mi, v)) for mi in m]
        coeffs = [
            sum(col[i - j] * coeffs[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    sign = -1 if n % 2 else 1
    return Polynomial(
        [Fraction(sign * c, d ** i) for i, c in enumerate(coeffs)][::-1]
    )


class Split(_Record):
    """Every eigenvalue is rational: (eigenvalue, algebraic multiplicity) pairs,
    eigenvalues decreasing."""

    roots: tuple[tuple[Fraction, int], ...]

    def __bool__(self) -> bool:
        return True

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(lam for lam, _ in self.roots)

    def multiplicity(self, lam) -> int:
        lam = as_scalar(lam)
        for other, m in self.roots:
            if other == lam:
                return m
        return 0


class NotSplit(_Record):
    """The characteristic polynomial has an irreducible-over-Q part left."""

    found: tuple[tuple[Fraction, int], ...]
    residual: Polynomial

    def __bool__(self) -> bool:
        return False


EigenvalueVerdict = Union[Split, NotSplit]


def eigenvalues(a: Matrix) -> EigenvalueVerdict:
    """Rational roots of the characteristic polynomial, with multiplicity."""
    return _roots_verdict(char_poly(a))


def _roots_verdict(p: Polynomial) -> EigenvalueVerdict:
    roots, residual = rational_roots(p)
    ordered = tuple(sorted(roots, key=lambda rm: rm[0], reverse=True))
    if residual.degree <= 0:
        return Split(roots=ordered)
    return NotSplit(found=ordered, residual=residual)


def eigenspace(a: Matrix, lam) -> Subspace:
    """Null space of A - lam I (zero-dimensional when lam is no eigenvalue)."""
    if not a.is_square:
        raise NotSquare("eigenspaces need a square matrix")
    lam = as_scalar(lam)
    shifted = Matrix(
        [[x - lam if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(a.entries)]
    )
    return fundamental_subspaces(shifted).null


def deficient_eigenvalue(profile) -> Fraction | None:
    """First eigenvalue whose geometric multiplicity falls short.

    ``profile`` is an ordered sequence of (eigenvalue, algebraic, geometric)
    triples; the answer is None when every geometric multiplicity matches its
    algebraic one — exactly the diagonalizable case (for a split polynomial).
    """
    for lam, alg, geom in profile:
        if geom < alg:
            return as_scalar(lam)
    return None


class Diagonalizable(_Record):
    """A = L D L^{-1}; D's diagonal is decreasing, L's columns are the
    matching eigenspace bases."""

    L: Matrix
    D: Matrix

    def __bool__(self) -> bool:
        return True

    def reconstruct(self) -> Matrix:
        return self.L @ self.D @ inverse_gauss_jordan(self.L)


class NotDiagonalizable(_Record):
    """Some eigenspace is too small."""

    eigenvalue: Fraction
    algebraic: int
    geometric: int

    def __bool__(self) -> bool:
        return False


DiagonalizeVerdict = Union[Diagonalizable, NotDiagonalizable, NotSplit]


def diagonalize(a: Matrix) -> DiagonalizeVerdict:
    """Factor A as L D L^{-1} when a basis of eigenvectors exists.

    Walking eigenvalues in decreasing order, the first one whose eigenspace
    dimension misses its algebraic multiplicity decides NotDiagonalizable.
    """
    verdict = eigenvalues(a)
    if isinstance(verdict, NotSplit):
        return verdict
    columns: list[tuple[Fraction, ...]] = []
    diag: list[Fraction] = []
    for lam, alg in verdict.roots:
        space = eigenspace(a, lam)
        if space.dimension < alg:
            return NotDiagonalizable(
                eigenvalue=lam, algebraic=alg, geometric=space.dimension
            )
        columns.extend(space.basis)
        diag.extend([lam] * alg)
    scale = Matrix(
        [[diag[i] if i == j else Q(0) for j in range(len(diag))]
         for i in range(len(diag))]
    )
    return Diagonalizable(L=Matrix.from_columns(columns), D=scale)


def matrix_power(a: Matrix, k: int) -> Matrix:
    """A^k exactly, for any integer k, by repeated squaring.

    A negative k takes the Gauss-Jordan inverse first, so A must be
    invertible.
    """
    if not a.is_square:
        raise NotSquare("powers need a square matrix")
    if k < 0:
        try:
            a = inverse_gauss_jordan(a)
        except NotInvertible:
            raise NegativePowerOfSingular(
                f"A^{k} asks for an inverse, but det(A) = 0"
            ) from None
        k = -k
    return a ** k


class EigenSummary(_Record):
    """Everything the eigen analysis found, in one bundle."""

    char: Polynomial
    split: bool
    roots: tuple[tuple[Fraction, int], ...]
    residual: Polynomial | None
    spaces: tuple[tuple[Fraction, Subspace], ...]
    diagonalizable: bool | None
    deficient: tuple[Fraction, int, int] | None

    def eigenspace_of(self, lam) -> Subspace | None:
        lam = as_scalar(lam)
        for other, space in self.spaces:
            if other == lam:
                return space
        return None


def eigen_summary(a: Matrix) -> EigenSummary:
    """Characteristic polynomial, eigenvalues, eigenspaces, and the
    diagonalizability verdict, all at once."""
    p = char_poly(a)
    verdict = _roots_verdict(p)
    roots = verdict.roots if isinstance(verdict, Split) else verdict.found
    spaces = tuple((lam, eigenspace(a, lam)) for lam, _ in roots)
    if isinstance(verdict, NotSplit):
        return EigenSummary(
            char=p,
            split=False,
            roots=roots,
            residual=verdict.residual,
            spaces=spaces,
            diagonalizable=None,
            deficient=None,
        )
    deficient = next(
        (
            (lam, alg, space.dimension)
            for (lam, alg), (_, space) in zip(roots, spaces)
            if space.dimension < alg
        ),
        None,
    )
    return EigenSummary(
        char=p,
        split=True,
        roots=roots,
        residual=None,
        spaces=spaces,
        diagonalizable=deficient is None,
        deficient=deficient,
    )
