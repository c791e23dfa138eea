"""Eigenvalues, eigenspaces, and diagonalization — all over the rationals.

The characteristic polynomial det(A - x I) is computed exactly by Berkowitz's
division-free algorithm, and its rational roots are lifted p-adically from
its roots modulo one small prime (:func:`qlinalg.poly.rational_roots`); both
take time polynomial in n and in the entry bit size.  Each public call clears
A once, to its integer image B = d A with d the lcm of A's denominators, and
everything in the call reads B: Berkowitz runs on B and hands the root search
the polynomial's primitive integer coefficients, and the eigenspace of p/q is
the null space of the integer rows q B - p d I.  Each coefficient, root and
basis entry becomes a ``Fraction`` once, at the end.  Irrational or complex
eigenvalues cannot be represented here; in that case the honest answer is a
:class:`NotSplit` verdict carrying whatever rational roots were found and the
unfactored remainder.

Eigenvalues are always reported in decreasing order, and the diagonal factor
of a diagonalization lists them that way.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Union

from .elimination import _FractionFree, inverse_gauss_jordan
from .errors import NegativePowerOfSingular, NotInvertible, NotSquare, _Record
from .matrix import Matrix, _integer_image
from .poly import Polynomial, _primitive, _rational_roots
from .scalars import Q, as_scalar
from .spaces import Subspace, _null_space


def _square_image(a: Matrix) -> tuple[list[list[int]], int]:
    """The integer image of A (see ``matrix._integer_image``), A square."""
    if not a.is_square:
        raise NotSquare("characteristic polynomials need a square matrix")
    return _integer_image(a)


def char_poly(a: Matrix) -> Polynomial:
    """det(A - x I), ascending coefficients; leading coefficient (-1)^n."""
    return _char_poly(*_square_image(a))[0]


def _char_poly(g: list[list[int]], d: int) -> tuple[Polynomial, tuple[int, ...]]:
    """det(A - x I) for A = B / d, B the integer rows ``g``, and its primitive
    integer coefficients (ascending, sign kept).

    Berkowitz's division-free algorithm, O(n^4) ring operations, run on B.
    Write each leading principal submatrix as B_k = [[M, C], [R, b_kk]].  The
    descending coefficients of det(x I - B_k) are the lower-triangular
    Toeplitz matrix with first column [1, -b_kk, -R C, -R M C, ...,
    -R M^(k-1) C] times those of det(x I - M).  Since det(x I - A) =
    d^-n det(d x I - B), its coefficient of x^i is that of det(x I - B) over
    d^(n-i); times d^n, it is that coefficient times d^i.
    """
    n = len(g)
    coeffs = [1]
    for k in range(n):
        m = [g[i][:k] for i in range(k)]
        r = g[k][:k]
        col = [1, -g[k][k]]
        v = [g[i][k] for i in range(k)]
        for _ in range(k):
            col.append(-sum(map(mul, r, v)))
            v = [sum(map(mul, mi, v)) for mi in m]
        col.reverse()
        coeffs = [sum(map(mul, coeffs, col[k + 1 - i:])) for i in range(k + 2)]
    sign = -1 if n % 2 else 1
    poly = Polynomial([Fraction(sign * c, d**i) for i, c in enumerate(coeffs)][::-1])
    return poly, _primitive([sign * c * d**i for i, c in enumerate(reversed(coeffs))])


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
    return _roots_verdict(*_char_poly(*_square_image(a)))


def _roots_verdict(p: Polynomial, ints: tuple[int, ...]) -> EigenvalueVerdict:
    """The verdict on ``p``, given with its primitive integer coefficients."""
    roots, residual = _rational_roots(ints, p.coefficients[-1])
    ordered = tuple(sorted(roots, key=lambda rm: rm[0], reverse=True))
    if residual.degree <= 0:
        return Split(roots=ordered)
    return NotSplit(found=ordered, residual=residual)


def eigenspace(a: Matrix, lam) -> Subspace:
    """Null space of A - lam I (zero-dimensional when lam is no eigenvalue)."""
    if not a.is_square:
        raise NotSquare("eigenspaces need a square matrix")
    return _eigenspace(*_integer_image(a), as_scalar(lam))


def _eigenspace(b: list[list[int]], d: int, lam: Fraction) -> Subspace:
    """The null space of A - lam I for A = B / d, B the integer rows ``b``,
    read off the integer rows q B - p d I (lam = p/q): that is q d (A - lam I),
    with the same null space."""
    p, q = lam.numerator, lam.denominator
    rows = [[q * x for x in row] for row in b]
    for i, row in enumerate(rows):
        row[i] -= p * d
    return _null_space(_FractionFree(rows))


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
    b, d = _square_image(a)
    verdict = _roots_verdict(*_char_poly(b, d))
    if isinstance(verdict, NotSplit):
        return verdict
    columns: list[tuple[Fraction, ...]] = []
    diag: list[Fraction] = []
    for lam, alg in verdict.roots:
        space = _eigenspace(b, d, lam)
        if space.dimension < alg:
            return NotDiagonalizable(
                eigenvalue=lam, algebraic=alg, geometric=space.dimension
            )
        columns.extend(space.basis)
        diag.extend([lam] * alg)
    zero, n = Q(0), len(diag)
    scale = Matrix._of(
        tuple(tuple(x if i == j else zero for j in range(n)) for i, x in enumerate(diag))
    )
    return Diagonalizable(L=Matrix._of(tuple(zip(*columns))), D=scale)


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
    b, d = _square_image(a)
    p, ints = _char_poly(b, d)
    verdict = _roots_verdict(p, ints)
    split = isinstance(verdict, Split)
    roots = verdict.roots if split else verdict.found
    spaces = tuple((lam, _eigenspace(b, d, lam)) for lam, _ in roots)
    deficient = next(
        (
            (lam, alg, space.dimension)
            for (lam, alg), (_, space) in zip(roots, spaces)
            if split and space.dimension < alg
        ),
        None,
    )
    return EigenSummary(
        char=p,
        split=split,
        roots=roots,
        residual=None if split else verdict.residual,
        spaces=spaces,
        diagonalizable=deficient is None if split else None,
        deficient=deficient,
    )
