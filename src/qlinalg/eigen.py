"""Eigenvalues, eigenspaces, and diagonalization — all over the rationals.

The characteristic polynomial det(A - x I) is computed exactly by Berkowitz's
division-free algorithm, and its rational roots are lifted p-adically from
its roots modulo one small prime (:func:`qlinalg.poly.rational_roots`); both
take time polynomial in n and in the entry bit size.  Each public call clears
A once, to its integer image B = d A with d the lcm of A's denominators, and
everything in the call reads B: Berkowitz runs on B and hands the root search
the polynomial's primitive integer coefficients.  The eigenspace of a root
lam = p/q is null(mu I - B), mu = d lam, which holds every column of
adj(mu I - B); when the last one, read off Berkowitz's last step, is nonzero,
the eigenspace is the line through it.  Otherwise it is the null space of the
integer rows q B - p d I, swept by fraction-free elimination.  Each
coefficient, root and basis entry becomes a ``Fraction`` once, at the end.
Irrational or complex eigenvalues cannot be represented here; in that case
the honest answer is a :class:`NotSplit` verdict carrying whatever rational
roots were found and the unfactored remainder.

Eigenvalues are always reported in decreasing order, and the diagonal factor
of a diagonalization lists them that way.  ``eigenvalues``, ``diagonalize``
and ``eigen_summary`` share one driver, which builds an eigenspace only when
it is read: ``diagonalize`` stops at the first deficient eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterator, Union

from .elimination import _FractionFree, inverse_gauss_jordan
from .errors import NegativePowerOfSingular, NotInvertible, NotSquare, _Record
from .matrix import Matrix, _integer_image
from .poly import Polynomial, _primitive, _rational_roots, _rescaled
from .scalars import Q, _ratio, as_scalar
from .spaces import Subspace, _null_space


def _square_image(a: Matrix) -> tuple[list[list[int]], int]:
    """The integer image of A (see ``matrix._integer_image``), A square."""
    if not a.is_square:
        raise NotSquare("characteristic polynomials need a square matrix")
    return _integer_image(a)


def char_poly(a: Matrix) -> Polynomial:
    """det(A - x I), ascending coefficients; leading coefficient (-1)^n."""
    b, d = _square_image(a)
    return _rescaled(_char_poly(b, d)[0], (-1) ** len(b))


def _char_poly(g: list[list[int]], d: int) -> tuple[tuple[int, ...], tuple]:
    """The primitive integer coefficients of det(A - x I) (ascending, sign
    kept) for A = B / d, B the integer rows ``g``, and the last step's
    (det(x I - M) descending, the rows of the Krylov matrix [C, M C, ...,
    M^(n-2) C]) for ``_adjugate_column``.

    Berkowitz's division-free algorithm, O(n^4) ring operations, run on B.
    Write each leading principal submatrix as B_k = [[M, C], [R, b_kk]].  The
    descending coefficients of det(x I - B_k) are the lower-triangular
    Toeplitz matrix with first column [1, -b_kk, -R C, -R M C, ...,
    -R M^(k-1) C] times those of det(x I - M), so each step builds just the
    Krylov vectors C, M C, ..., M^(k-1) C that the column reads, each a dot
    product of B's first k rows with the last (``map`` stops at its k
    entries).  Since det(x I - A) = d^-n det(d x I - B), its coefficient of
    x^i is that of det(x I - B) over d^(n-i); times d^n, it is that
    coefficient times d^i.
    """
    n = len(g)
    coeffs = [1]
    for k in range(n):
        m = g[:k]
        chi, krylov = coeffs, ([[row[k] for row in m]] if k else [])
        for _ in range(1, k):
            krylov.append([sum(map(mul, row, krylov[-1])) for row in m])
        col = [-sum(map(mul, g[k], v)) for v in reversed(krylov)] + [-g[k][k], 1]
        coeffs = [sum(map(mul, coeffs, col[k + 1 - i:])) for i in range(k + 2)]
    sign = -1 if n % 2 else 1
    ints = _primitive([sign * c * d**i for i, c in enumerate(reversed(coeffs))])
    return ints, (chi, list(zip(*krylov)))


def _adjugate_column(chi: list[int], rows: list, p: int, q: int) -> list[int]:
    """q^(n-1) times the last column of adj(mu I - B) at mu = p/q, from
    Berkowitz's last step on B = [[M, C], [R, b]]: [sum_k h_k(mu) M^k C ;
    chi(mu)], chi = det(x I - M) = sum a_j x^j and h_k = sum_(j>k) a_j
    x^(j-k-1) its Horner partial sums, with ``rows`` the rows of the Krylov
    matrix [C, M C, ..., M^(n-2) C].  With G_i = q^i times the i-th Horner
    sum at mu, q^(n-1) h_k(mu) = q^(k+1) G_(n-2-k) and q^(n-1) chi(mu) = G_(n-1).
    """
    horner = [1]
    for i, a in enumerate(chi[1:], 1):
        horner.append(horner[-1] * p + a * q**i)
    scale = [q ** (k + 1) * g for k, g in enumerate(reversed(horner[:-1]))]
    return [sum(map(mul, scale, row)) for row in rows] + [horner[-1]]


class Split(_Record):
    """Every eigenvalue is rational: (eigenvalue, algebraic multiplicity) pairs,
    eigenvalues decreasing."""

    roots: tuple[tuple[Fraction, int], ...]

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


def _spectrum(a: Matrix) -> tuple[tuple[int, ...], EigenvalueVerdict, Iterator]:
    """The primitive integer coefficients of det(A - x I), the verdict on
    its rational roots (in :func:`poly._rational_roots`' decreasing order),
    and a lazy stream of (eigenvalue, algebraic multiplicity, eigenspace),
    one per root found."""
    b, d = _square_image(a)
    ints, last = _char_poly(b, d)
    roots, residual = _rational_roots(ints, (-1) ** len(b))
    spectrum = ((lam, alg, _eigenspace(b, d, lam, last)) for lam, alg in roots)
    if residual.degree <= 0:
        return ints, Split(roots=roots), spectrum
    return ints, NotSplit(found=roots, residual=residual), spectrum


def eigenvalues(a: Matrix) -> EigenvalueVerdict:
    """Rational roots of the characteristic polynomial, with multiplicity."""
    return _spectrum(a)[1]


def eigenspace(a: Matrix, lam) -> Subspace:
    """Null space of A - lam I (zero-dimensional when lam is no eigenvalue)."""
    if not a.is_square:
        raise NotSquare("eigenspaces need a square matrix")
    return _eigenspace(*_integer_image(a), as_scalar(lam))


def _eigenspace(b: list[list[int]], d: int, lam: Fraction, last: tuple = ()) -> Subspace:
    """The null space of A - lam I for A = B / d, B the integer rows ``b``.

    Given ``last`` from ``_char_poly(b, d)`` and lam a root, w, the last
    column of adj(mu I - B) at mu = d lam, lies in null(mu I - B), since
    (mu I - B) adj(mu I - B) = det(mu I - B) I = 0.  If w != 0, mu I - B has
    rank n - 1 and the null space is the line through w; the null-space
    reader's basis vector is w / w_f, f the last index with w_f != 0 (the one
    free column).  w = 0 when the geometric multiplicity is 2 or more or the
    left eigenvector's last coordinate is 0; then, as for any lam without
    ``last``, sweep the integer rows q B - p d I (lam = p/q), that is
    q d (A - lam I), with the same null space.
    """
    p, q = lam.numerator * d, lam.denominator
    if last:
        w = _adjugate_column(*last, p, q)
        for wf in reversed(w):
            if wf:
                return Subspace._trusted(len(b), (tuple(_ratio(x, wf) for x in w),))
    rows = [[q * x for x in row] for row in b]
    for i, row in enumerate(rows):
        row[i] -= p
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
    _, verdict, spectrum = _spectrum(a)
    if isinstance(verdict, NotSplit):
        return verdict
    columns: list[tuple[Fraction, ...]] = []
    diag: list[Fraction] = []
    for lam, alg, space in spectrum:
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
    ints, verdict, spectrum = _spectrum(a)
    split = isinstance(verdict, Split)
    spectrum = tuple(spectrum)
    short = ((lam, alg, s.dimension) for lam, alg, s in spectrum if s.dimension < alg)
    deficient = next(short, None) if split else None
    return EigenSummary(
        char=_rescaled(ints, (-1) ** a.rows),
        split=split,
        roots=verdict.roots if split else verdict.found,
        residual=None if split else verdict.residual,
        spaces=tuple((lam, space) for lam, _, space in spectrum),
        diagonalizable=deficient is None if split else None,
        deficient=deficient,
    )
