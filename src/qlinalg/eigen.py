"""Eigenvalues, eigenspaces, and diagonalization — all over the rationals.

The characteristic polynomial det(A - x I) is computed exactly by Berkowitz's
division-free algorithm, and its rational roots are lifted p-adically from its
roots modulo one small prime (:func:`qlinalg.poly.rational_roots`); both take
time polynomial in n and in the entry bit size.  Each public call clears A
once, to its integer image B = d A with d the lcm of A's denominators, and
everything in the call reads B: Berkowitz runs on B and hands the root search
the polynomial's primitive integer coefficients.  det(x I - B) is monic over
Z, so each rational root lam has an integer image mu = d lam, and every column
of adj(mu I - B) lies in the eigenspace null(B - mu I).  When the last one,
read off Berkowitz's last step, is nonzero, the eigenspace is the line through
it; when it is zero and lam is simple, the line through adj(mu I - B) z, z =
(n, n - 1, ..., 1).  Otherwise (a repeated root whose column is zero, or the
rare u z = 0 for the left eigenvector u) the rows B - mu I are swept by
fraction-free elimination; the public ``eigenspace`` answers a lam with d lam
not an integer as the zero subspace, unswept.  Each coefficient, root and
basis entry becomes a ``Fraction`` once, at the end.  Irrational or complex
eigenvalues cannot be represented here: the answer is then a :class:`NotSplit`
verdict carrying the rational roots found and the unfactored remainder.

Eigenvalues are always reported in decreasing order, and the diagonal factor
of a diagonalization lists them that way.  ``eigenvalues``, ``diagonalize``
and ``eigen_summary`` share one driver, which builds an eigenspace only when
it is read: ``diagonalize`` stops at the first deficient eigenvalue.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import mul

from .elimination import _FractionFree, inverse_gauss_jordan
from .errors import NegativePowerOfSingular, NotInvertible, NotSquare, _Record
from .matrix import Matrix, _integer_image
from .poly import Polynomial, _primitive, _rational_roots, _rescaled
from .scalars import _check_ints, _ratio, as_scalar
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
    M^(n-2) C]) with det(x I - B) descending, for ``_adjugate_column``.

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
        chi, krylov = coeffs, (_krylov(m, [row[k] for row in m], k) if k else [])
        col = [-sum(map(mul, g[k], v)) for v in reversed(krylov)] + [-g[k][k], 1]
        coeffs = [sum(map(mul, coeffs, col[k + 1 - i:])) for i in range(k + 2)]
    sign = -1 if n % 2 else 1
    ints = _primitive([sign * c * d**i for i, c in enumerate(reversed(coeffs))])
    return ints, (chi, list(zip(*krylov)), coeffs)


def _krylov(m: list[list[int]], v: list[int], count: int) -> list[list[int]]:
    """The Krylov vectors v, M v, ..., M^(count-1) v, M the integer rows ``m``."""
    krylov = [v]
    for _ in range(1, count):
        krylov.append([sum(map(mul, row, krylov[-1])) for row in m])
    return krylov


def _krylov_rows(g: list[list[int]]) -> list[tuple[int, ...]]:
    """The rows of the Krylov matrix [z, B z, ..., B^(n-1) z] for B the
    integer rows ``g`` and z = (n, n - 1, ..., 1)."""
    return list(zip(*_krylov(g, list(range(len(g), 0, -1)), len(g))))


def _adjugate_column(chi: list[int], rows: list, mu: int) -> list[int]:
    """[sum_k h_k(mu) X^k v ; chi(mu)] for chi = det(x I - X) = sum a_j x^j,
    monic of degree m, h_k = sum_(j>k) a_j x^(j-k-1) its Horner partial sums,
    and ``rows`` the rows of the Krylov matrix [v, X v, ..., X^(m-1) v].
    Since adj(x I - X) = sum_k h_k(x) X^k, the sum is adj(mu I - X) v.
    Berkowitz's last step on B = [[M, C], [R, b]] gives X = M, v = C, and the
    list is the last column of adj(mu I - B); X = B and v = z give adj(mu I -
    B) z, and at a root chi(mu) = 0.
    """
    horner = [1]
    for a in chi[1:]:
        horner.append(horner[-1] * mu + a)
    h = horner[-2::-1]
    return [sum(map(mul, h, row)) for row in rows] + [horner[-1]]


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


EigenvalueVerdict = Split | NotSplit


def _spectrum(a: Matrix) -> tuple[tuple[int, ...], EigenvalueVerdict, Iterator]:
    """The primitive integer coefficients of det(A - x I), the verdict on
    its rational roots (in :func:`poly._rational_roots`' decreasing order),
    and a lazy stream of (eigenvalue, algebraic multiplicity, eigenspace),
    one per root found.  The Krylov rows of z are built for the first simple
    root whose last adjugate column is zero, and kept for the rest."""
    b, d = _square_image(a)
    ints, (chi, rows, coeffs) = _char_poly(b, d)
    roots, residual = _rational_roots(ints, (-1) ** len(b))
    z_rows = []

    def space(lam: Fraction, alg: int) -> Subspace:
        nonlocal z_rows
        mu = lam.numerator * d // lam.denominator
        w = _adjugate_column(chi, rows, mu)
        if alg == 1 and not any(w):
            z_rows = z_rows or _krylov_rows(b)
            w = _adjugate_column(coeffs, z_rows, mu)[:-1]
        return _eigenspace(b, mu, w)

    spectrum = ((lam, alg, space(lam, alg)) for lam, alg in roots)
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
    b, d = _integer_image(a)
    lam = as_scalar(lam)
    mu, rest = divmod(lam.numerator * d, lam.denominator)
    return Subspace._trusted(len(b), ()) if rest else _eigenspace(b, mu)


def _eigenspace(b: list[list[int]], mu: int, w: Sequence[int] = ()) -> Subspace:
    """The null space of B - mu I (of A - lam I for A = B / d, mu = d lam).

    ``w`` is empty or adj(mu I - B) v for a root mu; as (mu I - B) adj(mu I -
    B) = det(mu I - B) I = 0, it lies in that null space.  If w != 0, B - mu I
    has rank n - 1 and the null space is the line through w, scaled as the
    null-space reader scales it: w / w_f, f the last index with w_f != 0.  For
    a simple root adj(mu I - B) = c v' u' (c != 0, v' and u' the right and
    left eigenvectors), so w = 0 only when u' v = 0; for a repeated root also
    when the geometric multiplicity is 2 or more.  Then sweep the rows B - mu I.
    """
    for wf in reversed(w):
        if wf:
            return Subspace._trusted(len(b), (tuple(_ratio(x, wf) for x in w),))
    rows = [row[:] for row in b]
    for i, row in enumerate(rows):
        row[i] -= mu
    return _null_space(_FractionFree(rows))


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


DiagonalizeVerdict = Diagonalizable | NotDiagonalizable | NotSplit


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
    zero, n = Fraction(0), len(diag)
    scale = Matrix._of(
        tuple(tuple(x if i == j else zero for j in range(n)) for i, x in enumerate(diag))
    )
    return Diagonalizable(L=Matrix._of(tuple(zip(*columns))), D=scale)


def matrix_power(a: Matrix, k: int) -> Matrix:
    """A^k exactly, for any integer k, by repeated squaring.

    A negative k takes the Gauss-Jordan inverse first, so A must be
    invertible.
    """
    _check_ints("the exponent k", k)
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
