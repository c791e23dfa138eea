"""Determinants and everything classical built on them.

Two routes to the same number:

* :func:`det` / :func:`det_with_trace` -- both read the same run's minor:
  one fraction-free elimination on integers, its last pivot signed by its
  swaps over its row scales.  The traced route also returns the run's trace;
  :func:`row_op_det_effect` reads off it how each operation scales the
  determinant (scaling by alpha multiplies it by alpha, a swap flips its
  sign, adding a multiple of one row to another changes nothing), so
  ``det(trace.end) == prod(map(row_op_det_effect, trace)) * det(A)``;
* :func:`det_cofactor` / :func:`cofactor_expand` -- the expansion along one
  line, det(A) = sum_j a_ij C_ij: along row 0, along a chosen row, or along a
  chosen column as the same row of the transpose.  The line's cofactors come
  from one fraction-free reduction of A without that line (:func:`_cofactor_row`).

On top of these: the 2x2 shortcut inverse, and the cofactor matrix, one
such reduction per row, with the adjoint, the adjoint-route inverse, single
inverse entries and Cramer's rule read off its rows.  Each of the last three
expands det(A) along a line of those cofactors instead of reducing A again.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .elimination import RowOp, Scale, Swap, Trace, _FractionFree
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInvertible,
    NotSquare,
    SingularCoefficient,
    WrongSize,
    _Record,
)
from .matrix import Matrix, as_vector
from .scalars import _check_ints


def row_op_det_effect(op: RowOp) -> Fraction:
    """How one operation multiplies a determinant."""
    if isinstance(op, Scale):
        return op.alpha
    if isinstance(op, Swap):
        return Fraction(-1)
    return Fraction(1)


def det_with_trace(a: Matrix) -> tuple[Fraction, Trace]:
    """Determinant via elimination, and the trace of the run it was read off."""
    if not a.is_square:
        raise NotSquare("determinants need a square matrix")
    run = _FractionFree(a)
    return run.minor(), run.trace(a, 0)


def det(a: Matrix) -> Fraction:
    """Determinant by row reduction (the fast route): one run's minor, untraced."""
    if not a.is_square:
        raise NotSquare("determinants need a square matrix")
    return _FractionFree(a).minor()


def det_cofactor(a: Matrix) -> Fraction:
    """Determinant by cofactor expansion along row 0: sum_j a_0j C_0j."""
    if not a.is_square:
        raise NotSquare("determinants need a square matrix")
    return cofactor_expand(a, row=0).value


class Expansion(_Record):
    """One cofactor expansion: the signed term per position and the total."""

    terms: tuple[Fraction, ...]
    value: Fraction
    row: int | None
    col: int | None


def cofactor_expand(a: Matrix, row: int | None = None, col: int | None = None) -> Expansion:
    """Expand along one row or one column (exactly one must be given).

    Term k is entry * cofactor at position k of the chosen line, the line's
    cofactors read off one reduction (:func:`_cofactor_row`).  Column j of A
    is row j of its transpose, whose minors are A's transposed: same determinants.
    """
    if not a.is_square:
        raise NotSquare("cofactor expansion needs a square matrix")
    if (row is None) == (col is None):
        raise ValueError("give exactly one of row= or col=")
    line = row if row is not None else col
    _check_ints("a row index" if row is not None else "a column index", line)
    if not 0 <= line < a.rows:
        raise IndexOutOfRange(f"line {line} outside 0..{a.rows - 1}")
    b = a if row is not None else a.transpose()
    terms = tuple(map(mul, b.row(line), _cofactor_row(b, line)))
    return Expansion(terms=terms, value=sum(terms, Fraction(0)), row=row, col=col)


def inverse_2x2(a: Matrix) -> Matrix:
    """The swap-and-negate shortcut, exactly for 2x2."""
    if (a.rows, a.cols) != (2, 2):
        raise WrongSize(f"inverse_2x2 got {a.rows}x{a.cols}")
    d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if d == 0:
        raise NotInvertible("determinant is zero")
    return Matrix._of(((a[1, 1] / d, -a[0, 1] / d), (-a[1, 0] / d, a[0, 0] / d)))


def _cofactor_row(a: Matrix, i: int) -> tuple[Fraction, ...]:
    """Row i of the cofactor matrix from one reduction of B, A without row i.
    Expanding det(A) along row i with another row of A in its place gives 0,
    so the row is a null vector of B: zero when rank B < n - 1 (the run's
    minor is 0), else C_if times the null vector with 1 at B's one free
    column f, where C_if = (-1)^(i+f) det(B without column f), the signed minor."""
    n = a.rows
    if n == 1:
        return (Fraction(1),)  # the cofactor of the empty minor
    run = _FractionFree(a.drop(row=i))
    if not (minor := run.minor()):
        return (Fraction(0),) * n
    (f,) = run.free
    c = -minor if (i + f) % 2 else minor
    return tuple(c * x for x in run.null_basis()[0])


def cramer_solve(c: Matrix, b) -> tuple[Fraction, ...]:
    """Solve ``c x = b`` by determinant ratios (det(c) nonzero), each expanded down
    a column of cofactors: det(c) down column 0, c with column j set to b down j."""
    if not c.is_square:
        raise NotSquare("Cramer's rule needs a square coefficient matrix")
    bvec = as_vector(b)
    if len(bvec) != c.rows:
        raise DimensionMismatch(f"{c.rows} equations, {len(bvec)} constants")
    cof = [_cofactor_row(c, i) for i in range(c.rows)]
    d = sum(map(mul, c.col(0), (row[0] for row in cof)))
    if d == 0:
        raise SingularCoefficient("coefficient determinant is zero")
    return tuple(sum(map(mul, bvec, column)) / d for column in zip(*cof))


def cofactor_matrix(a: Matrix) -> Matrix:
    """Matrix of signed minors, one reduction per row; defined for square n >= 2."""
    if not a.is_square:
        raise NotSquare("cofactor matrix needs a square matrix")
    if a.rows < 2:
        raise WrongSize("cofactor matrix needs n >= 2")
    return Matrix._of(tuple(_cofactor_row(a, i) for i in range(a.rows)))


def adjoint(a: Matrix) -> Matrix:
    """Transpose of the cofactor matrix; satisfies A @ adjoint(A) = det(A) I."""
    return cofactor_matrix(a).transpose()


def inverse_adjoint(a: Matrix) -> Matrix:
    """Inverse as adjoint over determinant: n reductions, one per cofactor row,
    with det(A) expanded along row 0 of them as sum_j a_0j C_0j."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix has no inverse")
    if a.rows < 2:
        raise WrongSize("cofactor matrix needs n >= 2")
    cof = [_cofactor_row(a, i) for i in range(a.rows)]
    d = sum(map(mul, a.row(0), cof[0]))
    if d == 0:
        raise NotInvertible("determinant is zero")
    return (Fraction(1) / d) * Matrix._of(tuple(zip(*cof)))


def inverse_entry(a: Matrix, i: int, k: int) -> Fraction:
    """Entry (i, k) of the inverse (0-based indices): C_ki / det(A), with
    det(A) expanded along the same row of cofactors as sum_j a_kj C_kj."""
    if not a.is_square:
        raise NotSquare("inverse entries need a square matrix")
    if a.rows < 2:
        raise WrongSize("single-entry inverse needs n >= 2")
    _check_ints("a row index", i)
    _check_ints("a column index", k)
    n = a.rows
    if not (0 <= i < n and 0 <= k < n):
        raise IndexOutOfRange(f"entry ({i}, {k}) outside a {n}x{n} matrix")
    row = _cofactor_row(a, k)
    d = sum(map(mul, a.row(k), row))
    if d == 0:
        raise NotInvertible("determinant is zero")
    return row[i] / d
