"""Determinants and everything classical built on them.

Two independent routes to the same number:

* :func:`det_with_effects` -- forward elimination, tracking how each row
  operation scales the determinant (scaling by alpha multiplies it by alpha, a
  swap flips its sign, adding a multiple of one row to another changes
  nothing); :func:`det` gives the same number from the same pivots without
  the trace, by fraction-free elimination on integers;
* :func:`det_cofactor` / :func:`cofactor_expand` -- recursive signed-minor
  expansion along a chosen row or column.

On top of these: the 2x2 shortcut inverse, Cramer's rule, the cofactor
matrix and adjoint, the adjoint-route inverse, and single entries of the
inverse computed without the rest of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable

from .elimination import RowOp, Scale, Swap, Trace, _FractionFree, reduce
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


def row_op_det_effect(op: RowOp) -> Fraction:
    """How one operation multiplies a determinant."""
    if isinstance(op, Scale):
        return op.alpha
    if isinstance(op, Swap):
        return Fraction(-1)
    return Fraction(1)


class DetEffectLog(_Record):
    """Per-operation determinant factors, in order, with their product.

    If ops carry A to B then ``det(B) == factor * det(A)``.
    """

    steps: tuple[tuple[RowOp, Fraction], ...]
    factor: Fraction

    @classmethod
    def from_ops(cls, ops: Iterable[RowOp]) -> "DetEffectLog":
        steps = tuple((op, row_op_det_effect(op)) for op in ops)
        return cls(steps=steps, factor=prod((f for _, f in steps), start=Fraction(1)))

    def applied_to(self, value: Fraction) -> Fraction:
        """det after the ops, given det before."""
        return self.factor * value


def det_with_effects(a: Matrix) -> tuple[Fraction, DetEffectLog, Trace]:
    """Determinant via elimination, plus the effect log and the trace behind it."""
    if not a.is_square:
        raise NotSquare("determinants need a square matrix")
    tri, trace = reduce(a, "semi_reduced")
    log = DetEffectLog.from_ops(trace.ops())
    diag = prod((tri[i, i] for i in range(a.rows)), start=Fraction(1))
    return diag / log.factor, log, trace


def det(a: Matrix) -> Fraction:
    """Determinant by row reduction (the fast route): the last pivot of the
    fraction-free sweep, signed by its swaps, over the product of its row
    scales."""
    if not a.is_square:
        raise NotSquare("determinants need a square matrix")
    run = _FractionFree(a)
    if len(run.pivots) < a.rows:
        return Fraction(0)
    return Fraction(run.sign * run.last, prod(run.scales))


def _cofactor_det(grid: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    if len(grid) == 1:
        return grid[0][0]
    total = Fraction(0)
    top = grid[0]
    rest = grid[1:]
    sign = Fraction(1)
    for j, a in enumerate(top):
        if a != 0:
            minor = tuple(r[:j] + r[j + 1:] for r in rest)
            total += sign * a * _cofactor_det(minor)
        sign = -sign
    return total


def det_cofactor(a: Matrix) -> Fraction:
    """Determinant by full recursive cofactor expansion (n! work)."""
    if not a.is_square:
        raise NotSquare("determinants need a square matrix")
    return _cofactor_det(a.entries)


class Expansion(_Record):
    """One cofactor expansion: the signed term per position and the total."""

    terms: tuple[Fraction, ...]
    value: Fraction
    row: int | None
    col: int | None


def cofactor_expand(a: Matrix, row: int | None = None, col: int | None = None) -> Expansion:
    """Expand along one row or one column (exactly one must be given).

    Term k is the signed product entry * cofactor at position k of the chosen
    line; minors are themselves computed by cofactor expansion.
    """
    if not a.is_square:
        raise NotSquare("cofactor expansion needs a square matrix")
    if (row is None) == (col is None):
        raise ValueError("give exactly one of row= or col=")
    n = a.rows
    line = row if row is not None else col
    if not 0 <= line < n:
        raise IndexOutOfRange(f"line {line} outside 0..{n - 1}")
    terms = []
    for k in range(n):
        i, j = (row, k) if row is not None else (k, col)
        entry = a[i, j]
        if n == 1:
            terms.append(entry)
            continue
        if entry == 0:
            terms.append(Fraction(0))
            continue
        minor = a.drop(row=i, col=j)
        sign = Fraction(-1) if (i + j) % 2 else Fraction(1)
        terms.append(sign * entry * _cofactor_det(minor.entries))
    return Expansion(
        terms=tuple(terms),
        value=sum(terms, Fraction(0)),
        row=row,
        col=col,
    )


def inverse_2x2(a: Matrix) -> Matrix:
    """The swap-and-negate shortcut, exactly for 2x2."""
    if (a.rows, a.cols) != (2, 2):
        raise WrongSize(f"inverse_2x2 got {a.rows}x{a.cols}")
    d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if d == 0:
        raise NotInvertible("determinant is zero")
    return Matrix(
        [
            [a[1, 1] / d, -a[0, 1] / d],
            [-a[1, 0] / d, a[0, 0] / d],
        ]
    )


def cramer_solve(c: Matrix, b) -> tuple[Fraction, ...]:
    """Solve ``c x = b`` by determinant ratios; needs det(c) nonzero."""
    if not c.is_square:
        raise NotSquare("Cramer's rule needs a square coefficient matrix")
    bvec = as_vector(b)
    if len(bvec) != c.rows:
        raise DimensionMismatch(f"{c.rows} equations, {len(bvec)} constants")
    d = det(c)
    if d == 0:
        raise SingularCoefficient("coefficient determinant is zero")
    values = []
    for j in range(c.cols):
        replaced = Matrix(
            [
                [bvec[i] if jj == j else c[i, jj] for jj in range(c.cols)]
                for i in range(c.rows)
            ]
        )
        values.append(det(replaced) / d)
    return tuple(values)


def cofactor_matrix(a: Matrix) -> Matrix:
    """Matrix of signed minors; defined for square n >= 2."""
    if not a.is_square:
        raise NotSquare("cofactor matrix needs a square matrix")
    if a.rows < 2:
        raise WrongSize("cofactor matrix needs n >= 2")
    n = a.rows
    return Matrix(
        [
            [
                (Fraction(-1) if (i + j) % 2 else Fraction(1))
                * det(a.drop(row=i, col=j))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def adjoint(a: Matrix) -> Matrix:
    """Transpose of the cofactor matrix; satisfies A @ adjoint(A) = det(A) I."""
    return cofactor_matrix(a).transpose()


def inverse_adjoint(a: Matrix) -> Matrix:
    """Inverse as adjoint over determinant."""
    d = det(a)
    if d == 0:
        raise NotInvertible("determinant is zero")
    return (Fraction(1) / d) * adjoint(a)


def inverse_entry(a: Matrix, i: int, k: int) -> Fraction:
    """Entry (i, k) of the inverse, from a single minor (0-based indices).

    Equals (-1)^(i+k) det(A with row k and column i removed) / det(A).
    """
    if not a.is_square:
        raise NotSquare("inverse entries need a square matrix")
    if a.rows < 2:
        raise WrongSize("single-entry inverse needs n >= 2")
    n = a.rows
    if not (0 <= i < n and 0 <= k < n):
        raise IndexOutOfRange(f"entry ({i}, {k}) outside a {n}x{n} matrix")
    d = det(a)
    if d == 0:
        raise NotInvertible("determinant is zero")
    sign = Fraction(-1) if (i + k) % 2 else Fraction(1)
    return sign * det(a.drop(row=k, col=i)) / d
