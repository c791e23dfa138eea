"""Row operations, elimination, and linear-system solving.

Three row operations exist, each invertible:

* ``Scale(alpha, row)``            -- multiply a row by a nonzero scalar
* ``AddMultiple(alpha, source, target)`` -- add alpha times one row to another
* ``Swap(first, second)``          -- exchange two rows

:func:`reduce` drives a matrix to one of five target forms, returning both
the result and a :class:`Trace`: the ordered operations performed.  Each
operation's elementary matrix (the operation applied to the identity) is a
view of it, derived on demand by :func:`elementary_matrix`.  Replaying the
trace reproduces the result; replaying it on the identity gives the single
left factor (:func:`left_factor`) that does the same in one product.

Pivoting is deterministic: scan columns left to right, take the topmost
usable row (swapping it up if needed), and clear downward.  The staggered
result means the "echelon" forms coincide with what the sweep already
produces; the form names differ in how far normalization and upward
elimination go.

Two engines share that pivoting rule, so they agree on every pivot, swap and
rank.  ``_Elimination`` applies the three row operations to ``Fraction``
entries and records them; it answers the questions whose answers carry row
operations (:func:`reduce`, :func:`solve_with_trace`, ``det_with_effects``,
``independence``).  ``_FractionFree`` eliminates on Python ints, dividing
exactly by the previous pivot (E. H. Bareiss, Math. Comp. 22, 1968), so no
entry update pays for a gcd; it answers the untraced questions
(:func:`solve`, :func:`inverse_gauss_jordan`, ``det``,
``fundamental_subspaces``, ``basis_of_span``, ``extend_to_basis``) and
converts to ``Fraction`` only in the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInvertible,
    NotSquare,
    ZeroScale,
)
from .matrix import Matrix, as_vector, hstack
from .scalars import as_scalar, format_scalar


# ---- the three operations ----------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """alpha * R[row], alpha nonzero."""

    alpha: Fraction
    row: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_scalar(self.alpha))
        if self.alpha == 0:
            raise ZeroScale("scaling a row by zero is not a row operation")
        if self.row < 0:
            raise IndexOutOfRange(f"row {self.row}")


@dataclass(frozen=True)
class AddMultiple:
    """alpha * R[source] + R[target] -> R[target], alpha nonzero."""

    alpha: Fraction
    source: int
    target: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_scalar(self.alpha))
        if self.alpha == 0:
            raise ZeroScale("adding zero times a row is not a row operation")
        if self.source == self.target:
            raise ValueError("source and target rows must differ")
        if min(self.source, self.target) < 0:
            raise IndexOutOfRange(f"rows {self.source}, {self.target}")


@dataclass(frozen=True)
class Swap:
    """R[first] <-> R[second]."""

    first: int
    second: int

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("swapping a row with itself is not a row operation")
        if min(self.first, self.second) < 0:
            raise IndexOutOfRange(f"rows {self.first}, {self.second}")


RowOp = Union[Scale, AddMultiple, Swap]


def _fold_coefficient(alpha: Fraction) -> str:
    if alpha == 1:
        return ""
    if alpha == -1:
        return "-"
    return format_scalar(alpha)


def render_row_op(op: RowOp) -> str:
    """1-based text: ``-2R1``, ``3R1+R2->R2``, ``R1<->R3``."""
    if isinstance(op, Scale):
        return f"{format_scalar(op.alpha)}R{op.row + 1}"
    if isinstance(op, AddMultiple):
        c = _fold_coefficient(op.alpha)
        return f"{c}R{op.source + 1}+R{op.target + 1}->R{op.target + 1}"
    return f"R{op.first + 1}<->R{op.second + 1}"


def _op_rows(op: RowOp) -> tuple[int, ...]:
    if isinstance(op, Scale):
        return (op.row,)
    if isinstance(op, AddMultiple):
        return (op.source, op.target)
    return (op.first, op.second)


def _apply_in_place(grid: list[list[Fraction]], op: RowOp) -> None:
    if isinstance(op, Scale):
        grid[op.row] = [op.alpha * x for x in grid[op.row]]
    elif isinstance(op, AddMultiple):
        src = grid[op.source]
        grid[op.target] = [t + op.alpha * s for t, s in zip(grid[op.target], src)]
    else:
        grid[op.first], grid[op.second] = grid[op.second], grid[op.first]


def apply_row_op(m: Matrix, op: RowOp) -> Matrix:
    """The matrix after one row operation (the input is untouched)."""
    for r in _op_rows(op):
        if r >= m.rows:
            raise IndexOutOfRange(f"row {r} outside a {m.rows}-row matrix")
    grid = [list(r) for r in m.entries]
    _apply_in_place(grid, op)
    return Matrix(grid)


def elementary_matrix(op: RowOp, n: int) -> Matrix:
    """The operation applied to the n x n identity."""
    return apply_row_op(Matrix.identity(n), op)


def invert_row_op(op: RowOp) -> RowOp:
    """The operation that undoes ``op`` (same kind in every case)."""
    if isinstance(op, Scale):
        return Scale(Fraction(1) / op.alpha, op.row)
    if isinstance(op, AddMultiple):
        return AddMultiple(-op.alpha, op.source, op.target)
    return op


# ---- traces -------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """What an elimination did: the ordered row operations carrying start to end.

    Iterating a trace yields its operations.  The elementary matrix of a step
    is ``elementary_matrix(op, trace.start.rows)``, built only when asked for.
    """

    start: Matrix
    end: Matrix
    steps: tuple[RowOp, ...]

    def ops(self) -> tuple[RowOp, ...]:
        return self.steps

    def replay(self, m: Matrix | None = None) -> Matrix:
        """Apply the recorded operations to ``m`` (default: to ``start``)."""
        cur = self.start if m is None else m
        for op in self.steps:
            cur = apply_row_op(cur, op)
        return cur

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def left_factor(trace: Trace) -> Matrix:
    """Product of the trace's elementary matrices, newest on the left.

    ``left_factor(t) @ t.start == t.end``.
    """
    return trace.replay(Matrix.identity(trace.start.rows))


# ---- reduction ------------------------------------------------------------------

FORMS = (
    "semi_reduced",
    "reduced",
    "completely_reduced",
    "echelon",
    "reduced_echelon",
)

# How far each form goes: 0 = clear below leaders, 1 = also scale leaders
# to 1, 2 = also clear above leaders.  Reduced-echelon is a completely
# reduced matrix whose leaders are staggered, so it shares stage 2.
_FORM_STAGE = {
    "semi_reduced": 0,
    "echelon": 0,
    "reduced": 1,
    "reduced_echelon": 2,
    "completely_reduced": 2,
}


class _Elimination:
    """One reduction in progress.  Construction runs the downward sweep (stage
    0); :meth:`finish` carries the same grid and operations on to stage 1 or 2.
    """

    def __init__(self, m: Matrix):
        self.start = m
        self.grid = grid = [list(r) for r in m.entries]
        self.ops: list[RowOp] = []
        self.pivots: list[tuple[int, int]] = []
        r = 0
        for c in range(m.cols):
            if r == m.rows:
                break
            src = next((k for k in range(r, m.rows) if grid[k][c] != 0), None)
            if src is None:
                continue
            if src != r:
                self._do(Swap(r, src))
            for k in range(r + 1, m.rows):
                if grid[k][c] != 0:
                    self._do(AddMultiple(-grid[k][c] / grid[r][c], r, k))
            self.pivots.append((r, c))
            r += 1

    def _do(self, op: RowOp) -> None:
        _apply_in_place(self.grid, op)
        self.ops.append(op)

    def finish(self, stage: int) -> None:
        grid = self.grid
        if stage >= 1:
            for pr, pc in self.pivots:
                if grid[pr][pc] != 1:
                    self._do(Scale(Fraction(1) / grid[pr][pc], pr))
        if stage >= 2:
            for pr, pc in reversed(self.pivots):
                for k in range(pr - 1, -1, -1):
                    if grid[k][pc] != 0:
                        self._do(AddMultiple(-grid[k][pc], pr, k))

    def trace(self) -> Trace:
        return Trace(start=self.start, end=Matrix(self.grid), steps=tuple(self.ops))


class _FractionFree:
    """One reduction on Python ints, for questions that need no trace.

    Each row is multiplied by the lcm of its denominators; the scales travel
    with the rows through swaps.  Pivots are chosen as in ``_Elimination``,
    and each update ``(p*x - a*y) // prev`` divides exactly by the previous
    pivot.  Forward mode clears below each pivot.  ``upward=True`` clears
    every other row (fraction-free Gauss-Jordan); afterwards every pivot
    entry equals the last pivot, so the completely reduced matrix is
    ``grid / last``.  Rows are rebound, never mutated, so ``chosen[k]`` keeps
    pivot row k as it was when chosen, with the pivot before it.
    """

    def __init__(self, m: Matrix, upward: bool = False):
        self.grid = grid = []
        self.scales = scales = []
        for row in m.entries:
            s = lcm(*(x.denominator for x in row))
            scales.append(s)
            grid.append([x.numerator * (s // x.denominator) for x in row])
        self.pivots: list[tuple[int, int]] = []
        self.chosen: list[tuple[list[int], int]] = []
        self.sign = prev = 1
        r = 0
        for c in range(m.cols):
            if r == m.rows:
                break
            src = next((k for k in range(r, m.rows) if grid[k][c]), None)
            if src is None:
                continue
            if src != r:
                grid[r], grid[src] = grid[src], grid[r]
                scales[r], scales[src] = scales[src], scales[r]
                self.sign = -self.sign
            top = grid[r]
            p = top[c]
            for k in range(0 if upward else r + 1, m.rows):
                if k == r:
                    continue
                a = grid[k][c]
                if a:
                    grid[k] = [(p * x - a * y) // prev for x, y in zip(grid[k], top)]
                else:
                    grid[k] = [p * x // prev for x in grid[k]]
            self.pivots.append((r, c))
            self.chosen.append((top, prev))
            prev = p
            r += 1
        self.last = prev

    def swept_row(self, k: int) -> tuple[Fraction, ...]:
        """Row k of the ``Fraction`` downward sweep (the semi-reduced matrix)."""
        row, prev = self.chosen[k]
        d = prev * self.scales[k]
        return tuple(Fraction(x, d) for x in row)

    def reduced(self, i: int, j: int) -> Fraction:
        """Entry (i, j) of the completely reduced matrix (after ``upward=True``)."""
        return Fraction(self.grid[i][j], self.last)


def reduce(m: Matrix, form: str = "completely_reduced") -> tuple[Matrix, Trace]:
    """Drive ``m`` to the named form, recording every operation.

    Deterministic pivoting: columns left to right; the topmost row (at or
    below the working row) with a nonzero entry is swapped up if it is not
    already in place; entries below each pivot are cleared immediately.
    The sweep leaves pivots staggered, so the echelon forms ask for nothing
    beyond their reduced counterparts here.
    """
    stage = _form_stage(form)
    run = _Elimination(m)
    run.finish(stage)
    trace = run.trace()
    return trace.end, trace


def _form_stage(form: str) -> int:
    try:
        return _FORM_STAGE[form]
    except KeyError:
        raise ValueError(
            f"unknown reduction form {form!r}; choose from {', '.join(FORMS)}"
        ) from None


def leaders(m: Matrix) -> tuple[tuple[int, int], ...]:
    """(row, column) of the first nonzero entry of every nonzero row."""
    found = []
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x != 0:
                found.append((i, j))
                break
    return tuple(found)


def satisfies_form(m: Matrix, form: str) -> bool:
    """Does ``m`` already meet the named form's definition?"""
    stage = _form_stage(form)
    lead = leaders(m)

    below_clear = all(
        all(m[k, j] == 0 for k in range(i + 1, m.rows)) for i, j in lead
    )
    if not below_clear:
        return False
    if stage >= 1 and any(m[i, j] != 1 for i, j in lead):
        return False
    if stage >= 2:
        if not all(
            all(m[k, j] == 0 for k in range(m.rows) if k != i) for i, j in lead
        ):
            return False
    if form in ("echelon", "reduced_echelon"):
        nonzero_rows = [i for i, _ in lead]
        if nonzero_rows != list(range(len(nonzero_rows))):
            return False  # a zero row sits above a nonzero one
        cols = [j for _, j in lead]
        if any(a >= b for a, b in zip(cols, cols[1:])):
            return False
        if form == "reduced_echelon":
            return satisfies_form(m, "completely_reduced")
    return True


# ---- linear systems ------------------------------------------------------------


@dataclass(frozen=True)
class Inconsistent:
    """A row reduced to 0 = value with value nonzero."""

    row: int
    value: Fraction

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Unique:
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infinite:
    """Solutions parametrized by the free variables.

    For the r-th leading variable:
    ``x[leading[r]] = constants[r] + sum(coefficients[r][s] * x[free[s]])``.
    All indices are 0-based column numbers.
    """

    leading: tuple[int, ...]
    free: tuple[int, ...]
    constants: tuple[Fraction, ...]
    coefficients: tuple[tuple[Fraction, ...], ...]

    def at(self, assignment) -> tuple[Fraction, ...]:
        """The full solution vector once every free variable is assigned.

        ``assignment`` is a mapping from free-variable index to value, or a
        sequence aligned with ``self.free``.
        """
        if isinstance(assignment, dict):
            free_vals = [as_scalar(assignment[f]) for f in self.free]
        else:
            free_vals = [as_scalar(v) for v in assignment]
            if len(free_vals) != len(self.free):
                raise DimensionMismatch(
                    f"{len(self.free)} free variables, {len(free_vals)} values"
                )
        n = len(self.leading) + len(self.free)
        x: list[Fraction] = [Fraction(0)] * n
        for f, v in zip(self.free, free_vals):
            x[f] = v
        for r, var in enumerate(self.leading):
            x[var] = self.constants[r] + sum(
                (c * v for c, v in zip(self.coefficients[r], free_vals)), Fraction(0)
            )
        return tuple(x)

    def particular(self) -> tuple[Fraction, ...]:
        """The solution with every free variable set to zero."""
        return self.at([0] * len(self.free))


SolutionSet = Union[Inconsistent, Unique, Infinite]


def _augmented(a: Matrix, b) -> Matrix:
    bvec = as_vector(b)
    if len(bvec) != a.rows:
        raise DimensionMismatch(f"{a.rows} equations, {len(bvec)} constants")
    return hstack(a, Matrix.column_vector(bvec))


def _solution(pivots: list[tuple[int, int]], n: int, entry) -> SolutionSet:
    """A consistent system's answer, where ``entry(i, j)`` reads the
    completely reduced augmented matrix and ``n`` counts the unknowns."""
    lead_cols = [j for _, j in pivots]
    constants = tuple(entry(i, n) for i, _ in pivots)
    free = tuple(j for j in range(n) if j not in lead_cols)
    if not free:
        return Unique(constants)
    coefficients = tuple(tuple(-entry(i, f) for f in free) for i, _ in pivots)
    return Infinite(tuple(lead_cols), free, constants, coefficients)


def solve_with_trace(a: Matrix, b) -> tuple[SolutionSet, Trace]:
    """Solve ``a x = b``; also hand back the elimination trace used.

    Inconsistency is detected after the downward sweep (the semi-reduced
    matrix), where the impossible row still shows its raw ``0 = value``, and
    the trace stops there; otherwise the same reduction is carried to
    completion and the solution read off.
    """
    run = _Elimination(_augmented(a, b))
    for i, j in run.pivots:
        if j == a.cols:
            return Inconsistent(row=i, value=run.grid[i][j]), run.trace()
    run.finish(2)
    return _solution(run.pivots, a.cols, lambda i, j: run.grid[i][j]), run.trace()


def solve(a: Matrix, b) -> SolutionSet:
    """Classify and solve ``a x = b`` exactly, with the same answer as
    :func:`solve_with_trace` (an inconsistent row shows its semi-reduced
    ``0 = value``) from one fraction-free reduction."""
    run = _FractionFree(_augmented(a, b), upward=True)
    for i, j in run.pivots:
        if j == a.cols:
            return Inconsistent(row=i, value=run.swept_row(i)[j])
    return _solution(run.pivots, a.cols, run.reduced)


def inverse_gauss_jordan(a: Matrix) -> Matrix:
    """Invert by reducing ``[A | I]``; raises NotInvertible when rank falls short."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix has no inverse")
    n = a.rows
    run = _FractionFree(hstack(a, Matrix.identity(n)), upward=True)
    if [j for _, j in run.pivots] != list(range(n)):
        raise NotInvertible("the matrix row-reduces short of the identity")
    return Matrix([[run.reduced(i, j) for j in range(n, 2 * n)] for i in range(n)])
