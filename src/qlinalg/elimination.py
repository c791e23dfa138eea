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
produces; the form names differ in how far normalization and clearing above
the leaders go.

One engine, ``_FractionFree``, runs every reduction as one downward sweep.
It eliminates on Python ints, two pivot columns per pass where it can
(E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968, the two-step method): each row
below a pair of pivots is updated once, dividing exactly by the pivot before
the pair, and a pivot with no partner in the next column clears its column
alone, dividing by the previous pivot.  No entry update pays for a gcd; exact
back-substitution reads the completely reduced matrix off the same run, on
only the columns a question reads.  Untraced questions convert to
``Fraction`` only in the answer; a trace is read off the run afterwards, as
the ``Fraction`` operations the paper's elimination performs.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import prod
from operator import mul

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInvertible,
    NotSquare,
    ZeroScale,
    _Record,
    _Verdict,
)
from .matrix import Matrix, as_vector, hstack
from .scalars import _check_ints, _cleared, _ratio, as_scalar, format_scalar


# ---- the three operations ----------------------------------------------------
#
# A traced reduction builds one per row operation, so each validates and sets
# its fields in its own __init__, faster than _Record's generic one.


class Scale(_Record):
    """alpha * R[row], alpha nonzero."""

    alpha: Fraction
    row: int

    def __init__(self, alpha, row):
        _check_ints("a row index", row)
        alpha = as_scalar(alpha)
        if alpha == 0:
            raise ZeroScale("scaling a row by zero is not a row operation")
        if row < 0:
            raise IndexOutOfRange(f"row {row}")
        self.__dict__.update(alpha=alpha, row=row)


class AddMultiple(_Record):
    """alpha * R[source] + R[target] -> R[target], alpha nonzero."""

    alpha: Fraction
    source: int
    target: int

    def __init__(self, alpha, source, target):
        _check_ints("a row index", source, target)
        alpha = as_scalar(alpha)
        if alpha == 0:
            raise ZeroScale("adding zero times a row is not a row operation")
        if source == target:
            raise ValueError("source and target rows must differ")
        if min(source, target) < 0:
            raise IndexOutOfRange(f"rows {source}, {target}")
        self.__dict__.update(alpha=alpha, source=source, target=target)


class Swap(_Record):
    """R[first] <-> R[second]."""

    first: int
    second: int

    def __init__(self, first, second):
        _check_ints("a row index", first, second)
        if first == second:
            raise ValueError("swapping a row with itself is not a row operation")
        if min(first, second) < 0:
            raise IndexOutOfRange(f"rows {first}, {second}")
        self.__dict__.update(first=first, second=second)


RowOp = Scale | AddMultiple | Swap


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


def _replay(m: Matrix, ops) -> Matrix:
    """``ops`` applied in turn to one copy of ``m``'s rows, edited in place:
    a scale or an added multiple rebuilds its one row, a swap exchanges two."""
    grid = [list(r) for r in m.entries]
    for op in ops:
        for r in _op_rows(op):
            if r >= m.rows:
                raise IndexOutOfRange(f"row {r} outside a {m.rows}-row matrix")
        if isinstance(op, Scale):
            grid[op.row] = [op.alpha * x for x in grid[op.row]]
        elif isinstance(op, AddMultiple):
            src = grid[op.source]
            grid[op.target] = [t + op.alpha * s for t, s in zip(grid[op.target], src)]
        else:
            grid[op.first], grid[op.second] = grid[op.second], grid[op.first]
    return Matrix._of(tuple(map(tuple, grid)))


def apply_row_op(m: Matrix, op: RowOp) -> Matrix:
    """The matrix after one row operation (the input is untouched)."""
    return _replay(m, (op,))


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


class Trace(_Record):
    """What an elimination did: the ordered row operations carrying start to end.

    Iterating a trace yields its operations.  The elementary matrix of a step
    is ``elementary_matrix(op, trace.start.rows)`` and its determinant factor
    ``row_op_det_effect(op)``, each derived only when asked for.
    """

    start: Matrix
    end: Matrix
    steps: tuple[RowOp, ...]

    def replay(self, m: Matrix | None = None) -> Matrix:
        """Apply the recorded operations to ``m`` (default: to ``start``)."""
        return _replay(self.start if m is None else m, self.steps)

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

# How far each form goes: 0 = clear below leaders, 1 = also scale leaders
# to 1, 2 = also clear above leaders.  Reduced-echelon is a completely
# reduced matrix whose leaders are staggered, so it shares stage 2.
_FORM_STAGE = {
    "semi_reduced": 0,
    "reduced": 1,
    "completely_reduced": 2,
    "echelon": 0,
    "reduced_echelon": 2,
}

FORMS = tuple(_FORM_STAGE)


class _FractionFree:
    """One forward reduction on Python ints.

    Each row of a ``Matrix`` is multiplied by the lcm of its denominators;
    rows that are already ints (a list of int lists) stand for themselves over
    ``scales``, one positive int per row (1 when not given), and the run
    consumes them: it edits those lists in place.  The scales travel
    with the rows through swaps.  A pivot p in column c, on pivot row T,
    pairs with column c + 1 when some row below has a nonzero entry there
    one step on; the first such row X is swapped up behind T, and every
    other row R below is cleared of both columns in one pass (Bareiss's
    two-step method), ``(p2*R + c1*T - e*X) // prev``.  Here T, X and R are
    the rows as they stand before the pair (index 0 is column c), ``prev``
    is the pivot before p, ``e = (p*R[1] - R[0]*T[1]) // prev`` is R's entry
    at c + 1 one step on, ``c1 = (X[0]*R[1] - R[0]*X[1]) // prev``, and the
    second pivot ``p2`` is X's entry at c + 1 one step on.  A pivot with no
    partner (in the last column or row, or when column c + 1 falls free)
    clears the rows below it alone, by ``(p*x - a*y) // prev``.  Every
    division is exact, and the record is the one-pivot sweep's:
    ``chosen[k]`` is pivot row k with the pivot before it, and ``last`` is
    the final pivot.  ``width`` is the number of columns.  ``steps`` holds
    each swap and, per row cleared below a pivot, the raw ``(pivot row, row,
    entry, row scale)`` that :meth:`op` reads, pivot by pivot: a pair records
    its first pivot's entries, the swap for its second, then the second's.

    While column c is worked on, every row from the working row down holds
    only its columns from c on: the columns before c are known zeros.  Each
    row drops its leading entries once they are read (as pivots, as
    multipliers, or as a zero in a free column), and a pivot row gets its
    zero prefix back once, when it goes into ``chosen``.

    Callers read ``pivots[k]``, the column of row k's pivot, ``free``, the
    columns with no pivot (both ascending, together every column once),
    ``order[k]``, the input row now at row k, :meth:`minor`, the determinant
    on the pivot columns, :meth:`reduced`, :meth:`null_basis`, :meth:`swept_row`
    and ``steps`` with :meth:`op`.  The record fields ``sign``, ``last``,
    ``scales`` and ``chosen`` stay here.
    """

    def __init__(self, m: Matrix | list[list[int]], scales: list[int] | None = None):
        if isinstance(m, Matrix):
            grid, scales = [], []
            for row in m.entries:
                ints, s = _cleared(row)
                grid.append(ints)
                scales.append(s)
        else:
            grid, scales = m, scales or [1] * len(m)
        height, width = len(grid), len(grid[0])
        self.width, self.scales = width, scales
        self.order = order = list(range(height))
        self.pivots, self.free = pivots, free = [], []
        self.chosen: list[tuple[list[int], int]] = []
        self.steps: list[Swap | tuple[int, int, int, int]] = []
        chosen, steps = self.chosen, self.steps
        sign = prev = 1
        r = c = 0
        while c < width:
            for src in range(r, height):
                if grid[src][0]:
                    break
            else:
                free.append(c)
                for k in range(r, height):
                    del grid[k][0]
                c += 1
                continue
            if src != r:
                for held in (grid, scales, order):
                    held[r], held[src] = held[src], held[r]
                sign = -sign
                steps.append(Swap(r, src))
            top = grid[r]
            p = top[0]
            chosen.append(([0] * c + top, prev))
            pivots.append(c)
            # the partner: the first row below whose entry at c + 1 is nonzero one step on
            for two in range(r + 1, height if c + 1 < width else r + 1):
                x = grid[two]
                if p * x[1] != x[0] * top[1]:
                    break
            else:  # no partner: clear column c alone
                del top[0]
                for k in range(r + 1, height):
                    row = grid[k]
                    a = row[0]
                    del row[0]
                    if a:
                        grid[k] = [(p * x - a * y) // prev for x, y in zip(row, top)]
                        steps.append((r, k, a, scales[k]))
                    else:
                        grid[k] = [p * x // prev for x in row]
                prev = p
                r, c = r + 1, c + 1
                continue
            # a pair: X = x is the second pivot row; clear columns c and c + 1 at once
            x0, x1, t1 = x[0], x[1], top[1]
            p2 = (p * x1 - x0 * t1) // prev
            top, x = top[2:], x[2:]
            second = []
            for k in range(r + 1, height):
                row = grid[k]
                if a := row[0]:
                    steps.append((r, k, a, scales[k]))
                if k == two:
                    continue
                b = row[1]
                e, c1 = (p * b - a * t1) // prev, (x0 * b - a * x1) // prev
                del row[:2]
                grid[k] = [(p2 * y + c1 * t - e * z) // prev for y, t, z in zip(row, top, x)]
                if e:
                    second.append((r + 1, k, e, scales[k]))
            if two != r + 1:
                for held in (grid, scales, order):
                    held[r + 1], held[two] = held[two], held[r + 1]
                sign = -sign
                steps.append(Swap(r + 1, two))
            x = [(p * y - x0 * t) // prev for y, t in zip(x, top)]
            chosen.append(([0] * (c + 1) + [p2] + x, p))
            pivots.append(c + 1)
            steps += second
            prev = p2
            r, c = r + 2, c + 2
        self.sign, self.last = sign, prev

    def minor(self) -> Fraction:
        """Determinant of the rows on the pivot columns, 0 below full row rank:
        the last pivot, signed by the swaps, over the product of the row scales."""
        if len(self.pivots) < len(self.scales):
            return Fraction(0, 1)
        return _ratio(self.sign * self.last, prod(self.scales))

    def swept_row(self, k: int) -> tuple[Fraction, ...]:
        """Row k of the ``Fraction`` downward sweep (the semi-reduced matrix)."""
        row, prev = self.chosen[k]
        c, d = self.pivots[k], prev * self.scales[k]
        return (Fraction(0, 1),) * c + tuple(_ratio(x, d) for x in row[c:])

    def _reduced_ints(self, cols) -> list[tuple[int, ...]]:
        """``last`` times the pivot rows of the completely reduced matrix R,
        restricted to ``cols``, by back-substitution on the pivot rows U_k =
        ``chosen[k]`` from the last pivot up: with c_i the pivot column of row i,
        ``last*R_k = (last*U_k - sum(U_k[c_i] * last*R_i for i > k)) // U_k[c_k]``.
        ``last*R`` is integral (Bareiss), so every division is exact."""
        last, later, columns = self.last, [], [[] for _ in cols]
        for c, (row, _) in zip(reversed(self.pivots), reversed(self.chosen)):
            coeffs, p = [row[ci] for ci in later], row[c]
            for j, done in zip(cols, columns):  # done: last*R_i[j], last pivot first
                done.append((last * row[j] - sum(map(mul, coeffs, done))) // p)
            later.append(c)
        return [tuple(done[i] for done in columns) for i in reversed(range(len(later)))]

    def reduced(self, cols) -> list[list[Fraction]]:
        """The pivot rows of the completely reduced matrix, on ``cols``."""
        last = self.last
        return [[_ratio(x, last) for x in row] for row in self._reduced_ints(cols)]

    def null_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """One null vector per free column (1 there, 0 at the other free
        columns, and each leading variable read off the completely reduced
        matrix, on the free columns only), its signs taken on the ints."""
        last, zero, one = self.last, Fraction(0, 1), Fraction(1, 1)
        rows, basis = self._reduced_ints(self.free), []
        for s, f in enumerate(self.free):
            v = [zero] * self.width
            v[f] = one
            for c, row in zip(self.pivots, rows):
                v[c] = _ratio(-row[s], last)
            basis.append(tuple(v))
        return tuple(basis)

    def op(self, i: int) -> RowOp:
        """Stage-0 operation i, built from ``steps[i]`` alone."""
        if isinstance(step := self.steps[i], Swap):
            return step
        r, k, a, s = step
        pivot = self.chosen[r][0][self.pivots[r]]
        return AddMultiple(_ratio(-a * self.scales[r], pivot * s), r, k)

    def ops(self, stage: int) -> list[RowOp]:
        """The ``Fraction`` operations carrying the start to ``stage`` (see
        ``_FORM_STAGE``).  Row k of the sweep is ``chosen[k]`` over ``prev *
        scale``; clearing above a pivot leaves the other pivot columns alone
        (later pivot rows are zero there), so every multiplier is a ratio of
        recorded ints."""
        chosen, scales = self.chosen, self.scales
        pivot = [row[c] for c, (row, _) in zip(self.pivots, chosen)]
        ops = list(map(self.op, range(len(self.steps))))
        if stage >= 1:
            for r, (_, prev) in enumerate(chosen):
                if pivot[r] != prev * scales[r]:
                    ops.append(Scale(_ratio(prev * scales[r], pivot[r]), r))
        if stage >= 2:
            for r, c in reversed(list(enumerate(self.pivots))):
                for k in range(r - 1, -1, -1):
                    above = chosen[k][0][c]
                    if above:
                        ops.append(AddMultiple(_ratio(-above, pivot[k]), r, k))
        return ops

    def trace(self, start: Matrix, stage: int) -> Trace:
        """``ops(stage)`` and where they carry ``start``, the matrix this run
        reduced: the pivot rows of the sweep (stage 0), scaled to leading 1s
        (stage 1) or completely reduced (stage 2), over the zero rows."""
        zero, one, end = Fraction(0, 1), Fraction(1, 1), []
        if stage == 2:  # the pivot columns are unit vectors; back-substitute the rest
            for c, xs in zip(self.pivots, self.reduced(self.free)):
                at = {c: one, **dict(zip(self.free, xs))}
                end.append([at.get(j, zero) for j in range(self.width)])
        else:
            for c, (row, prev), s in zip(self.pivots, self.chosen, self.scales):
                d = prev * s if stage == 0 else row[c]
                end.append([_ratio(x, d) for x in row])
        end += [[zero] * self.width] * (len(self.scales) - len(end))
        return Trace(start, Matrix._of(tuple(map(tuple, end))), tuple(self.ops(stage)))


def reduce(m: Matrix, form: str = "completely_reduced") -> tuple[Matrix, Trace]:
    """Drive ``m`` to the named form, recording every operation.

    Deterministic pivoting: columns left to right; the topmost row (at or
    below the working row) with a nonzero entry is swapped up if it is not
    already in place; entries below each pivot are cleared immediately.
    The sweep leaves pivots staggered, so the echelon forms ask for nothing
    beyond their reduced counterparts here.
    """
    stage = _form_stage(form)
    trace = _FractionFree(m).trace(m, stage)
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
    return True


# ---- linear systems ------------------------------------------------------------


class Inconsistent(_Verdict):
    """A row reduced to 0 = value with value nonzero."""

    row: int
    value: Fraction


class Unique(_Record):
    values: tuple[Fraction, ...]


class Infinite(_Record):
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
        sequence aligned with ``self.free``.  A mapping must give exactly the
        free variables, as ints, and a sequence one value per free variable.
        """
        if isinstance(assignment, Mapping):
            _check_ints("a free variable", *assignment)
            if assignment.keys() != set(self.free):
                raise DimensionMismatch(
                    f"free variables {self.free}, values for {tuple(assignment)}"
                )
            free_vals = [as_scalar(assignment[f]) for f in self.free]
        else:
            free_vals = [as_scalar(v) for v in assignment]
            if len(free_vals) != len(self.free):
                raise DimensionMismatch(
                    f"free variables {self.free}, {len(free_vals)} values"
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


SolutionSet = Inconsistent | Unique | Infinite


def _augmented(a: Matrix, b) -> Matrix:
    bvec = as_vector(b)
    if len(bvec) != a.rows:
        raise DimensionMismatch(f"{a.rows} equations, {len(bvec)} constants")
    return hstack(a, Matrix._of(tuple((x,) for x in bvec)))


def _solution(run: _FractionFree, n: int) -> SolutionSet:
    """The answer read off the forward reduction of an augmented matrix with
    ``n`` unknowns: a pivot in the constants column is the impossible row,
    reported as its semi-reduced ``0 = value``; else back-substitution reads
    only the constants column and the free columns."""
    if n in run.pivots:  # the last pivot, in the constants column
        i = len(run.pivots) - 1
        return Inconsistent(row=i, value=run.swept_row(i)[n])
    free = tuple(run.free[:-1])  # the constants column n is free and last
    last, rows = run.last, run._reduced_ints((n, *free))
    constants = tuple(_ratio(row[0], last) for row in rows)
    if not free:
        return Unique(constants)
    coefficients = tuple(tuple(_ratio(-x, last) for x in row[1:]) for row in rows)
    return Infinite(tuple(run.pivots), free, constants, coefficients)


def solve_with_trace(a: Matrix, b) -> tuple[SolutionSet, Trace]:
    """Solve ``a x = b``; also hand back the elimination trace used.

    An inconsistent system's trace stops at the semi-reduced matrix, where
    the impossible row shows its raw ``0 = value``; any other runs on to the
    completely reduced matrix the solution is read from.
    """
    aug = _augmented(a, b)
    run = _FractionFree(aug)
    answer = _solution(run, a.cols)
    return answer, run.trace(aug, 0 if isinstance(answer, Inconsistent) else 2)


def solve(a: Matrix, b) -> SolutionSet:
    """Classify and solve ``a x = b`` exactly: :func:`solve_with_trace`'s
    answer without its trace."""
    return _solution(_FractionFree(_augmented(a, b)), a.cols)


def inverse_gauss_jordan(a: Matrix) -> Matrix:
    """Invert by reducing ``[A | I]``; raises NotInvertible when rank falls short.

    The sweep runs on the integer rows ``[S A | S]``, S the diagonal of the
    rows' clearing scales, whose reduced right half is A^-1 all the same."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix has no inverse")
    n = a.rows
    run = _FractionFree([
        ints + [0] * i + [s] + [0] * (n - 1 - i)
        for i, (ints, s) in enumerate(map(_cleared, a.entries))
    ])
    if run.pivots != list(range(n)):
        raise NotInvertible("the matrix row-reduces short of the identity")
    return Matrix._of(tuple(map(tuple, run.reduced(range(n, 2 * n)))))
