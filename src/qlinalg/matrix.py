"""Dense matrices over exact rationals.

A :class:`Matrix` is an immutable rows-by-columns grid of ``Fraction``
entries.  Row and column vectors are just 1xn and nx1 matrices; anywhere a
vector is wanted, a plain sequence of scalars works too (see
:func:`as_vector`).

The text format read by :func:`parse_matrix_text` separates rows with ``;`` or
newlines and entries with whitespace; a single ``|`` may mark where an
augmented matrix splits into coefficients and constants::

    3 2 | 5 ; -2 1 | -6
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    NotSquare,
    RaggedRows,
)
from .scalars import _cleared, _ratio, as_scalar, format_scalar, parse_scalar


class Matrix:
    """An immutable exact-rational matrix.

    Entries may be given as ints, Fractions, or scalar strings::

        Matrix([[1, "1/2"], ["0.25", -3]])

    Arithmetic is by operator: ``A + B``, ``A - B``, ``-A``, ``alpha * A``,
    ``A @ B``, ``A ** k`` for k >= 0.
    """

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise EmptyInput("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise RaggedRows("rows of unequal length")
        self._data = data

    @classmethod
    def _of(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        """A matrix over rows the library has just built: a nonempty tuple of
        equal-length, nonempty tuples of ``Fraction``s, taken as they are,
        skipping the coercion and checks a user-built one gets."""
        m = object.__new__(cls)
        m._data = rows
        return m

    # ---- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 1:
            raise EmptyInput("identity needs n >= 1")
        one, zero = Fraction(1), Fraction(0)
        return cls._of(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise EmptyInput("zero matrix needs positive dimensions")
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def row_vector(cls, values: Iterable) -> "Matrix":
        return cls([list(values)])

    @classmethod
    def column_vector(cls, values: Iterable) -> "Matrix":
        return cls([[v] for v in values])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls(columns).transpose()

    @classmethod
    def parse(cls, text: str) -> "Matrix":
        m, boundary = parse_matrix_text(text)
        if boundary is not None:
            raise RaggedRows("unexpected '|' in a plain (non-augmented) matrix")
        return m

    # ---- shape and access -----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return len(self._data[0])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._data

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[Fraction, ...]:
        self._check_row(i)
        return self._data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        self._check_col(j)
        return tuple(r[j] for r in self._data)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        self._check_row(i)
        self._check_col(j)
        return self._data[i][j]

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.rows:
            raise IndexOutOfRange(f"row {i} outside 0..{self.rows - 1}")

    def _check_col(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"column {j} outside 0..{self.cols - 1}")

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        return iter(self._data)

    # ---- equality -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return self._data == other._data
        return NotImplemented

    def __hash__(self):
        return hash(self._data)

    # ---- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other, "+")
        return Matrix._of(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self._data, other._data))
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other, "-")
        return Matrix._of(
            tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self._data, other._data))
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(-a for a in r) for r in self._data))

    def _same_shape(self, other: "Matrix", op: str) -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot apply {op} to Matrix and {type(other).__name__}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} {op} {other.rows}x{other.cols}"
            )

    def __mul__(self, alpha) -> "Matrix":
        alpha = as_scalar(alpha)
        return Matrix._of(tuple(tuple(alpha * a for a in r) for r in self._data))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot multiply Matrix by {type(other).__name__}")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        # entry (i, j) is sum(u*v) / (s*t) over row i of self cleared to
        # (u, s) and column j of other cleared to (v, t): one gcd per entry
        rows = [_cleared(row) for row in self._data]
        cols = [_cleared(col) for col in zip(*other._data)]
        return Matrix._of(tuple(
            tuple(_ratio(sum(map(mul, u, v)), s * t) for v, t in cols) for u, s in rows
        ))

    def __pow__(self, k: int) -> "Matrix":
        """A^k = B^k / d^k for the integer image B = d A: B is squared on
        ints, left to right over the bits of k, and each entry becomes a
        ``Fraction`` once, at the end."""
        if not self.is_square:
            raise NotSquare("powers need a square matrix")
        if k < 0:
            raise ValueError(
                "Matrix.__pow__ takes k >= 0; for negative powers use matrix_power"
            )
        if k == 0:
            return Matrix.identity(self.rows)
        b, d = _integer_image(self)
        power = b
        for bit in bin(k)[3:]:
            power = _int_product(power, power)
            if bit == "1":
                power = _int_product(power, b)
        dk = d**k
        return Matrix._of(tuple(tuple(_ratio(x, dk) for x in row) for row in power))

    # ---- reshaping ---------------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self._data)))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise NotSquare("trace needs a square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), Fraction(0))

    def take_columns(self, start: int, stop: int) -> "Matrix":
        if not (0 <= start < stop <= self.cols):
            raise IndexOutOfRange(f"column slice {start}:{stop} outside 0..{self.cols}")
        return Matrix._of(tuple(r[start:stop] for r in self._data))

    def drop(self, row: int | None = None, col: int | None = None) -> "Matrix":
        """The matrix with one row and/or one column removed."""
        if row is not None:
            self._check_row(row)
        if col is not None:
            self._check_col(col)
        rows = tuple(
            tuple(a for j, a in enumerate(r) if j != col)
            for i, r in enumerate(self._data)
            if i != row
        )
        if not rows or not rows[0]:
            raise EmptyInput("a matrix needs at least one row and one column")
        return Matrix._of(rows)

    def __repr__(self):
        return f"Matrix({[[str(x) for x in r] for r in self._data]})"

    def __str__(self):
        return render_block(self)


def hstack(left: Matrix, right: Matrix) -> Matrix:
    """Glue two matrices side by side."""
    if left.rows != right.rows:
        raise DimensionMismatch(
            f"cannot place {left.rows}-row and {right.rows}-row matrices side by side"
        )
    return Matrix._of(tuple(ra + rb for ra, rb in zip(left.entries, right.entries)))


def _integer_image(m: Matrix) -> tuple[list[list[int]], int]:
    """The rows of B = d M as ints, and d, the lcm of M's denominators."""
    flat, d = _cleared([x for row in m.entries for x in row])
    w = m.cols
    return [flat[i:i + w] for i in range(0, len(flat), w)], d


def _int_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two matrices held as rows of ints."""
    cols = list(zip(*b))
    return [[sum(map(mul, u, v)) for v in cols] for u in a]


def as_vector(v) -> tuple[Fraction, ...]:
    """Flatten a 1xn or nx1 matrix, or coerce any scalar sequence."""
    if isinstance(v, Matrix):
        if v.rows == 1:
            return v.row(0)
        if v.cols == 1:
            return v.col(0)
        raise DimensionMismatch(f"{v.rows}x{v.cols} matrix is not a vector")
    if isinstance(v, str):
        return tuple(as_scalar(tok) for tok in v.split())
    return tuple(as_scalar(x) for x in v)


# ---- text form ------------------------------------------------------------------


def _split_rows(text: str) -> list[str]:
    """The non-blank rows of the text format, split on ';' and newlines, stripped."""
    return [
        piece.strip()
        for chunk in text.splitlines()
        for piece in chunk.split(";")
        if piece.strip()
    ]


def parse_matrix_text(text: str) -> tuple[Matrix, int | None]:
    """Read the row text format; returns the matrix and the ``|`` position.

    The boundary is the number of columns left of the ``|`` (None when the
    text has no bar).  Every row must put the bar in the same place.
    """
    raw_rows = _split_rows(text)
    if not raw_rows:
        raise EmptyInput("no rows in matrix text")
    grid: list[list[str]] = []
    boundaries: set[int | None] = set()
    for raw in raw_rows:
        sides = [side.split() for side in raw.split("|")]
        if len(sides) > 2:
            raise RaggedRows(f"more than one '|' in row {raw!r}")
        if not all(sides):
            raise RaggedRows(f"'|' with an empty side in row {raw!r}")
        boundaries.add(len(sides[0]) if len(sides) == 2 else None)
        grid.append([tok for side in sides for tok in side])
    if len(boundaries) > 1:
        raise RaggedRows("the '|' must sit in the same place in every row")
    # every token is read, in order, before any width is compared, as Matrix(grid)
    # does; a token that recurs is read once and shares its (immutable) Fraction
    read: dict[str, Fraction] = {}
    rows = tuple(
        tuple([read[t] if t in read else read.setdefault(t, parse_scalar(t)) for t in r])
        for r in grid
    )
    if any(len(r) != len(rows[0]) for r in rows):
        raise RaggedRows("rows of unequal length")
    return Matrix._of(rows), boundaries.pop()


def split_augmented(m: Matrix, boundary: int) -> tuple[Matrix, Matrix]:
    """Cut an augmented matrix at the bar into (coefficients, constants)."""
    if not 0 < boundary < m.cols:
        raise DimensionMismatch(f"boundary {boundary} outside matrix of {m.cols} columns")
    return m.take_columns(0, boundary), m.take_columns(boundary, m.cols)


def render_inline(m: Matrix) -> str:
    """One-line form: ``[1 0 2; 3 1 -1]``."""
    return "[" + "; ".join(" ".join(format_scalar(x) for x in r) for r in m.entries) + "]"


def render_block(m: Matrix) -> str:
    """Multi-line form with right-aligned columns."""
    cells = [[format_scalar(x) for x in r] for r in m.entries]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return "\n".join(
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
        for row in cells
    )


# ---- products as combinations ------------------------------------------------------


class Combination:
    """One column (or row) of a product, written as a linear combination.

    ``result`` equals ``sum(c * g for c, g in zip(coefficients, generators))``
    entrywise.
    """

    __slots__ = ("coefficients", "generators", "result")

    def __init__(self, coefficients, generators):
        self.coefficients = tuple(coefficients)
        self.generators = tuple(tuple(g) for g in generators)
        self.result = tuple(
            sum((c * g[t] for c, g in zip(self.coefficients, self.generators)),
                Fraction(0))
            for t in range(len(self.generators[0]))
        )

    def __repr__(self):
        return f"Combination(coefficients={self.coefficients}, result={self.result})"


def product_as_combination(a: Matrix, b: Matrix, axis: str = "columns") -> list[Combination]:
    """Each column of AB as a combination of A's columns (or rows of B).

    With ``axis="columns"`` entry j combines the columns of ``a`` with
    coefficients from column j of ``b``; with ``axis="rows"`` entry i combines
    the rows of ``b`` with coefficients from row i of ``a``.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if axis == "columns":
        gens = [a.col(j) for j in range(a.cols)]
        return [Combination(b.col(j), gens) for j in range(b.cols)]
    if axis == "rows":
        gens = [b.row(i) for i in range(b.rows)]
        return [Combination(a.row(i), gens) for i in range(a.rows)]
    raise ValueError(f"axis must be 'columns' or 'rows', not {axis!r}")


# ---- symmetry ---------------------------------------------------------------------


class SymmetryClass(enum.Enum):
    SYMMETRIC = "symmetric"
    SKEW_SYMMETRIC = "skew-symmetric"
    NEITHER = "neither"
    NOT_SQUARE = "not square"


def classify_symmetry(m: Matrix) -> SymmetryClass:
    """Symmetric, skew-symmetric, neither, or not square at all.

    The zero matrix is both symmetric and skew; it reports as symmetric.
    """
    if not m.is_square:
        return SymmetryClass.NOT_SQUARE
    t = m.transpose()
    if t == m:
        return SymmetryClass.SYMMETRIC
    if t == -m:
        return SymmetryClass.SKEW_SYMMETRIC
    return SymmetryClass.NEITHER


def sym_skew_decompose(a: Matrix) -> tuple[Matrix, Matrix]:
    """Split a square A into (B, C) with B = A + A^T symmetric, C = A - A^T skew.

    Then (1/2)B + (1/2)C = A.
    """
    if not a.is_square:
        raise NotSquare("symmetric/skew decomposition needs a square matrix")
    t = a.transpose()
    return a + t, a - t
