"""Subspaces of Q^n: independence, bases, spans, and the fundamental trio.

The canonical basis of a span is what survives stacking the generators as
rows and semi-reducing: the nonzero rows.  Dependence is witnessed by the
reduction step that first zeroed a row.  Extension to a basis and span
comparison read the pivot columns of one reduction instead.

Subspaces given by coordinate formulas ("(a, -2a+b, -a)") are handled by the
switch trick: set one parameter to 1 and the rest to 0, once per parameter,
and span the resulting points.  A nonzero constant in any coordinate means
the zero vector is missing and the set is no subspace at all.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

from .elimination import RowOp, Swap, _FractionFree
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InputDependent,
    MalformedForm,
    MixedDimensions,
    NonLinearCoordinate,
    ZeroDenominator,
    _Record,
)
from .matrix import Matrix, as_vector
from .scalars import _NUMBER, _render_sum, as_scalar, format_scalar, parse_scalar

Vector = tuple[Fraction, ...]


def _family(vectors) -> tuple[Vector, ...]:
    vecs = tuple(as_vector(v) for v in vectors)
    if not vecs:
        raise EmptyInput("at least one vector is required")
    if len({len(v) for v in vecs}) > 1:
        raise MixedDimensions("vectors of different lengths")
    return vecs


# ---- independence -----------------------------------------------------------


class Independent(_Record):
    """No row of the stacked generators vanished."""


class Dependent(_Record):
    """A row of the stacked generators vanished.

    ``row`` is its position at that moment; ``op`` is the reduction step that
    zeroed it, or None when a zero vector was already in the input.
    """

    row: int
    op: RowOp | None

    def __bool__(self) -> bool:
        return False


IndependenceVerdict = Union[Independent, Dependent]


def independence(vectors) -> IndependenceVerdict:
    """Exact test: stack as rows, semi-reduce, look for vanished rows.  The
    first to vanish is a zero input, else the target of the AddMultiple that
    emptied it.  The sweep adds only to a row with a nonzero entry under the
    pivot, so following each input row through the swaps, the witness is the
    earliest last AddMultiple among the rows that end below the rank."""
    vecs = _family(vectors)
    run = _FractionFree(Matrix(vecs))
    if len(run.pivots) == len(vecs):
        return Independent()
    zero = next((i for i, v in enumerate(vecs) if not any(v)), None)
    if zero is not None:
        return Dependent(row=zero, op=None)
    last = [None] * len(vecs)  # per place, the step that last added to its row
    for i, step in enumerate(run.steps):  # a Swap, or a raw (pivot row, row, ...)
        if isinstance(step, Swap):
            last[step.first], last[step.second] = last[step.second], last[step.first]
        else:
            last[step[1]] = i
    op = run.op(min(last[len(run.pivots):]))
    return Dependent(row=op.target, op=op)


# ---- subspaces ---------------------------------------------------------------


class Subspace(_Record):
    """A subspace of Q^ambient, carried by an independent (possibly empty) basis."""

    ambient: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "basis", tuple(as_vector(v) for v in self.basis)
        )
        if self.ambient < 1:
            raise EmptyInput("ambient dimension must be at least 1")
        if any(len(v) != self.ambient for v in self.basis):
            raise MixedDimensions(
                f"basis vectors must have length {self.ambient}"
            )
        if self.basis and not independence(self.basis):
            raise InputDependent("a basis must be independent")

    @classmethod
    def _trusted(cls, ambient: int, basis: tuple[Vector, ...]) -> "Subspace":
        """A subspace over vectors of exact scalars that the library has just
        shown to be independent, skipping the proof a user-built one gets."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient", ambient)
        object.__setattr__(space, "basis", basis)
        return space

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def __contains__(self, q) -> bool:
        return span_contains(self, q) is not None

    def same_space(self, other: "Subspace") -> bool:
        """Span equality: the same ambient space and dimension, and stacking
        both bases adds no dimension (the pivots of one reduction)."""
        if self.ambient != other.ambient or self.dimension != other.dimension:
            return False
        if self.is_zero:
            return True
        run = _FractionFree(Matrix._of(self.basis + other.basis))
        return len(run.pivots) == self.dimension


def basis_of_span(vectors) -> Subspace:
    """Canonical basis of the span: nonzero rows after semi-reduction."""
    vecs = _family(vectors)
    run = _FractionFree(Matrix(vecs))
    rows = tuple(run.swept_row(k) for k in range(len(run.pivots)))
    return Subspace._trusted(len(vecs[0]), rows)


def span_contains(space: Subspace, q) -> tuple[Fraction, ...] | None:
    """Coefficients of ``q`` against the basis, or None when outside: one
    reduction of the columns [b1 .. bk | q], where ``q`` is outside exactly
    when column k is a pivot.  An empty tuple answers yes for the zero
    vector in the zero subspace.
    """
    qv = as_vector(q)
    if len(qv) != space.ambient:
        raise DimensionMismatch(
            f"vector of length {len(qv)} against ambient {space.ambient}"
        )
    k = space.dimension
    run = _FractionFree(Matrix._of(tuple(zip(*space.basis, qv))))
    if k in run.pivots:
        return None
    return tuple(x for (x,) in run.reduced((k,)))


def extend_to_basis(vectors) -> Subspace:
    """Grow an independent set to a basis of Q^n, n the vectors' length, by
    appending standard vectors.

    The pivot columns of one reduction of [v1 .. vk | e1 .. en] are the greedy
    left-to-right choice; the inputs must all be pivots, and stay in front.
    """
    vecs = _family(vectors)
    ambient = len(vecs[0])
    units = tuple(tuple(Fraction(int(i == j)) for j in range(ambient)) for i in range(ambient))
    columns = vecs + units
    kept = _FractionFree(Matrix.from_columns(columns)).pivots
    if kept[: len(vecs)] != list(range(len(vecs))):
        raise InputDependent("can only extend an independent set")
    return Subspace._trusted(ambient, tuple(columns[j] for j in kept))


# ---- coordinate formulas ---------------------------------------------------------

_NAME = r"[A-Za-z_]\w*"
_TERM = rf"(?:(?P<coef>{_NUMBER})\s*(?:\*\s*(?={_NAME}))?)?(?P<name>{_NAME})?\Z"
_TOKEN = r"\s*[+-]?\s*[^+\-\s][^+-]*"
_NONLINEAR = rf"\^|\*\s*\*|{_NAME}\s*\*\s*{_NAME}"


class LinearForm(_Record):
    """constant + sum of coefficient * parameter, exactly; printed in the
    notation of :func:`scalars._render_sum`, as polynomials are."""

    constant: Fraction
    terms: tuple[tuple[str, Fraction], ...]

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        return self.constant == 0

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.terms:
            if n == name:
                return c
        return Fraction(0)

    def evaluate(self, assignment) -> Fraction:
        """The value at ``assignment`` (name -> value); names the form does not
        use are ignored, so a parametrized vector's coordinates can share one."""
        missing = [n for n, _ in self.terms if n not in assignment]
        if missing:
            raise DimensionMismatch(f"no value for parameter {', '.join(missing)}")
        return self.constant + sum(
            (c * as_scalar(assignment[n]) for n, c in self.terms), Fraction(0)
        )

    def __str__(self):
        return _render_sum(self.constant, self.terms)


def parse_linear_form(text: str) -> LinearForm:
    """Read one coordinate formula like ``-2a + b`` or ``1/2x1 - x3 + 4``.

    Whitespace may separate a term's sign, coefficient, ``*`` and name, but
    not split a number or a name: ``1 2a`` and ``x 1`` are refused, and so
    is a ``*`` with no name after it (``2*``).  Raises
    NonLinearCoordinate on powers or parameter products, MalformedForm on
    anything else unreadable.
    """
    if not text.strip():
        raise MalformedForm("empty coordinate formula")
    tokens = re.findall(_TOKEN, text)
    if "".join(tokens) != text:
        raise MalformedForm(f"cannot read {text!r}")
    constant = Fraction(0)
    order: list[str] = []
    coeffs: dict[str, Fraction] = {}
    for token in map(str.strip, tokens):
        sign = Fraction(1)
        body = token
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:].lstrip()
        m = re.match(_TERM, body)
        if not m or (m.group("coef") is None and m.group("name") is None):
            if re.search(_NONLINEAR, body):
                raise NonLinearCoordinate(f"nonlinear term {token!r} in {text!r}")
            raise MalformedForm(f"cannot read term {token!r} in {text!r}")
        coef = sign * (parse_scalar(m.group("coef")) if m.group("coef") else Fraction(1))
        name = m.group("name")
        if name is None:
            constant += coef
        else:
            if name not in coeffs:
                order.append(name)
                coeffs[name] = Fraction(0)
            coeffs[name] += coef
    return LinearForm(constant=constant, terms=tuple((n, coeffs[n]) for n in order))


_STEM_NUM = r"([A-Za-z_]+?)(\d+)\Z"


def infer_parameter_order(forms: Sequence[LinearForm]) -> tuple[str, ...]:
    """Parameter order across forms: numeric suffixes sort (x1, x2, ...),
    otherwise first appearance wins."""
    seen: list[str] = []
    for f in forms:
        for name in f.parameters:
            if name not in seen:
                seen.append(name)
    matches = [re.match(_STEM_NUM, n) for n in seen]
    if seen and all(matches) and len({m.group(1) for m in matches}) == 1:
        return tuple(sorted(seen, key=lambda n: int(re.match(_STEM_NUM, n).group(2))))
    return tuple(seen)


def _read_forms(forms, names, noun: str) -> tuple[list[LinearForm], tuple[str, ...]]:
    """Parse coordinate formulas and fix the order of their ``noun``s
    ("parameter" or "variable"): inferred when ``names`` is None, otherwise
    the declared order, which names each once and every formula keeps to."""
    parsed = []
    for idx, f in enumerate(forms):
        try:
            parsed.append(parse_linear_form(f) if isinstance(f, str) else f)
        except (NonLinearCoordinate, MalformedForm, ZeroDenominator) as e:
            raise type(e)(f"coordinate {idx + 1}: {e}") from None
    if not parsed:
        raise EmptyInput("no coordinate formulas given")
    if names is None:
        return parsed, infer_parameter_order(parsed)
    names = tuple(names)
    for idx, name in enumerate(names):
        if name in names[:idx]:
            raise MalformedForm(f"{noun} {name!r} is declared twice")
    for idx, f in enumerate(parsed):
        for name in f.parameters:
            if name not in names:
                raise MalformedForm(
                    f"coordinate {idx + 1} uses undeclared {noun} {name!r}"
                )
    return parsed, names


class NotSubspace(_Record):
    """The described set misses the zero vector."""

    coordinate: int
    constant: Fraction

    def __bool__(self) -> bool:
        return False

    def __str__(self):
        return (
            f"coordinate {self.coordinate + 1} has constant "
            f"{format_scalar(self.constant)}, so the zero vector is excluded"
        )


def subspace_from_forms(forms, parameters=None) -> Union[Subspace, NotSubspace]:
    """The set of all (form_1, ..., form_m) over all parameter values.

    Homogeneous forms give a subspace: one generator per parameter (that
    parameter set to 1, the rest to 0), then the canonical basis of the span.
    A nonzero constant anywhere is a NotSubspace verdict, not an error.
    """
    parsed, params = _read_forms(forms, parameters, "parameter")
    for idx, f in enumerate(parsed):
        if f.constant != 0:
            return NotSubspace(coordinate=idx, constant=f.constant)
    if not params:
        return Subspace.zero(len(parsed))
    points = [tuple(f.coefficient(p) for f in parsed) for p in params]
    return basis_of_span(points)


# ---- the fundamental subspaces of a matrix -------------------------------------


class Fundamentals(_Record):
    """Null space, row space, column space, with rank and nullity."""

    null: Subspace
    row: Subspace
    column: Subspace
    rank: int
    nullity: int


def _null_space(run: _FractionFree) -> Subspace:
    """The null space of the matrix ``run`` reduced: one generator per free
    column (see ``_FractionFree.null_basis``)."""
    return Subspace._trusted(run.width, run.null_basis())


def fundamental_subspaces(a: Matrix) -> Fundamentals:
    """All three subspaces from one forward reduction of ``a``.

    Row space: nonzero rows once the downward sweep is done (the
    semi-reduced matrix).  Column space: the columns of the *original* matrix
    at the leader positions.  Null space: see :func:`_null_space`.  Each
    basis is independent by construction.
    """
    run = _FractionFree(a)
    rank = len(run.pivots)
    return Fundamentals(
        null=_null_space(run),
        row=Subspace._trusted(a.cols, tuple(run.swept_row(k) for k in range(rank))),
        column=Subspace._trusted(a.rows, tuple(map(a.col, run.pivots))),
        rank=rank,
        nullity=a.cols - rank,
    )
