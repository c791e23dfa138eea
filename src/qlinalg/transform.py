"""Linear maps between coordinate spaces, held as standard matrices.

A map is built from coordinate formulas, from enough point-image pairs, or
directly from a matrix, as ``LinearMap(m)``.  Polynomial spaces ride along through the ascending
coefficient isomorphism: a polynomial of degree < n is the vector
(a_0, ..., a_{n-1}).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .elimination import _FractionFree
from .errors import (
    DegreeTooHigh,
    DependentPoints,
    DimensionMismatch,
    EmptyInput,
    MixedDimensions,
    NotSpanning,
    _Record,
)
from .matrix import Matrix, as_vector
from .poly import Polynomial
from .scalars import _ratio, format_scalar
from .spaces import Subspace, _null_space, _read_forms


class NotLinear(_Record):
    """A coordinate formula carries a nonzero constant, so zero does not map to zero."""

    coordinate: int
    constant: Fraction

    def __bool__(self) -> bool:
        return False

    def __str__(self):
        return (
            f"coordinate {self.coordinate + 1} has constant "
            f"{format_scalar(self.constant)}"
        )


class LinearMap(_Record):
    """A linear map Q^n -> Q^m as its standard matrix (m x n)."""

    matrix: Matrix

    def apply(self, v) -> tuple[Fraction, ...]:
        vec = as_vector(v)
        if len(vec) != self.matrix.cols:
            raise DimensionMismatch(
                f"map takes vectors of length {self.matrix.cols}, got {len(vec)}"
            )
        return as_vector(self.matrix @ Matrix.column_vector(vec))

    def kernel(self) -> Subspace:
        """All domain vectors sent to zero (the matrix's null space)."""
        return _null_space(_FractionFree(self.matrix))

    def range(self) -> Subspace:
        """All values actually taken (the matrix's column space): its own
        columns at the pivots of one reduction."""
        m = self.matrix
        return Subspace._trusted(m.rows, tuple(map(m.col, _FractionFree(m).pivots)))


def from_forms(forms, variables=None) -> Union[LinearMap, NotLinear]:
    """Build T from coordinate formulas like ``("3a1+a2", "a2", "-a1")``.

    Variables order the columns; when not given it is inferred (numeric
    suffixes such as x1, x2 sort by number, otherwise first appearance).
    A nonzero constant anywhere is a NotLinear verdict; powers or parameter
    products raise NonLinearCoordinate already at parsing.
    """
    parsed, names = _read_forms(forms, variables, "variable")
    for idx, f in enumerate(parsed):
        if f.constant != 0:
            return NotLinear(coordinate=idx, constant=f.constant)
    if not names:
        raise EmptyInput("the formulas mention no variables; pass variables=")
    rows = [[f.coefficient(n) for n in names] for f in parsed]
    return LinearMap(matrix=Matrix(rows))


def from_basis_images(pairs) -> LinearMap:
    """The unique linear map sending each given point to its given image.

    Needs exactly n independent points of Q^n (a basis); their images may
    live in any Q^m.  The standard matrix is T = Y P^{-1} with the points as
    the columns of P and the images as the columns of Y, read off one
    reduction of the rows ``[point | image]``: [P^T | Y^T] reduces to [I | T^T].
    """
    pts, imgs = [], []
    for p, y in pairs:
        pts.append(as_vector(p))
        imgs.append(as_vector(y))
    if not pts:
        raise EmptyInput("no point-image pairs given")
    if not all(pts):
        raise EmptyInput("a domain point needs at least one coordinate")
    if not all(imgs):
        raise EmptyInput("an image needs at least one coordinate")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise MixedDimensions("domain points of different lengths")
    if any(len(y) != len(imgs[0]) for y in imgs):
        raise MixedDimensions("images of different lengths")
    if len(pts) < n:
        count = "1 point" if len(pts) == 1 else f"{len(pts)} points"
        raise NotSpanning(f"{count} cannot determine a map on Q^{n}")
    # more than n points of Q^n are dependent without a reduction to show it
    rows = tuple(p + y for p, y in zip(pts, imgs))
    if len(pts) > n or (run := _FractionFree(Matrix._of(rows))).pivots != list(range(n)):
        raise DependentPoints("the domain points must form a basis")
    columns = run.reduced(range(n, n + len(imgs[0])))  # the right half, T^T
    return LinearMap(matrix=Matrix._of(tuple(zip(*columns))))


# ---- polynomial coordinates ---------------------------------------------------


def poly_to_coords(p: Polynomial, n: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of ``p`` padded to length ``n``."""
    if p.degree >= n:
        raise DegreeTooHigh(f"degree {p.degree} does not fit in {n} coordinates")
    return tuple(p.coefficient(k) for k in range(n))


def coords_to_poly(coords) -> Polynomial:
    return Polynomial(as_vector(coords))


def integral_functional(n: int) -> LinearMap:
    """The map sending a polynomial of degree < n to its integral over [0, 1].

    In coordinates it is the 1 x n row (1, 1/2, ..., 1/n).
    """
    if n < 1:
        raise EmptyInput("need at least the constant polynomials")
    row = [_ratio(1, k + 1) for k in range(n)]
    return LinearMap(matrix=Matrix([row]))
