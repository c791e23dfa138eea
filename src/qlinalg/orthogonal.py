"""Dot products and Gram-Schmidt orthogonalization (no normalization).

Square roots rarely stay rational, so the orthogonal vectors produced here
are not scaled to unit length; their squared norms ride along instead.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AllZeroInput, DimensionMismatch, ZeroVectorPresent, _Record
from .matrix import as_vector
from .spaces import Subspace, _family, basis_of_span


def dot(u, v) -> Fraction:
    uu, vv = as_vector(u), as_vector(v)
    if len(uu) != len(vv):
        raise DimensionMismatch(f"dot of lengths {len(uu)} and {len(vv)}")
    return sum((a * b for a, b in zip(uu, vv)), Fraction(0))


def squared_norm(v) -> Fraction:
    return dot(v, v)


class OrthogonalityReport(_Record):
    """Truthy when pairwise orthogonal; otherwise names the first bad pair."""

    ok: bool
    pair: tuple[int, int] | None = None
    value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_orthogonal_set(vectors) -> OrthogonalityReport:
    """Pairwise-orthogonality check; zero vectors are refused outright."""
    vecs = _family(vectors)
    for i, v in enumerate(vecs):
        if all(x == 0 for x in v):
            raise ZeroVectorPresent(f"vector {i + 1} is zero")
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            d = dot(vecs[i], vecs[j])
            if d != 0:
                return OrthogonalityReport(ok=False, pair=(i, j), value=d)
    return OrthogonalityReport(ok=True)


class OrthogonalBasis(_Record):
    """Result of Gram-Schmidt.

    ``vectors[i]`` is W_{i+1}; ``squared_norms[i]`` its |W|^2;
    ``projections[i]`` the coefficients dot(v_i, W_j)/|W_j|^2 subtracted
    against the earlier W_j; ``source`` the canonical basis the procedure
    actually consumed.
    """

    vectors: tuple[tuple[Fraction, ...], ...]
    squared_norms: tuple[Fraction, ...]
    projections: tuple[tuple[Fraction, ...], ...]
    source: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def span(self) -> Subspace:
        return basis_of_span(self.vectors)


def gram_schmidt(vectors) -> OrthogonalBasis:
    """Orthogonalize the span of the input (vectors stay unnormalized).

    The generators are first canonicalized to a basis of their span, so
    dependent or redundant inputs are fine; a span of dimension zero is not.
    """
    space = basis_of_span(vectors)
    if space.dimension == 0:
        raise AllZeroInput("every input vector is zero")
    ws: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    projections: list[tuple[Fraction, ...]] = []
    for v in space.basis:
        coeffs = tuple(dot(v, w) / n for w, n in zip(ws, norms))
        w = list(v)
        for c, earlier in zip(coeffs, ws):
            w = [x - c * e for x, e in zip(w, earlier)]
        wt = tuple(w)
        n2 = squared_norm(wt)
        assert n2 != 0, "independent input cannot orthogonalize to zero"
        ws.append(wt)
        norms.append(n2)
        projections.append(coeffs)
    return OrthogonalBasis(
        vectors=tuple(ws),
        squared_norms=tuple(norms),
        projections=tuple(projections),
        source=space.basis,
    )
