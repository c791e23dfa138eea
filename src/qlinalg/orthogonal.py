"""Dot products and Gram-Schmidt orthogonalization (no normalization).

Square roots rarely stay rational, so the orthogonal vectors produced here
are not scaled to unit length; their squared norms ride along instead.

Gram-Schmidt is read off two sweeps.  The first canonicalizes the input: its
rows E are the source, and E_i is input row A_i less earlier ones, so E and
A (the input rows in pivot order) share W = L^-1 A.  The second sweep runs on
[A A^T | A], built on ints from A's cleared rows with one scale per row; it
makes no swap (A A^T = L D L^T is positive definite), and its row i is
[(D L^T)_i | W_i] with pivot |W_i|^2; projection j < i is E_i W_j / |W_j|^2.
This is integral Gram-Schmidt by exact division (Erlingsson, Kaltofen and
Musser, ISSAC 1996), the fraction-free QR of Zhou and Jeffrey (2008).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .elimination import _FractionFree
from .errors import AllZeroInput, DimensionMismatch, ZeroVectorPresent, _Record
from .matrix import Matrix, as_vector
from .scalars import _cleared, _ratio
from .spaces import Subspace, _family, basis_of_span


def dot(u, v) -> Fraction:
    uu, vv = as_vector(u), as_vector(v)
    if len(uu) != len(vv):
        raise DimensionMismatch(f"dot of lengths {len(uu)} and {len(vv)}")
    return sum((a * b for a, b in zip(uu, vv)), Fraction(0))


class OrthogonalityReport(_Record):
    """Truthy when pairwise orthogonal; otherwise names the first bad pair."""

    ok: bool
    pair: tuple[int, int] | None
    value: Fraction | None

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
    return OrthogonalityReport(ok=True, pair=None, value=None)


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
    """Orthogonalize the span of the input (vectors stay unnormalized):
    dependent generators are fine, a span of dimension zero is not."""
    vecs = _family(vectors)
    run = _FractionFree(Matrix(vecs))
    rank = len(run.pivots)
    if rank == 0:
        raise AllZeroInput("every input vector is zero")
    source = tuple(map(run.swept_row, range(rank)))
    # A_i = u_i/s_i and S = lcm(s_j): row i of [A A^T | A] is [u_i u_j S/s_j | u_i S] / (s_i S)
    a = [_cleared(vecs[i]) for i in run.order[:rank]]
    big = lcm(*(s for _, s in a))
    grid = [[sum(map(mul, u, v)) * (big // t) for v, t in a] + [x * big for x in u] for u, _ in a]
    qr = _FractionFree(grid, [s * big for _, s in a])
    rows = [qr.swept_row(i) for i in range(rank)]
    norms = tuple(row[i] for i, row in enumerate(rows))
    ws = tuple(row[rank:] for row in rows)
    # E_i = u/s, W_j = v/t and |W_j|^2 = N/D give E_i W_j / |W_j|^2 = u v D / (s t N)
    cleared = [(*_cleared(w), q.denominator, q.numerator) for w, q in zip(ws, norms)]
    projections = tuple(
        tuple(_ratio(sum(map(mul, u, v)) * dq, s * t * nq) for v, t, dq, nq in cleared[:i])
        for i, (u, s) in enumerate(map(_cleared, source))
    )
    return OrthogonalBasis(ws, norms, projections, source)
