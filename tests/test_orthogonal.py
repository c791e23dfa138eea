"""Dot products, orthogonality checks, and exact Gram-Schmidt."""

import random
from fractions import Fraction
from math import lcm

import pytest

import qlinalg.orthogonal
from qlinalg import (
    AllZeroInput,
    DimensionMismatch,
    EmptyInput,
    Matrix,
    MixedDimensions,
    ZeroVectorPresent,
    basis_of_span,
    dot,
    gram_schmidt,
    independence,
    is_orthogonal_set,
)
from qlinalg.elimination import _FractionFree

import oracles

Q = Fraction


# ---- dot product -------------------------------------------------------------------


def test_dot_fixture():
    assert dot((2, 4, 1, 3), (0, 1, 2, 5)) == 21


def test_independent_vectors_need_not_be_orthogonal():
    w1, w2 = (1, 1, 1, 1), (0, 1, 1, 1)
    assert independence([w1, w2])
    assert dot(w1, w2) == 3


def test_dot_with_zero_vector():
    assert dot((4, -2, 7), (0, 0, 0)) == 0


def test_dot_accepts_strings_and_fractions():
    assert dot("1/2 4", "2 1/4") == 2


def test_dot_length_mismatch():
    with pytest.raises(DimensionMismatch):
        dot((1, 2), (1, 2, 3))


def test_squared_norm():
    assert dot((1, 0, 1, 1), (1, 0, 1, 1)) == 3
    w = (Q(-1, 3), 1, Q(-1, 3), Q(2, 3))
    assert dot(w, w) == Q(5, 3)
    assert dot((0, 0), (0, 0)) == 0


def test_dot_is_symmetric_and_bilinear():
    rng = random.Random(17003)
    for _ in range(100):
        n = rng.randrange(1, 6)
        u = tuple(oracles.rand_fraction(rng) for _ in range(n))
        v = tuple(oracles.rand_fraction(rng) for _ in range(n))
        w = tuple(oracles.rand_fraction(rng) for _ in range(n))
        alpha = oracles.rand_fraction(rng)
        assert dot(u, v) == dot(v, u)
        mixed = tuple(alpha * a + b for a, b in zip(u, v))
        assert dot(mixed, w) == alpha * dot(u, w) + dot(v, w)


# ---- orthogonality verdicts ---------------------------------------------------------


def test_standard_basis_is_orthogonal():
    report = is_orthogonal_set([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert report
    assert report.pair is None


def test_failing_pair_is_named():
    report = is_orthogonal_set([(1, 0), (1, 1)])
    assert not report
    assert report.pair == (0, 1)
    assert report.value == 1


def test_first_failing_pair_wins():
    report = is_orthogonal_set([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert report.pair == (0, 2)


def test_zero_vector_is_refused():
    with pytest.raises(ZeroVectorPresent):
        is_orthogonal_set([(1, 0), (0, 0)])


def test_orthogonal_set_input_validation():
    with pytest.raises(MixedDimensions):
        is_orthogonal_set([(1, 0), (1, 0, 0)])


# ---- Gram-Schmidt -------------------------------------------------------------------


def test_gram_schmidt_walkthrough():
    out = gram_schmidt([(1, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)])
    # step 1 canonicalizes the generators; here they reduce to themselves
    # with the third replaced by (0,0,1,0)
    assert out.source == ((1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0))
    assert out.vectors == (
        (1, 0, 1, 1),
        (Q(-1, 3), 1, Q(-1, 3), Q(2, 3)),
        (Q(-2, 5), Q(1, 5), Q(3, 5), Q(-1, 5)),
    )
    assert out.squared_norms == (3, Q(5, 3), Q(3, 5))
    assert out.projections == ((), (Q(1, 3),), (Q(1, 3), Q(-1, 5)))
    assert out.dimension == 3


def test_gram_schmidt_third_vector_is_orthogonal_to_both():
    # the subtraction coefficients are 1/3 against W1 and -1/5 against W2;
    # the result must be orthogonal to both earlier vectors
    out = gram_schmidt([(1, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)])
    w1, w2, w3 = out.vectors
    assert dot(w3, w1) == 0
    assert dot(w3, w2) == 0
    assert is_orthogonal_set(out.vectors)


def test_gram_schmidt_keeps_an_orthogonal_basis_as_is():
    out = gram_schmidt([(1, 0, 1), (0, 1, 0)])
    assert out.vectors == ((1, 0, 1), (0, 1, 0))
    assert out.projections == ((), (0,))


def test_gram_schmidt_spans_the_input():
    generators = [(0, 0, 1, 1), (1, 0, 1, 1), (1, -1, 1, 0)]
    out = gram_schmidt(generators)
    assert out.dimension == 3
    assert is_orthogonal_set(out.vectors)
    assert out.span().same_space(basis_of_span(generators))
    # a hand-checked orthogonal triple with the same span
    key = [(0, 0, 1, 1), (1, 0, 0, 0), (0, -1, Q(1, 2), Q(-1, 2))]
    assert is_orthogonal_set(key)
    assert out.span().same_space(basis_of_span(key))


def test_gram_schmidt_swallows_dependent_generators():
    # the third generator is 3*(first) + 2*(second)
    generators = [(1, 1, -1, 0), (0, 1, 1, 1), (3, 5, -1, 2)]
    assert not independence(generators)
    out = gram_schmidt(generators)
    assert out.dimension == 2
    assert is_orthogonal_set(out.vectors)
    assert out.span().same_space(basis_of_span(generators))


def test_gram_schmidt_input_validation():
    with pytest.raises(AllZeroInput):
        gram_schmidt([(0, 0, 0), (0, 0, 0)])
    with pytest.raises(EmptyInput):
        gram_schmidt([])


def test_gram_schmidt_property():
    # 200 random generator families in Q^3..Q^5, dependents included:
    # output is orthogonal, independent, spans the input span, and its
    # recorded norms and projection coefficients are honest
    rng = random.Random(17002)
    runs = 0
    while runs < 200:
        n = rng.randrange(3, 6)
        count = rng.randrange(1, n + 2)
        family = [
            tuple(oracles.rand_fraction(rng, lo=-4, hi=4) for _ in range(n))
            for _ in range(count)
        ]
        if rng.random() < 0.3 and len(family) >= 2:
            # plant a dependency on purpose
            family.append(
                tuple(2 * a - b for a, b in zip(family[0], family[1]))
            )
        if all(all(x == 0 for x in v) for v in family):
            continue
        out = gram_schmidt(family)

        assert is_orthogonal_set(out.vectors)
        assert independence(out.vectors)
        span = basis_of_span(family)
        assert out.dimension == span.dimension
        assert out.span().same_space(span)
        for w, n2 in zip(out.vectors, out.squared_norms):
            assert n2 == dot(w, w)
            assert n2 > 0
        # each source vector decomposes as W_i plus the recorded projections
        for i, (v, coeffs) in enumerate(zip(out.source, out.projections)):
            assert len(coeffs) == i
            rebuilt = list(out.vectors[i])
            for c, w in zip(coeffs, out.vectors):
                rebuilt = [r + c * x for r, x in zip(rebuilt, w)]
            assert tuple(rebuilt) == v
        runs += 1
    assert runs == 200


def _entry(rng, kind):
    if kind == "integer":
        return Q(rng.randint(-9, 9))
    if kind == "p/q":
        return Q(rng.randint(-9, 9), rng.randint(1, 9))
    return Q(rng.getrandbits(kind) * rng.choice((1, -1)), rng.choice((1, 1, 3, 7)))


def _family(rng, kind):
    """A seeded family of ``kind`` entries (-9..9, p/q, or of that many bits),
    now and then with a dependent last row, a zero vector, or a zero first
    entry in row 0 that makes the first sweep swap when it has any pivot."""
    count, n = rng.randrange(1, 7), rng.randrange(1, 7)
    family = [[_entry(rng, kind) for _ in range(n)] for _ in range(count)]
    if count > 2 and rng.random() < 0.4:
        w = Q(rng.randint(-3, 3), rng.randint(1, 3))
        family[-1] = [x + w * y for x, y in zip(family[0], family[1])]
    if rng.random() < 0.25:
        family.insert(rng.randrange(count + 1), [Q(0)] * n)
    if rng.random() < 0.4:
        family[0][0] = Q(0)
    return family


def test_gram_schmidt_equals_the_projection_loop():
    rng = random.Random(29001)
    seen = {"deficient": 0, "zero vector": 0, "swapped": 0}
    for index in range(330):
        family = _family(rng, ("integer", "p/q", 64, 128, 200)[index % 5])
        ops, _, pivots = oracles.eliminate(family, 0)
        if not pivots:
            with pytest.raises(AllZeroInput):
                gram_schmidt(family)
            continue
        out = gram_schmidt(family)
        expected = oracles.gram_schmidt_by_projection(family)
        found = (out.vectors, out.squared_norms, out.projections, out.source)
        assert repr(found) == repr(expected)
        seen["deficient"] += len(pivots) < len(family)
        seen["zero vector"] += not all(any(v) for v in family)
        seen["swapped"] += any(op[0] == "swap" for op in ops)
    assert min(seen.values()) >= 40, seen


def test_gram_schmidt_with_mixed_row_scales_equals_the_projection_loop():
    # every shape from 1x1 to 8x10; each row has its own denominators, so the
    # second sweep's int rows [A A^T | A] carry different scales s_i S
    rng = random.Random(35001)
    seen = {"dependent": 0, "zero row": 0, "mixed scales": 0}
    for count in range(1, 9):
        for n in range(1, 11):
            for _ in range(3):
                family = [
                    [Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(n)]
                    for _ in range(count)
                ]
                if count > 2 and rng.random() < 0.5:
                    w = Q(rng.randint(-3, 3), rng.randint(1, 4))
                    family[-1] = [x + w * y for x, y in zip(family[0], family[1])]
                if rng.random() < 0.3:
                    family[rng.randrange(count)] = [Q(0)] * n
                _, _, pivots = oracles.eliminate(family, 0)
                if not pivots:
                    with pytest.raises(AllZeroInput):
                        gram_schmidt(family)
                    continue
                out = gram_schmidt(family)
                expected = oracles.gram_schmidt_by_projection(family)
                found = (out.vectors, out.squared_norms, out.projections, out.source)
                assert repr(found) == repr(expected)
                scales = {lcm(*(x.denominator for x in row)) for row in family if any(row)}
                seen["dependent"] += len(pivots) < len(family)
                seen["zero row"] += not all(any(v) for v in family)
                seen["mixed scales"] += len(scales) > 1
    assert min(seen.values()) >= 40, seen


def test_gram_schmidt_runs_two_sweeps_and_no_product(monkeypatch):
    runs, products = [], []
    start, times = _FractionFree.__init__, Matrix.__matmul__

    def counted_run(self, *args):
        runs.append(args)
        start(self, *args)

    def counted_product(self, other):
        products.append(other)
        return times(self, other)

    def refused(*_):
        raise AssertionError("gram_schmidt takes no dot products")

    monkeypatch.setattr(_FractionFree, "__init__", counted_run)
    monkeypatch.setattr(Matrix, "__matmul__", counted_product)
    monkeypatch.setattr(qlinalg.orthogonal, "dot", refused)
    out = gram_schmidt([(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 2, 2), (0, 0, 0, 0)])
    assert out.dimension == 2
    # A A^T is built on the cleared rows' ints; each projection is one ratio of them
    assert (len(runs), len(products)) == (2, 0)
