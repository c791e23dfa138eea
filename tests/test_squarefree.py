"""The squarefree step of the root search: GCDHEU, and the pseudo-remainder
chain as its only second path.

``poly._squarefree_part`` reads a candidate gcd off the balanced base-xi
digits of gcd(q(xi), q'(xi)) and accepts it only after checked exact division
of q and q'.  Every evaluation point must be at or above the bound that makes
an accepted candidate the gcd.  With every candidate refused, the chain must
give the same answers; on the eigen path, the chain must never be needed,
not even for the x^k factor of a singular matrix.
"""

import random
from fractions import Fraction

import pytest

import qlinalg.poly
from qlinalg import Matrix, diagonalize, eigen_summary, eigenvalues, rational_roots
from qlinalg.poly import _GCDHEU_TRIES, _exact_div, _primitive, _squarefree_part

import oracles
from test_eigen import PINNED, _conjugated, pinned_matrix

Q = Fraction


def _polynomials():
    """Seeded products of rational roots with multiplicities 1-3, times x^k
    now and then, and a cofactor with small or 80-bit coefficients."""
    rng = random.Random(16101)
    for case in range(40):
        bits = 80 if case % 4 == 3 else 4
        roots = {Q(rng.randint(-30, 30), rng.randint(1, 9)): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 4))}
        if case % 3 == 0:
            roots[Q(0)] = rng.randint(1, 4)
        cofactor = [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(rng.randint(1, 3))]
        yield oracles.poly_product(cofactor + [rng.randint(1, 9)], roots=roots.items())


# The eigen-small workload's spectra, each on a 6x6 P J P^-1: (value,
# size) Jordan blocks, and at most one irreducible x^2 - t x + d as (t, d).
_SLOTS = (
    ([(3, 1), (-2, 1), (-2, 1), (Q(1, 3), 1), (1, 1), (Q(5, 2), 1)], None),
    ([(2, 1), (2, 1), (2, 1), (-1, 1), (Q(1, 2), 1), (Q(-3, 2), 1)], None),
    ([(5, 1), (-3, 1), (Q(2, 3), 1), (1, 1), (Q(-1, 2), 1), (Q(7, 2), 1)], None),
    ([(Q(1, 2), 2), (3, 1), (3, 1), (-1, 1), (2, 1)], None),
    ([(-1, 3), (2, 1), (Q(1, 3), 1), (4, 1)], None),
    ([(Q(2, 3), 2), (-2, 1), (-2, 1), (5, 1), (Q(-3, 2), 1)], None),
    ([(2, 1), (Q(-1, 2), 1), (3, 1), (1, 1)], (-1, 1)),
    ([(2, 1), (-1, 1), (Q(1, 3), 1), (-2, 1)], (3, 1)),
    ([(Q(43, 2), 1), (-47, 1), (Q(53, 3), 1), (Q(-59, 4), 1)], (1, -3001)),
)


def _jordan(blocks, quadratic):
    values = [lam for lam, size in blocks for _ in range(size)]
    ones = {sum(size for _, size in blocks[:b]) + k for b, (_, size) in enumerate(blocks)
            for k in range(1, size)}
    n = len(values) + 2 * (quadratic is not None)
    j = [[Q(0)] * n for _ in range(n)]
    for i, lam in enumerate(values):
        j[i][i] = Q(lam)
        if i in ones:
            j[i - 1][i] = Q(1)
    if quadratic:
        t, d = quadratic
        j[-2][-1], j[-1][-2], j[-1][-1] = Q(-d), Q(1), Q(t)
    return j


def _matrices():
    rng = random.Random(16102)
    for _ in range(2):
        for blocks, quadratic in _SLOTS:
            yield Matrix(_conjugated(rng, _jordan(blocks, quadratic)))
    for name in PINNED:
        if name != "32x32-pq":  # each of these has an x^k factor
            yield pinned_matrix(name)


def _answers():
    return [repr(rational_roots(p)) for p in _polynomials()] + [
        repr(f(a)) for a in _matrices() for f in (eigen_summary, diagonalize, eigenvalues)
    ]


def test_every_evaluation_point_is_at_or_above_the_bound(monkeypatch):
    points = []
    digits = qlinalg.poly._balanced_digits
    monkeypatch.setattr(
        qlinalg.poly, "_balanced_digits", lambda n, xi: points.append(xi) or digits(n, xi)
    )
    for p in _polynomials():
        q = p.primitive_integer_coefficients()
        dq = _primitive([k * c for k, c in enumerate(q)][1:])
        points.clear()
        _squarefree_part(q)
        assert points and points[0] >= 2 * min(max(map(abs, q)), max(map(abs, dq))) + 2
        assert points == sorted(set(points))


def test_with_every_candidate_refused_the_chain_gives_the_same_answers(monkeypatch):
    expected = _answers()
    tries, chains = [], []

    def refused(n, xi):
        tries.append(xi)
        return [1] * 64  # degree 63: it divides no polynomial here

    chain = qlinalg.poly._derivative_gcd
    monkeypatch.setattr(qlinalg.poly, "_balanced_digits", refused)
    monkeypatch.setattr(qlinalg.poly, "_derivative_gcd", lambda q: chains.append(q) or chain(q))
    assert _answers() == expected
    assert chains and len(tries) == _GCDHEU_TRIES * len(chains)


def test_the_eigen_path_never_needs_the_chain(monkeypatch):
    def chain(q):
        raise AssertionError(f"the pseudo-remainder chain ran on {q}")

    monkeypatch.setattr(qlinalg.poly, "_derivative_gcd", chain)
    for a in _matrices():
        for f in (eigen_summary, diagonalize, eigenvalues):
            f(a)


@pytest.mark.parametrize("q", [(1, -2, 1), (0, 0, 0, 0, -1, 1), (-3, -1, 6, 2)])
def test_an_accepted_candidate_divides_q_and_its_derivative(q, monkeypatch):
    # for the last two the first candidate divides q but not q'
    divisions = []
    exact = qlinalg.poly._exact_div
    monkeypatch.setattr(
        qlinalg.poly, "_exact_div", lambda a, b: divisions.append((a, b)) or exact(a, b)
    )
    s = _squarefree_part(q)
    h = divisions[-1][1]
    dq = _primitive([k * c for k, c in enumerate(q)][1:])
    assert divisions[-2:] == [(q, h), (dq, h)]
    assert exact(q, h) == s and exact(dq, h) is not None


def _divided_over_q(a, b):
    """a / b by long division over Q, as integers; None unless the
    remainder is zero and the quotient integral."""
    rem, quot = [Q(x) for x in a], []
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        quot.append(f)
        rem = [x - f * y for x, y in zip(rem[:-1], [0] * (len(rem) - len(b)) + list(b[:-1]))]
    if any(rem) or any(f.denominator != 1 for f in quot):
        return None
    return tuple(int(f) for f in reversed(quot))


@pytest.mark.parametrize("a, b, want", [
    ((0, 3), (0, 2), None),  # a quotient step that does not divide
    ((0, 0, 4), (0, 2), (0, 2)),
    ((1, 0, 1), (1, 1), None),  # every step divides, the remainder is 2
    ((-1, 0, 1), (1, 1), (-1, 1)),
    ((5,), (1, 1), None),  # b of higher degree
    ((6, 4), (2,), (3, 2)),
    ((6, 3), (2,), None),
])
def test_checked_exact_division_examples(a, b, want):
    assert _exact_div(a, b) == want == _divided_over_q(a, b)


def test_checked_exact_division_refuses_what_does_not_divide():
    rng = random.Random(16103)
    refused = 0
    for _ in range(400):
        b = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 3))) + (
            rng.choice((1, -1)) * rng.randint(1, 5),
        )
        c = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 3))) + (rng.randint(1, 9),)
        a = tuple(int(y) for y in oracles.poly_product(b, c).coefficients)
        assert _exact_div(a, b) == c
        moved = list(a)
        moved[rng.randrange(len(a))] += rng.choice((1, -1)) * rng.randint(1, 5)
        want = _divided_over_q(moved, b)
        assert _exact_div(tuple(moved), b) == want
        refused += want is None
    assert refused > 300
