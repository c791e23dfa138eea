"""The squarefree step of the root search: GCDHEU, its only path.

``poly._squarefree_part`` reads a candidate gcd off the balanced base-xi
digits of gcd(q(xi), q'(xi)) and accepts it only after checked exact division
of q and q'.  Every evaluation point must be at or above the bound that makes
an accepted candidate the gcd.  With the first k candidates refused, the next
point must be accepted and give the same answers.  The tries on the eigen
path are pinned, and every try count, on inputs that need many and on
cofactors that share roots modulo large primes, must stay within the
resultant bound of ``_squarefree_part``'s docstring.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import qlinalg.poly
from qlinalg import Matrix, Polynomial, diagonalize, eigen_summary, eigenvalues, rational_roots
from qlinalg.poly import _balanced_digits, _exact_div, _primitive, _squarefree_part, _value

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


def _points(monkeypatch):
    """A list that gets each evaluation point as it is tried."""
    points = []
    digits = qlinalg.poly._balanced_digits
    monkeypatch.setattr(
        qlinalg.poly, "_balanced_digits", lambda n, xi: points.append(xi) or digits(n, xi)
    )
    return points


def test_every_evaluation_point_is_at_or_above_the_bound(monkeypatch):
    points = _points(monkeypatch)
    for p in _polynomials():
        q = p.primitive_integer_coefficients()
        dq = _primitive([k * c for k, c in enumerate(q)][1:])
        points.clear()
        _squarefree_part(q)
        assert points and points[0] >= 2 * min(max(map(abs, q)), max(map(abs, dq))) + 2
        assert points == sorted(set(points))
        assert _within_the_resultant_bound(q, len(points))


@pytest.fixture(scope="module")
def answers():
    return _answers()


def _calls(monkeypatch, refuse=0):
    """A list that gets (q, points tried) for each ``_squarefree_part``
    call as it runs, with the first ``refuse`` candidates of each call
    refused."""
    calls = []
    digits, squarefree = qlinalg.poly._balanced_digits, qlinalg.poly._squarefree_part

    def counted_digits(n, xi):
        points = calls[-1][1]
        points.append(xi)
        return [1] * 64 if len(points) <= refuse else digits(n, xi)  # [1] * 64 divides nothing here

    def counted(q):
        calls.append((q, []))
        return squarefree(q)

    monkeypatch.setattr(qlinalg.poly, "_balanced_digits", counted_digits)
    monkeypatch.setattr(qlinalg.poly, "_squarefree_part", counted)
    return calls


def _candidate(q, xi):
    """The primitive part of the balanced base-xi digits of gcd(q(xi), q'(xi))."""
    dq = _primitive([k * c for k, c in enumerate(q)][1:])
    return _primitive(_balanced_digits(gcd(_value(q, xi), _value(dq, xi)), xi))


@pytest.mark.parametrize("k", range(1, 9))
def test_with_the_first_k_candidates_refused_the_first_later_gcd_is_accepted(
    k, answers, monkeypatch
):
    calls = _calls(monkeypatch, refuse=k)
    assert _answers() == answers
    monkeypatch.undo()
    late = 0
    for q, points in calls:
        g = _exact_div(q, _squarefree_part(q))
        assert len(points) > k
        assert all(b == 2 * a + 1 for a, b in zip(points, points[1:]))
        assert [_candidate(q, xi) in (g, tuple(-c for c in g)) for xi in points[k:]] == [
            False
        ] * (len(points) - k - 1) + [True]
        late += len(points) > k + 1
    # the candidate at point k + 1 is not always the gcd: acceptance is not
    # monotone in xi, as e = gcd(c1(xi), c2(xi)) can grow
    assert late == {1: 7, 2: 12, 4: 6}.get(k, 0)


# Tries per matrix of _matrices(), the same for eigen_summary, diagonalize
# and eigenvalues: the eigen-small slots twice over, then the pinned matrices
_EIGEN_TRIES = [1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1]


def test_the_tries_on_the_eigen_path_are_pinned(monkeypatch):
    calls = _calls(monkeypatch)
    per_matrix = []
    for a in _matrices():
        for f in (eigen_summary, diagonalize, eigenvalues):
            f(a)
        per_matrix.append([len(points) for _, points in calls])
        calls.clear()
    assert per_matrix == [[t] * 3 for t in _EIGEN_TRIES]


def _sylvester(a, b):
    """The Sylvester matrix of the integer polynomials ``a`` and ``b``
    (ascending), of degrees m and n: n shifted rows of a, then m of b."""
    m, n = len(a) - 1, len(b) - 1
    return [[0] * i + list(reversed(a)) + [0] * (n - 1 - i) for i in range(n)] + [
        [0] * i + list(reversed(b)) + [0] * (m - 1 - i) for i in range(m)
    ]


def _cofactors(q):
    """g = the primitive gcd of q and q', and c1 = q / g, c2 = q' / g, with
    q' = the primitive derivative; g from Euclid over Q (``oracles``)."""
    dq = _primitive([k * c for k, c in enumerate(q)][1:])
    monic = oracles.poly_gcd(q, dq)
    g = [int(c * lcm(*(c.denominator for c in monic))) for c in monic]
    g = [c // gcd(*g) for c in g]
    return g, _divided_over_q(q, g), _divided_over_q(dq, g)


def _within_the_resultant_bound(q, tries):
    """tries <= ceil(log2(H |g|)) + 1, for g, c1, c2 from :func:`_cofactors`,
    |g| in max norm, and H >= |Res(c1, c2)| the Hadamard bound of their
    Sylvester matrix.  In ints: tries - 2 < log2(H |g|), that is
    4^(tries - 2) < H^2 |g|^2."""
    g, c1, c2 = _cofactors(q)
    h2 = 1
    for row in _sylvester(c1, c2):
        h2 *= sum(x * x for x in row)
    return tries == 1 or 4 ** (tries - 2) < h2 * max(map(abs, g)) ** 2


# Products of small rational roots that take five or six points; the first
# is 2 (x + 1)^4 (x - 1/2)(x - 1), the characteristic polynomial of the 6x6
# companion matrix in test_companion.py
_MANY_TRIES = [
    ({Q(-1): 4, Q(1, 2): 1, Q(1): 1}, [14, 29, 59, 119, 239]),
    ({Q(-1): 4, Q(1): 1, Q(2): 1}, [14, 29, 59, 119, 239, 479]),
    ({Q(-1): 3, Q(1): 2, Q(2): 4}, [98, 197, 395, 791, 1583]),
    ({Q(-1): 3, Q(1, 2): 2, Q(1, 3): 2}, [98, 197, 395, 791, 1583]),
    ({Q(-1): 4, Q(2): 3, Q(1, 2): 3}, [398, 797, 1595, 3191, 6383]),
    ({Q(-1): 4, Q(2): 3, Q(1, 2): 4}, [806, 1613, 3227, 6455, 12911]),
]


@pytest.mark.parametrize("roots, expected", _MANY_TRIES)
def test_many_tries_end_on_the_squarefree_part_within_the_bound(roots, expected, monkeypatch):
    points = _points(monkeypatch)
    q = oracles.poly_product(roots=roots.items()).primitive_integer_coefficients()
    s = _squarefree_part(q)
    assert points == expected
    assert s == oracles.poly_product(roots=[(r, 1) for r in roots]).primitive_integer_coefficients()
    assert _within_the_resultant_bound(q, len(points))


def test_rational_roots_of_the_first_many_tries_case(monkeypatch):
    points = _points(monkeypatch)
    found = rational_roots(Polynomial([1, 1, -4, -6, 1, 5, 2]))
    assert found == (((Q(1), 1), (Q(1, 2), 1), (Q(-1), 4)), Polynomial([2]))
    assert points == _MANY_TRIES[0][1]


def _sharing_modulo_primes():
    """Seeded products with two or three roots congruent modulo a large prime
    P (so c1 and c2 share a root mod P), multiplicities 1-4, and sometimes a
    further root; each with its P."""
    rng = random.Random(16104)
    primes = (1_000_003, 2_147_483_647, 2 ** 61 - 1, 2 ** 89 - 1)
    for case in range(24):
        prime = primes[case % 4]
        a = Q(rng.randint(-50, 50), rng.choice((1, 1, 2, 3)))
        roots = {a + prime * u: rng.randint(1, 4) for u in (0, rng.randint(1, 3))}
        if case % 3 == 0:
            roots[a - prime * rng.randint(1, 3)] = rng.randint(1, 4)
        if case % 2 == 0:
            roots.setdefault(Q(rng.randint(-9, 9)), rng.randint(1, 2))
        yield prime, oracles.poly_product(roots=roots.items()).primitive_integer_coefficients()


def test_cofactors_sharing_roots_modulo_large_primes_stay_within_the_bound(monkeypatch):
    points = _points(monkeypatch)
    tries = []
    for prime, q in _sharing_modulo_primes():
        g, c1, c2 = _cofactors(q)
        assert oracles.det_by_elimination(_sylvester(c1, c2)) % prime == 0
        points.clear()
        assert _exact_div(q, _squarefree_part(q)) in (tuple(g), tuple(-c for c in g))
        assert _within_the_resultant_bound(q, len(points))
        tries.append(len(points))
    assert max(tries) == 1


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
