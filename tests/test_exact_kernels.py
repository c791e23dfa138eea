"""The integer kernels behind ``@``, ``char_poly`` and ``rational_roots``.

``@`` and ``char_poly`` must equal first-principles oracles (a naive
``Fraction`` product; determinants by elimination at n+1 points, then
Lagrange interpolation) repr for repr.  ``rational_roots`` must factor its
input exactly: residual * prod((x - r)^m) == p, with every constructed
rational root found and nothing else.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinalg import Matrix, Polynomial, char_poly, rational_roots

import oracles

Q = Fraction

PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
DENOMINATORS = {"int": (1,), "small": (1, 2, 3, 5, 7), "primes": PRIMES}
# (rows, inner, cols) of A @ B: vectors both ways round, squares, rectangles
SHAPES = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (3, 3, 3), (4, 6, 2), (7, 7, 7)]


def _grid(rng, rows, cols, dens):
    """Entries -9..9 over ``dens``; about one row in five is all zeros."""
    return [
        [Q(0)] * cols if rng.random() < 0.2
        else [Q(rng.randint(-9, 9), rng.choice(dens)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _product_matches(a, b):
    got = (Matrix(a) @ Matrix(b)).entries
    assert repr(got) == repr(tuple(tuple(row) for row in oracles.naive_matmul(a, b)))


def _char_poly_matches(a):
    got = char_poly(Matrix(a)).coefficients
    assert repr(got) == repr(oracles.char_poly_by_interpolation(a))


@pytest.mark.parametrize("regime", DENOMINATORS)
def test_matmul_equals_the_naive_product(regime):
    rng = random.Random(f"matmul/{regime}")
    for rows, inner, cols in SHAPES * 4:
        dens = DENOMINATORS[regime]
        _product_matches(_grid(rng, rows, inner, dens), _grid(rng, inner, cols, dens))


@pytest.mark.parametrize("regime", DENOMINATORS)
def test_char_poly_equals_interpolated_determinants(regime):
    rng = random.Random(f"char_poly/{regime}")
    for n in list(range(1, 8)) * 3:
        _char_poly_matches(_grid(rng, n, n, DENOMINATORS[regime]))
    _char_poly_matches([[Q(0)] * 4 for _ in range(4)])


_entries = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-9, 9), st.sampled_from((1,) + PRIMES)),
)


def _grids(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _factors(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(_grids(rows, inner)), draw(_grids(inner, cols))


@st.composite
def _squares(draw):
    n = draw(st.integers(1, 5))
    return draw(_grids(n, n))


@settings(max_examples=150, deadline=None)
@given(_factors())
def test_matmul_equals_the_naive_product_hypothesis(factors):
    _product_matches(*factors)


@settings(max_examples=150, deadline=None)
@given(_squares())
def test_char_poly_equals_interpolated_determinants_hypothesis(a):
    _char_poly_matches(a)


# ---- rational_roots: residual * prod((x - r)^m) == p ------------------------------


def _close_pair(c: int, k: int) -> Polynomial:
    """10^k x^2 - (c 10^k + 1): roots +-sqrt(c + 10^-k), within 10^-k of
    +-sqrt(c) when c is a square.  For odd k neither root is rational."""
    return Polynomial([-(c * 10 ** k + 1), 0, 10 ** k])


def _check_factorization(lead, roots, irreducible=()):
    """p = lead * prod((x - r)^m) * prod(irreducible): rational_roots must
    find exactly ``roots`` and leave lead * prod(irreducible)."""
    rest = Polynomial([lead])
    for f in irreducible:
        rest = rest * f
    p = rest
    for r, m in roots.items():
        p = p * Polynomial([-r, 1]) ** m
    found, residual = rational_roots(p)
    assert dict(found) == roots
    assert len(found) == len(roots)
    assert residual == rest
    rebuilt = residual
    for r, m in found:
        rebuilt = rebuilt * Polynomial([-r, 1]) ** m
    assert rebuilt == p


@pytest.mark.parametrize(
    "lead, roots, irreducible",
    [
        (Q(-1), {Q(2): 1, Q(-3): 1}, ()),  # negative leading coefficient
        (Q(-6), {Q(1, 2): 2, Q(5, 3): 1}, ()),  # non-unit content
        (Q(10, 3), {Q(0): 3, Q(-7, 2): 1}, ()),  # zero root of multiplicity 3
        (Q(-9, 4), {Q(0): 1}, (Polynomial([1, 0, 1]),)),  # zero root and x^2 + 1
        (Q(4), {Q(2, 3): 4, Q(-1): 2}, ()),  # repeated roots
        (Q(1), {}, (Polynomial([-2, 0, 1]), Polynomial([-3, 0, 1]))),  # no rational root
        (Q(7), {}, ()),  # a constant
        (Q(-2, 5), {Q(2): 1, Q(-2): 2}, (_close_pair(4, 1),)),
        (Q(3), {Q(1): 2, Q(-1): 1}, (_close_pair(1, 3), _close_pair(1, 5))),
        (Q(-1), {Q(3): 1, Q(0): 2}, (_close_pair(9, 7),)),
        # -(x + 1)(x^3 - x^2 + x - 2) leads with -1, and its pseudo-remainder
        # chain with its derivative runs through 3x + 8 to a constant: the
        # squarefree part must keep the root -1
        (Q(-1), {Q(0): 1, Q(-1): 1}, (Polynomial([-2, 1, -1, 1]),)),
    ],
)
def test_rational_roots_factor_exactly(lead, roots, irreducible):
    _check_factorization(lead, roots, irreducible)


# 29# = 2 * 3 * 5 * ... * 29 divides the primitive leading coefficient, so the
# root search can use no prime below 31: a root y/29# has no image modulo them
PRIMORIAL_29 = 6469693230


@pytest.mark.parametrize(
    "lead, roots, irreducible",
    [
        # every prime below 25 sees two of -12..12 collide: a double root mod p
        (Q(1), {Q(k): 1 for k in range(-12, 13)}, ()),
        (Q(-3), {Q(k, 2): 1 for k in range(-12, 13, 3)}, (Polynomial([-2, 0, 1]),)),
        (Q(1), {Q(1, PRIMORIAL_29): 1, Q(-7, PRIMORIAL_29): 2, Q(3): 1}, ()),
        (Q(5), {Q(-11, PRIMORIAL_29): 1}, (Polynomial([1, 0, PRIMORIAL_29]),)),
        # 10^80- and 10^60-sized roots beside an irreducible quadratic
        (
            Q(7),
            {Q(10 ** 80 + 3): 1, Q(-(10 ** 60) + 1, 9): 2, Q(10 ** 80, 10 ** 60 + 1): 1},
            (Polynomial([3, 1, 4]),),
        ),
        (Q(-1), {Q(-(10 ** 80) - 1): 1}, (_close_pair(2, 61),)),
    ],
)
def test_rational_roots_factor_adversarial_inputs_exactly(lead, roots, irreducible):
    _check_factorization(lead, roots, irreducible)


def test_rational_roots_come_back_zero_first_then_decreasing():
    rng = random.Random(1409)
    for _ in range(100):
        roots = {Q(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 40)): rng.randint(1, 2)
                 for _ in range(rng.randint(1, 7))}
        roots[Q(0)] = rng.randint(1, 3)
        p = Polynomial([rng.choice((-1, 1)) * rng.randint(1, 9)])
        for r, m in roots.items():
            p = p * Polynomial([-r, 1]) ** m
        found, _ = rational_roots(p)
        assert found[0] == (Q(0), roots[Q(0)])
        rest = [r for r, _ in found[1:]]
        assert rest == sorted(rest, reverse=True) and len(set(rest)) == len(rest)
        assert dict(found) == roots


def test_rational_roots_factor_exactly_on_random_constructions():
    rng = random.Random(1009)
    for _ in range(200):
        lead = Q(rng.choice([-1, 1]) * rng.randint(1, 12), rng.choice((1, 2, 3, 7)))
        roots = {}
        for _ in range(rng.randint(0, 4)):
            r = Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 11)))
            roots[r] = roots.get(r, 0) + rng.randint(1, 3)
        pairs = [_close_pair(rng.choice((1, 4, 9, 16)), rng.choice((1, 3, 5)))
                 for _ in range(rng.randint(0, 2))]
        _check_factorization(lead, roots, pairs)
