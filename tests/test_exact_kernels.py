"""The integer kernels behind ``@``, ``char_poly``, ``rational_roots`` and
the fraction-free sweep.

``@`` and ``char_poly`` must equal first-principles oracles (a naive
``Fraction`` product; determinants by elimination at n+1 points, then
Lagrange interpolation) repr for repr.  ``rational_roots`` must factor its
input exactly: residual * prod((x - r)^m) == p, with every constructed
rational root found and nothing else; its checked division by L x - y must
agree with an exact evaluation followed by an exact division, and must refuse
each lifted candidate that is no root.  The sweep must keep the record of the
full-width reference sweep (``oracles``), and no eigen call or sweep may
change the rows it was handed to read.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinalg import Matrix, Polynomial, char_poly, diagonalize, eigen_summary, rational_roots
from qlinalg.eigen import _eigenspace
from qlinalg.elimination import FORMS, Swap, _FractionFree, reduce
from qlinalg.matrix import _integer_image
from qlinalg.poly import (
    _derivative_gcd,
    _distinct_rational_roots,
    _divide_root,
    _exact_div,
    _rational_roots,
)

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
    rest = oracles.poly_product([lead], *(f.coefficients for f in irreducible))
    p = oracles.poly_product(rest.coefficients, roots=roots.items())
    found, residual = rational_roots(p)
    assert dict(found) == roots
    assert len(found) == len(roots)
    assert residual == rest
    assert oracles.poly_product(residual.coefficients, roots=found) == p


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


def _with_zero_root():
    """100 seeded (p, {root: multiplicity}): p has 0 as a root beside 1 to 7
    long rational roots, each of multiplicity 1 or 2."""
    rng = random.Random(1409)
    for _ in range(100):
        roots = {Q(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 40)): rng.randint(1, 2)
                 for _ in range(rng.randint(1, 7))}
        roots[Q(0)] = rng.randint(1, 3)
        lead = rng.choice((-1, 1)) * rng.randint(1, 9)
        yield oracles.poly_product([lead], roots=roots.items()), roots


def test_rational_roots_come_back_zero_first_then_decreasing():
    for p, roots in _with_zero_root():
        found, _ = rational_roots(p)
        assert found[0] == (Q(0), roots[Q(0)])
        rest = [r for r, _ in found[1:]]
        assert rest == sorted(rest, reverse=True) and len(set(rest)) == len(rest)
        assert dict(found) == roots


def test_private_rational_roots_keep_zero_in_its_decreasing_place():
    # the eigen verdicts take this order as it comes
    for p, roots in _with_zero_root():
        found, _ = _rational_roots(p.primitive_integer_coefficients(), p.coefficients[-1])
        assert [r for r, _ in found] == sorted(roots, reverse=True)
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


# ---- the checked division by L x - y --------------------------------------------


def _divide_by_evaluation_and_exact_div(q, y, den):
    """q / (den x - y) by an independent route: ``Polynomial`` evaluation at
    y/den, then an exact division; the empty tuple when y/den is no root."""
    if len(q) > 1 and Polynomial(q)(Q(y, den)) == 0:
        return _exact_div(q, (-y, den))
    return ()


def _poly_product(a, b):
    """The product of two ascending integer coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return tuple(out)


@st.composite
def _root_divisions(draw):
    """(q, y, den): q = (den x - y)^m * cofactor with den > 1 most of the
    time, then perhaps one coefficient moved, so that the top steps divide
    and a later step or the final remainder does not."""
    root = Q(draw(st.integers(-30, 30)), draw(st.integers(2, 12) | st.just(1)))
    y, den = root.numerator, root.denominator
    q = tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    if not any(q):
        q = (1,)
    for _ in range(draw(st.integers(0, 3))):
        q = _poly_product(q, (-y, den))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(q) - 1))
        moved = list(q)
        moved[k] += draw(st.sampled_from((1, -1, den, -den, den * den)))
        q = tuple(moved)
    while len(q) > 1 and not q[-1]:
        q = q[:-1]
    if not any(q):
        q = (den,)
    return q, y, den


@settings(max_examples=400, deadline=None)
@given(_root_divisions())
def test_checked_division_agrees_with_sign_test_and_exact_division(case):
    q, y, den = case
    assert _divide_root(q, y, den) == _divide_by_evaluation_and_exact_div(q, y, den)


@pytest.mark.parametrize(
    "q, y, den, want",
    [
        ((-6, 4), 3, 2, (2,)),  # 4x - 6 = 2 (2x - 3)
        ((-5, 4), 3, 2, ()),  # degree 1, the top step divides, the remainder does not
        ((-6, 3), 3, 2, ()),  # degree 1, the top step does not divide
        ((7,), 3, 2, ()),  # a constant
        ((-1,), 0, 1, ()),  # a constant, the root 0
        ((0, 0, 9), 0, 1, (0, 9)),  # 9x^2 at 0
        # (2x - 3)^2 (x + 1) = 4x^3 - 8x^2 - 3x + 9, with 9 moved to 10: every
        # step divides exactly and only the final remainder is nonzero
        ((10, -3, -8, 4), 3, 2, ()),
        ((9, -3, -8, 4), 3, 2, (-3, -1, 2)),
        # the same with -3 moved to -4: the x step does not divide by 2
        ((9, -4, -8, 4), 3, 2, ()),
    ],
)
def test_checked_division_examples(q, y, den, want):
    assert _divide_root(q, y, den) == want
    assert _divide_by_evaluation_and_exact_div(q, y, den) == want


def test_checked_division_sees_near_misses_at_every_step():
    rng = random.Random(1801)
    finals = steps = 0
    for _ in range(300):
        root = Q(rng.choice((1, -1)) * rng.randint(1, 40), rng.randint(2, 15))  # not 0
        y, den = root.numerator, root.denominator
        q = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4))) + (rng.randint(1, 9),)
        for _ in range(rng.randint(1, 3)):
            q = _poly_product(q, (-y, den))
        assert _divide_root(q, y, den) == _exact_div(q, (-y, den))
        k = rng.randrange(len(q))
        moved = list(q)
        moved[k] += den if k == 0 else rng.choice((1, den))
        moved = tuple(moved)
        assert _divide_root(moved, y, den) == ()
        assert _divide_by_evaluation_and_exact_div(moved, y, den) == ()
        # moving q[0], or any coefficient by a multiple of den, lets every
        # division step through: only the final remainder can refuse it
        finals += k == 0 or (moved[k] - q[k]) % den == 0
        steps += k > 0 and (moved[k] - q[k]) % den != 0
    assert finals > 50 and steps > 50


@pytest.mark.parametrize(
    "rest, roots",
    [
        # x^2 - 7 has the roots 1 and 2 modulo 3, the prime the search takes,
        # and they lift to the candidates 13 and -13 beside the root -3
        (Polynomial([-7, 0, 1]), {Q(-3): 2}),
        (oracles.poly_product([-7, 0, 1], [-2, 0, 1]), {}),
    ],
)
def test_a_candidate_with_no_rational_root_above_it_is_refused_and_dropped(
    rest, roots, monkeypatch
):
    p = oracles.poly_product(rest.coefficients, roots=roots.items())
    q = p.primitive_integer_coefficients()
    candidates = _distinct_rational_roots(_exact_div(q, _derivative_gcd(q)))
    false = [c for c in candidates if c not in roots]
    assert len(false) == 2 and all(p(c) != 0 for c in false)
    attempts = []

    def counted(q, y, den):
        attempts.append((Q(y, den), quot := _divide_root(q, y, den)))
        return quot

    monkeypatch.setattr("qlinalg.poly._divide_root", counted)
    found, residual = rational_roots(p)
    assert found == tuple(roots.items())
    assert residual == rest
    # each candidate ends on one refusal; a false one is refused at once
    assert [c for c, quot in attempts if not quot] == candidates
    assert [c for c, _ in attempts] == [
        c for c in candidates for _ in range(roots.get(c, 0) + 1)
    ]


# ---- the fraction-free sweep against its full-width reference ---------------------


@st.composite
def _sweep_grids(draw):
    """1x1 up to 7x9 grids, integer or p/q: some columns or rows zeroed, the
    last row a combination of the first two, the top row's leading entries
    zeroed so the first pivots need a swap."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    dens = draw(st.sampled_from([(1,), (1, 2, 3, 5)]))
    entry = st.one_of(st.just(0), st.integers(-5, 5)).map(Q) | st.builds(
        Q, st.integers(-5, 5), st.sampled_from(dens)
    )
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in grid:
            row[j] = Q(0)
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        grid[i] = [Q(0)] * cols
    if rows > 2 and draw(st.booleans()):
        grid[-1] = [x - 2 * z for x, z in zip(grid[0], grid[1])]
    if draw(st.booleans()):
        k = draw(st.integers(1, cols))
        grid[0][:k] = [Q(0)] * k
    return grid


def _record(run):
    """A run's record in the reference's terms, each swap as ("swap", r, src)."""
    steps = [("swap", s.first, s.second) if isinstance(s, Swap) else s for s in run.steps]
    return dict(
        pivots=run.pivots, free=run.free, chosen=run.chosen, steps=steps,
        sign=run.sign, last=run.last, scales=run.scales,
    )


def _sweep_matches(grid):
    want = repr(oracles.fraction_free_reference(grid))
    assert repr(_record(_FractionFree(Matrix(grid)))) == want
    if all(x.denominator == 1 for row in grid for x in row):
        assert repr(_record(_FractionFree([[int(x) for x in row] for row in grid]))) == want


@settings(max_examples=250, deadline=None)
@given(_sweep_grids())
def test_the_sweep_keeps_the_reference_record(grid):
    _sweep_matches(grid)


@pytest.mark.parametrize(
    "grid",
    [
        [[0]],
        [[5]],
        [[0, 0, 0]],
        [[0], [0], [3]],  # a swap from the bottom
        [[0, 2, 1], [0, 4, 2], [0, 0, 7]],  # a zero first column, then a free one
        [[1, 2, 3, 4, 5, 6, 7, 8, 9]],
        [[1], [2], [3], [4], [5], [6], [7]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # two swaps
        [[2, 4, 1], [1, 2, 5], [3, 6, 0], [1, 2, 3]],  # rank 2 over 4 rows
    ],
)
def test_the_sweep_keeps_the_reference_record_on_edge_shapes(grid):
    _sweep_matches([[Q(x) for x in row] for row in grid])


# ---- what a call reads, it leaves as it found it -------------------------------------


def _eigen_inputs():
    rng = random.Random(1802)
    yield Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]])  # a Jordan block: not diagonalizable
    yield Matrix([[0, -1], [1, 0]])  # no rational eigenvalue
    yield Matrix([[Q(1, 2), 0, 0], [0, Q(1, 2), 0], [0, 0, Q(-2, 3)]])  # lam * I blocks
    yield Matrix([[0] * 4 for _ in range(4)])
    for n in range(1, 7):
        yield Matrix(_grid(rng, n, n, DENOMINATORS["small"]))


@pytest.mark.parametrize("a", list(_eigen_inputs()))
def test_eigen_calls_leave_the_integer_image_alone(a, monkeypatch):
    images = []

    def watched(m):
        b, d = _integer_image(m)
        images.append((b, copy.deepcopy(b)))
        return b, d

    monkeypatch.setattr("qlinalg.eigen._integer_image", watched)
    summary = eigen_summary(a)
    diagonalize(a)
    assert len(images) == 2
    for b, before in images:
        assert b == before
    b, d = _integer_image(a)
    before = copy.deepcopy(b)
    for lam, _ in summary.roots:
        _eigenspace(b, d, lam)
    assert b == before


@settings(max_examples=50, deadline=None)
@given(_sweep_grids())
def test_a_run_on_a_matrix_leaves_its_entries_alone(grid):
    m = Matrix(grid)
    before = copy.deepcopy(m.entries)
    _FractionFree(m).null_basis()
    for form in FORMS:
        reduce(m, form)
    assert m.entries == before and repr(m.entries) == repr(before)
