"""Hilbert, Cauchy, Sylvester-Hadamard and Vandermonde matrices as
closed-form oracles.

Each matrix and each answer checked here comes from a formula in
``tests/oracles.py`` with no call into the package: the determinant, the
inverse, and the solution x = 1 of A x = A 1; for Vandermonde matrices, the
determinant, the interpolating coefficients and the rank; the fundamental
subspaces of each invertible family and of [M | M]; and the spectrum of
Sylvester's H_n, which is +-sqrt(n), each n/2 times.  The sizes reach 32,
where the Hilbert and Cauchy inverses have entries of 150 to 250 bits.
"""

import random
from fractions import Fraction

import pytest

from qlinalg import (
    Diagonalizable,
    Matrix,
    NotSplit,
    Unique,
    det,
    diagonalize,
    eigen_summary,
    fundamental_subspaces,
    inverse_adjoint,
    inverse_gauss_jordan,
    solve,
)

import oracles

Q = Fraction
SIZES = (1, 2, 3, 4, 5, 8, 13, 21, 32)


def _cauchy_points(n):
    """Seeded distinct x's and y's, integers in -99..99 and p/q's with q <= 4,
    with every x_i + y_j nonzero.  Each row then clears to a few hundred bits;
    64-bit points would make the 32x32 inverse take over 20 s."""
    rng = random.Random(f"closed-forms/cauchy/{n}")

    def draw():
        p = rng.randint(-99, 99)
        return rng.choice((p, Q(p, rng.randint(1, 4))))

    while True:
        xs, ys = [draw() for _ in range(n)], [draw() for _ in range(n)]
        if len({*xs}) == len({*ys}) == n and all(x + y for x in xs for y in ys):
            return xs, ys


def _family(name, n):
    """(rows, det, inverse) of one family at size n, all from formulas."""
    if name == "hilbert":
        return oracles.hilbert(n), oracles.hilbert_det(n), oracles.hilbert_inverse(n)
    if name == "cauchy":
        xs, ys = _cauchy_points(n)
        rows = oracles.cauchy(xs, ys)
        return rows, oracles.cauchy_det(xs, ys), oracles.cauchy_inverse(xs, ys)
    rows = oracles.hadamard(n)
    sign = -1 if n == 2 else 1  # det H_2m = (-2)^m det(H_m)^2
    return rows, sign * Q(n) ** (n // 2), [[Q(x, n) for x in row] for row in rows]


CASES = [
    *((name, n) for name in ("hilbert", "cauchy") for n in SIZES),
    *(("hadamard", 2 ** k) for k in range(6)),
]


@pytest.mark.parametrize("name, n", CASES)
def test_det_inverse_and_solve_match_the_closed_forms(name, n):
    rows, d, inverse = _family(name, n)
    a = Matrix(rows)
    assert det(a) == d
    assert inverse_gauss_jordan(a) == Matrix(inverse)
    ones = [sum(row, Q(0)) for row in rows]  # A 1
    assert solve(a, ones) == Unique((Q(1),) * n)


@pytest.mark.parametrize("name, n", [(name, n) for name, n in CASES if 2 <= n <= 8])
def test_the_adjoint_inverse_matches_the_closed_forms(name, n):
    rows, _, inverse = _family(name, n)
    assert inverse_adjoint(Matrix(rows)) == Matrix(inverse)


def test_the_formulas_agree_where_the_families_meet():
    # H_n is the Cauchy matrix of x = (1..n), y = (0..n-1), so the two
    # determinant and inverse formulas must give the same numbers
    for n in SIZES:
        xs, ys = list(range(1, n + 1)), list(range(n))
        assert oracles.cauchy(xs, ys) == oracles.hilbert(n)
        assert oracles.cauchy_det(xs, ys) == oracles.hilbert_det(n)
        assert oracles.cauchy_inverse(xs, ys) == oracles.hilbert_inverse(n)
    # and H H^T = n I for every Sylvester order
    for k in range(6):
        h = oracles.hadamard(2 ** k)
        assert oracles.naive_matmul(h, h) == [
            [2 ** k * (i == j) for j in range(2 ** k)] for i in range(2 ** k)
        ]


def test_the_determinants_are_the_known_numbers():
    # small cases worked by hand, so the formulas themselves are pinned
    assert [oracles.hilbert_det(n) for n in (1, 2, 3)] == [1, Q(1, 12), Q(1, 2160)]
    assert oracles.hilbert_inverse(2) == [[4, -6], [-6, 12]]
    assert oracles.cauchy_det([1, 2], [3, 5]) == Q(1 * 2, 4 * 6 * 5 * 7)
    assert oracles.hadamard(2) == [[1, 1], [1, -1]]
    assert oracles.vandermonde([2, 3]) == [[1, 2], [1, 3]]
    assert oracles.vandermonde_det([1, 2, 4]) == (2 - 1) * (4 - 1) * (4 - 2)


# ---- Vandermonde matrices: det and interpolation ----------------------------------


def _nodes(n, kind):
    """n seeded distinct nodes: integers in -99..99, or p/q's with q <= 4."""
    rng = random.Random(f"closed-forms/vandermonde/{kind}/{n}")
    nodes = set()
    while len(nodes) < n:
        p = rng.randint(-99, 99)
        nodes.add(Q(p) if kind == "int" else Q(p, rng.randint(1, 4)))
    return rng.sample(sorted(nodes), n)


@pytest.mark.parametrize("kind", ("int", "pq"))
@pytest.mark.parametrize("n", SIZES)
def test_vandermonde_det_and_interpolation_match_the_closed_forms(n, kind):
    xs = _nodes(n, kind)
    v = Matrix(oracles.vandermonde(xs))
    assert det(v) == oracles.vandermonde_det(xs)
    # V c = (f(x_1), ..., f(x_n)) for f = sum c_j x^j of degree < n: solving
    # it interpolates f, whose coefficients are the unique answer
    rng = random.Random(f"closed-forms/interpolate/{kind}/{n}")
    coeffs = tuple(Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
    values = [sum(c * x**j for j, c in enumerate(coeffs)) for x in xs]
    assert solve(v, values) == Unique(coeffs)


def test_vandermonde_rank_is_the_number_of_distinct_nodes():
    rng = random.Random("closed-forms/vandermonde/repeated")
    for n in range(1, 13):
        pool = _nodes(max(1, n // 2), "pq")
        xs = [rng.choice(pool) for _ in range(n)]
        rank = fundamental_subspaces(Matrix(oracles.vandermonde(xs))).rank
        assert rank == len(set(xs)), xs
        assert (rank < n) is (oracles.vandermonde_det(xs) == 0)


# ---- fundamental subspaces of the invertible families -----------------------------


def _invertible(name, n):
    if name == "hilbert":
        return oracles.hilbert(n)
    if name == "cauchy":
        return oracles.cauchy(*_cauchy_points(n))
    return oracles.vandermonde(_nodes(n, name.partition("-")[2]))


INVERTIBLE = [
    (name, n)
    for name in ("hilbert", "cauchy", "vandermonde-int", "vandermonde-pq")
    for n in SIZES
]


@pytest.mark.parametrize("name, n", INVERTIBLE)
def test_an_invertible_family_has_full_rank_and_no_null_space(name, n):
    f = fundamental_subspaces(Matrix(_invertible(name, n)))
    assert (f.rank, f.nullity) == (n, 0)
    assert f.null.basis == () and f.null.ambient == n


@pytest.mark.parametrize("name, n", INVERTIBLE)
def test_a_doubled_family_has_the_null_basis_minus_e_j_plus_e_j(name, n):
    # [M | M] (x, y) = M (x + y) = 0 exactly when y = -x; the free columns
    # are the right half, and column n + j pairs with pivot column j
    rows = _invertible(name, n)
    f = fundamental_subspaces(Matrix([row + row for row in rows]))
    assert (f.rank, f.nullity) == (n, n)
    unit = [[Q(int(i == j)) for i in range(n)] for j in range(n)]
    assert f.null.basis == tuple(tuple([-x for x in e] + e) for e in unit)


# ---- the spectrum of Sylvester's H_n ----------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_hadamard_eigenvalues_are_plus_and_minus_sqrt_n(n):
    # H^2 = n I and trace H = 0, so det(x I - H) = (x^2 - n)^(n/2): rational
    # roots +-sqrt(n) for n = 4 and 16, none for n = 2, 8 and 32
    rows = oracles.hadamard(n)
    a = Matrix(rows)
    char = oracles.poly_product(*[[-n, 0, 1]] * (n // 2))
    summary, verdict = eigen_summary(a), diagonalize(a)
    assert summary.char == char
    root = next((r for r in range(n + 1) if r * r == n), None)
    if root is None:
        assert (summary.split, summary.roots, summary.residual) == (False, (), char)
        assert verdict == NotSplit(found=(), residual=char)
        return
    assert summary.split and summary.diagonalizable
    assert summary.roots == ((root, n // 2), (-root, n // 2))
    assert isinstance(verdict, Diagonalizable)
    lower, diag = verdict.L.entries, verdict.D.entries
    assert diag == tuple(
        tuple(Q(root if i < n // 2 else -root) * (i == j) for j in range(n))
        for i in range(n)
    )
    assert oracles.naive_matmul(rows, lower) == oracles.naive_matmul(lower, diag)
    assert oracles.rank(lower) == n
