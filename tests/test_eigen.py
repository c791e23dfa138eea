"""Characteristic polynomials, eigenspaces, diagonalization, and exact powers."""

import hashlib
import random
import time
from fractions import Fraction
from math import lcm

import pytest

import qlinalg.eigen
import qlinalg.matrix
from qlinalg import (
    Diagonalizable,
    Matrix,
    NegativePowerOfSingular,
    NotDiagonalizable,
    NotSplit,
    NotSquare,
    Polynomial,
    Split,
    Subspace,
    char_poly,
    deficient_eigenvalue,
    det,
    diagonalize,
    eigen_summary,
    eigenspace,
    eigenvalues,
    inverse_gauss_jordan,
    matrix_power,
    rational_roots,
)

import oracles

Q = Fraction

# triangular 3x3 with spectrum {2, 1, -1}, reused across the file
A_TRI = Matrix([[2, 0, 1], [0, 1, -2], [0, 0, -1]])

ROTATION = Matrix([[0, -1], [1, 0]])  # quarter turn: no real eigenvalues


# ---- characteristic polynomial -----------------------------------------------------


def test_char_poly_of_the_triangular_fixture():
    p = char_poly(A_TRI)
    # (2-x)(1-x)(-1-x), ascending coefficients
    assert p == Polynomial([-2, 1, 2, -1])
    assert str(p) == "-2 + x + 2x^2 - x^3"


def test_char_poly_of_identity():
    assert char_poly(Matrix.identity(2)) == Polynomial([1, -2, 1])  # (1-x)^2


def test_char_poly_of_triangular_is_diagonal_product():
    m = Matrix([[5, 7], [0, 3]])
    assert char_poly(m) == oracles.poly_product([5, -1], [3, -1])


def test_char_poly_needs_square():
    with pytest.raises(NotSquare):
        char_poly(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_char_poly_leading_coefficient_and_constant_term():
    # leading coefficient is (-1)^n; constant term is det(A)
    rng = random.Random(15001)
    for _ in range(30):
        n = rng.randrange(1, 11)
        m = Matrix(oracles.rand_grid(rng, n, n))
        p = char_poly(m)
        assert p.degree == n
        assert p.coefficient(n) == (-1) ** n
        assert p.coefficient(0) == det(m)
        if n <= 6:
            assert p(0) == oracles.leibniz_det(m.entries)


def _unit_triangular_product(rng, n):
    # L U with unit diagonals: invertible by construction
    lower = [[1 if i == j else oracles.rand_fraction(rng) if i > j else 0
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else oracles.rand_fraction(rng) if i < j else 0
              for j in range(n)] for i in range(n)]
    return Matrix(lower) @ Matrix(upper)


def test_char_poly_laws():
    # Cayley-Hamilton, similarity invariance, and the trace coefficient
    rng = random.Random(15003)
    for case in range(12):
        n = 10 if case < 2 else rng.randrange(1, 10)
        a = Matrix(oracles.rand_grid(rng, n, n))
        p = char_poly(a)

        ident = Matrix.identity(n)
        horner = p.coefficient(n) * ident
        for k in range(n - 1, -1, -1):
            horner = horner @ a + p.coefficient(k) * ident
        assert horner == Matrix([[0] * n] * n)

        s = _unit_triangular_product(rng, n)
        assert char_poly(s @ a @ inverse_gauss_jordan(s)) == p

        assert p.coefficient(n - 1) == (-1) ** (n - 1) * a.trace()


# ---- eigenvalues -------------------------------------------------------------------


def test_eigenvalues_of_the_fixture_split_decreasing():
    verdict = eigenvalues(A_TRI)
    assert isinstance(verdict, Split)
    assert verdict
    assert verdict.roots == ((2, 1), (1, 1), (-1, 1))
    assert verdict.eigenvalues == (2, 1, -1)
    assert verdict.multiplicity(-1) == 1
    assert verdict.multiplicity(7) == 0


def test_eigenvalues_of_diagonal_matrix_carry_multiplicity():
    verdict = eigenvalues(Matrix([[5, 0, 0], [0, 5, 0], [0, 0, 3]]))
    assert verdict.roots == ((5, 2), (3, 1))


# 0 between positive and negative eigenvalues, as a simple root, beside a
# nilpotent block, and beside a Jordan block at 1 that is the first deficiency
_ZERO_INSIDE = (
    ([[2, 0, 0], [0, 0, 0], [0, 0, -1]], ((2, 1), (0, 1), (-1, 1)), None),
    ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, -1]],
     ((1, 1), (0, 2), (-1, 1)), (0, 2, 1)),
    ([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, -1]],
     ((1, 2), (0, 2), (-1, 1)), (1, 2, 1)),
)


@pytest.mark.parametrize("rows, roots, deficient", _ZERO_INSIDE)
def test_zero_keeps_its_decreasing_place_among_the_eigenvalues(rows, roots, deficient):
    a = Matrix(rows)
    found, _ = rational_roots(char_poly(a))
    assert found[0][0] == 0 and dict(found) == dict(roots)  # the public order
    assert eigenvalues(a).roots == roots
    summary = eigen_summary(a)
    assert summary.roots == roots
    assert [lam for lam, _ in summary.spaces] == [lam for lam, _ in roots]
    assert summary.deficient == deficient
    verdict = diagonalize(a)
    if deficient is None:
        diagonal = [lam for lam, m in roots for _ in range(m)]
        assert [verdict.D[i, i] for i in range(a.rows)] == diagonal
        assert verdict.reconstruct() == a
    else:
        assert (verdict.eigenvalue, verdict.algebraic, verdict.geometric) == deficient


def test_unsplit_eight_by_eight_answers_quickly():
    m = Matrix.parse(oracles.UNSPLIT_8X8)
    started = time.perf_counter()
    verdict = eigenvalues(m)
    # enumerating divisors of its 67-bit constant term ran for over a minute
    assert time.perf_counter() - started < 2
    assert isinstance(verdict, NotSplit)
    assert verdict.found == ()
    assert verdict.residual == char_poly(m)


def test_thirty_two_by_thirty_two_of_fractions_answers_quickly():
    rng = random.Random(3214)
    m = Matrix([[Q(rng.randint(-9, 9), rng.randint(1, 11)) for _ in range(32)] for _ in range(32)])
    started = time.perf_counter()
    summary = eigen_summary(m)
    # bisecting a Sturm sequence over the Cauchy bound of its ~500-bit
    # coefficients took about 2.7 s; lifting roots mod one prime, about 0.2 s
    assert time.perf_counter() - started < 1.5
    p = char_poly(m)
    assert summary.char == p
    assert summary.roots == rational_roots(p)[0]


def test_rotation_matrix_does_not_split():
    verdict = eigenvalues(ROTATION)
    assert isinstance(verdict, NotSplit)
    assert not verdict
    assert verdict.found == ()
    assert verdict.residual == Polynomial([1, 0, 1])
    assert str(verdict.residual) == "1 + x^2"


def test_reported_eigenvalues_are_roots_and_deflation_rebuilds():
    p = char_poly(A_TRI)
    roots, residual = rational_roots(p)
    for lam, _ in roots:
        assert p(lam) == 0
    assert oracles.poly_product(residual.coefficients, roots=roots) == p


# ---- eigenspaces -------------------------------------------------------------------


def test_eigenspaces_of_the_fixture():
    assert eigenspace(A_TRI, 2).basis == ((1, 0, 0),)
    assert eigenspace(A_TRI, 1).basis == ((0, 1, 0),)
    assert eigenspace(A_TRI, -1).basis == ((Q(-1, 3), 1, 1),)


def test_eigenspace_builds_only_the_null_space(monkeypatch):
    def row_space(self, k):
        raise AssertionError("eigenspace read a row of the sweep")

    monkeypatch.setattr(qlinalg.elimination._FractionFree, "swept_row", row_space)
    assert eigenspace(A_TRI, -1).basis == ((Q(-1, 3), 1, 1),)


def test_eigenspace_vectors_are_actual_eigenvectors():
    for lam in (2, 1, -1):
        for v in eigenspace(A_TRI, lam).basis:
            image = A_TRI @ Matrix.column_vector(v)
            assert image == Matrix.column_vector([lam * c for c in v])


def test_identity_eigenspace_is_everything():
    space = eigenspace(Matrix.identity(3), 1)
    assert space.dimension == 3
    assert space.same_space(Subspace(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_non_eigenvalue_gives_zero_subspace():
    assert eigenspace(A_TRI, 7).is_zero
    assert eigenspace(A_TRI, Q(1, 2)).is_zero


def test_eigenspace_needs_square():
    with pytest.raises(NotSquare):
        eigenspace(Matrix([[1, 2, 3], [4, 5, 6]]), 1)


# ---- the multiplicity predicate ----------------------------------------------------


def test_deficient_eigenvalue_names_the_short_space():
    # 5x5 with (3-x)^2(-2-x)(4-x)^2 and dim(E_3) stuck at 1
    assert deficient_eigenvalue([(3, 2, 1), (-2, 1, 1), (4, 2, 2)]) == 3


def test_full_geometric_multiplicities_pass():
    assert deficient_eigenvalue([(2, 3, 3), (3, 1, 1)]) is None


def test_deficient_eigenvalue_on_a_repeated_root():
    # (1-x)(2-x)^2 with a one-dimensional E_2
    assert deficient_eigenvalue([(2, 2, 1), (1, 1, 1)]) == 2


# ---- diagonalize -------------------------------------------------------------------


def test_diagonalize_the_fixture():
    verdict = diagonalize(A_TRI)
    assert isinstance(verdict, Diagonalizable)
    assert verdict
    assert verdict.D == Matrix([[2, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert verdict.L == Matrix.from_columns(
        [(1, 0, 0), (0, 1, 0), (Q(-1, 3), 1, 1)]
    )
    assert verdict.reconstruct() == A_TRI
    assert det(verdict.L) != 0


def test_diagonalize_a_diagonal_matrix():
    d = Matrix([[5, 0], [0, 3]])
    verdict = diagonalize(d)
    assert verdict.D == d
    assert verdict.L == Matrix.identity(2)


def test_upper_triangular_with_short_eigenspace_is_not_diagonalizable():
    c = Matrix(
        [[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, -1, 1], [0, 0, 0, -1]]
    )
    verdict = diagonalize(c)
    assert isinstance(verdict, NotDiagonalizable)
    assert not verdict
    assert verdict.eigenvalue == -1
    assert verdict.algebraic == 2
    assert verdict.geometric == 1


def test_diagonalize_passes_not_split_through():
    verdict = diagonalize(ROTATION)
    assert isinstance(verdict, NotSplit)
    assert verdict.residual == Polynomial([1, 0, 1])


def test_diagonalize_needs_square():
    with pytest.raises(NotSquare):
        diagonalize(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_rebuild_from_given_eigenspaces():
    # a 5x5 assembled from prescribed eigenspaces: E_3 three-dimensional,
    # E_2 two-dimensional; everything must be recoverable from the product
    e3 = ((2, 1, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 2, 2, 0))
    e2 = ((0, 0, 0, 1, 1), (0, 0, 0, 0, 10))
    l = Matrix.from_columns(e3 + e2)
    d = Matrix([[3 if i == j and i < 3 else 2 if i == j else 0 for j in range(5)]
                for i in range(5)])
    a = l @ d @ inverse_gauss_jordan(l)

    assert char_poly(a) == oracles.poly_product(*[[3, -1]] * 3, *[[2, -1]] * 2)
    assert eigenvalues(a).roots == ((3, 3), (2, 2))
    assert eigenspace(a, 3).same_space(Subspace(5, e3))
    assert eigenspace(a, 2).same_space(Subspace(5, e2))

    verdict = diagonalize(a)
    assert isinstance(verdict, Diagonalizable)
    assert verdict.D == d
    assert verdict.reconstruct() == a


# ---- matrix powers -----------------------------------------------------------------


def test_power_six_through_the_decomposition():
    p6 = matrix_power(A_TRI, 6)
    assert p6 == Matrix([[64, 0, 21], [0, 1, 0], [0, 0, 1]])
    assert p6.entries == tuple(
        tuple(r) for r in oracles.naive_power(A_TRI.entries, 6)
    )


def test_power_zero_and_one():
    assert matrix_power(A_TRI, 0) == Matrix.identity(3)
    assert matrix_power(A_TRI, 1) == A_TRI


def test_negative_power_of_invertible():
    m = Matrix([[1, 2], [3, 4]])
    assert matrix_power(m, -1) == inverse_gauss_jordan(m)
    assert matrix_power(m, -2) == inverse_gauss_jordan(m @ m)


def test_negative_power_of_singular_is_refused():
    with pytest.raises(NegativePowerOfSingular):
        matrix_power(Matrix([[1, 1], [1, 1]]), -1)


def test_power_falls_back_when_not_diagonalizable():
    shear = Matrix([[1, 1], [0, 1]])
    assert matrix_power(shear, 5) == Matrix([[1, 5], [0, 1]])


def test_power_falls_back_when_not_split():
    assert matrix_power(ROTATION, 4) == Matrix.identity(2)
    assert matrix_power(ROTATION, 2) == Matrix([[-1, 0], [0, -1]])


def test_power_needs_square():
    with pytest.raises(NotSquare):
        matrix_power(Matrix([[1, 2, 3], [4, 5, 6]]), 2)


# ---- the one-call summary ----------------------------------------------------------


def test_summary_of_the_fixture():
    s = eigen_summary(A_TRI)
    assert s.char == Polynomial([-2, 1, 2, -1])
    assert s.split is True
    assert s.roots == ((2, 1), (1, 1), (-1, 1))
    assert s.residual is None
    assert s.eigenspace_of(-1).basis == ((Q(-1, 3), 1, 1),)
    assert s.eigenspace_of(99) is None
    assert s.diagonalizable is True
    assert s.deficient is None


@pytest.mark.parametrize(
    "call", [eigenvalues, diagonalize, eigen_summary], ids=lambda f: f.__name__
)
def test_each_call_runs_berkowitz_and_the_root_search_once(monkeypatch, call):
    calls = []
    berkowitz, search = qlinalg.eigen._char_poly, qlinalg.eigen._rational_roots

    def counted(b, d):
        calls.append((b, d))
        return berkowitz(b, d)

    def counted_search(ints, lead):
        calls.append(ints)
        return search(ints, lead)

    # the Berkowitz run behind char_poly, on the call's one integer image
    monkeypatch.setattr(qlinalg.eigen, "_char_poly", counted)
    monkeypatch.setattr(qlinalg.eigen, "_rational_roots", counted_search)
    call(A_TRI)
    assert calls == [([[2, 0, 1], [0, 1, -2], [0, 0, -1]], 1), (-2, 1, 2, -1)]


# diag(3) + J_2(1) + (-1): 1 is deficient; a quarter turn + (2) does not split
_MIXED = Matrix.parse("3 0 0 0; 0 1 1 0; 0 0 1 0; 0 0 0 -1")
_TURN_AND_TWO = Matrix.parse("0 -1 0; 1 0 0; 0 0 2")


@pytest.mark.parametrize(
    "a, call, built",
    [
        (_MIXED, eigenvalues, []),
        (_MIXED, diagonalize, [3, 1]),
        (_MIXED, eigen_summary, [3, 1, -1]),
        (_TURN_AND_TWO, eigenvalues, []),
        (_TURN_AND_TWO, diagonalize, []),
        (_TURN_AND_TWO, eigen_summary, [2]),
    ],
    ids=[f"{a}-{call}" for a in ("mixed", "not-split") for call in ("values", "diag", "summary")],
)
def test_eigenspaces_are_built_only_as_far_as_the_answer_reads(monkeypatch, a, call, built):
    calls = []
    inner = qlinalg.eigen._eigenspace

    def counted(b, d, lam, last=()):
        calls.append(lam)
        return inner(b, d, lam, last)

    monkeypatch.setattr(qlinalg.eigen, "_eigenspace", counted)
    call(a)
    assert calls == built


def test_summary_names_the_deficiency():
    c = Matrix(
        [[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, -1, 1], [0, 0, 0, -1]]
    )
    s = eigen_summary(c)
    assert s.split is True
    assert s.diagonalizable is False
    assert s.deficient == (-1, 2, 1)


def test_summary_of_unsplit_matrix():
    s = eigen_summary(ROTATION)
    assert s.split is False
    assert s.residual == Polynomial([1, 0, 1])
    assert s.roots == ()
    assert s.diagonalizable is None
    assert s.deficient is None


# ---- the integer routes against the oracles ------------------------------------------

_DENOMINATORS = (1, 2, 3, 5, 7)


def _oracle_grid(rng, n, kind):
    """An n x n grid of the named kind with some of its eigenvalues.  "int" and
    "pq" are P T P^-1 for T upper triangular with a repeated diagonal entry,
    P unimodular (so the entries stay integers) or p/q; "singular" is a p/q
    grid whose last row is a multiple of its first (zero when n = 1)."""
    if kind == "singular":
        grid = oracles.rand_grid(rng, n, n, denominators=_DENOMINATORS)
        c = oracles.rand_fraction(rng)
        grid[-1] = [c * x for x in grid[0]] if n > 1 else [Q(0)]
        return grid, (Q(0),)
    dens = (1,) if kind == "int" else _DENOMINATORS
    spectrum = [oracles.rand_fraction(rng, -3, 3, dens) for _ in range(n)]
    spectrum[n // 2] = spectrum[0]
    t = [
        [spectrum[i] if i == j else oracles.rand_fraction(rng, -2, 2, dens) * (j > i)
         for j in range(n)]
        for i in range(n)
    ]
    if kind == "int":
        lower = [[Q(rng.randint(-2, 2)) if j < i else Q(int(i == j)) for j in range(n)]
                 for i in range(n)]
        upper = [list(col) for col in zip(*lower)]
        p = oracles.naive_matmul(lower, upper)  # det 1: an integer inverse
    else:
        p = oracles.rand_invertible_grid(rng, n, denominators=_DENOMINATORS)
    grid = oracles.naive_matmul(oracles.naive_matmul(p, t), oracles.inverse_by_elimination(p))
    return grid, tuple(spectrum)


@pytest.mark.parametrize("kind", ("int", "pq", "singular"))
def test_power_matches_repeated_multiplication_for_every_k(kind):
    rng = random.Random(f"power/{kind}")
    for n in range(1, 7):
        grid, _ = _oracle_grid(rng, n, kind)
        a = Matrix(grid)
        inverse = oracles.inverse_by_elimination(grid)
        assert kind != "singular" or inverse is None
        # qlinalg power bounds entries of B^k = (d A)^k by (n max|num| d)^k
        d = lcm(*(x.denominator for row in grid for x in row))
        bound = n * max(abs(x.numerator) for row in grid for x in row) * d
        for k in range(-3, 8):
            if k < 0 and inverse is None:
                with pytest.raises(NegativePowerOfSingular):
                    matrix_power(a, k)
                continue
            expected = oracles.naive_power(grid if k >= 0 else inverse, abs(k))
            assert matrix_power(a, k).entries == tuple(map(tuple, expected)), (n, k)
            if k >= 0:
                assert all(abs(x * d**k) <= bound**k for row in expected for x in row)


@pytest.mark.parametrize("kind", ("int", "pq", "singular"))
def test_eigenspace_matches_the_oracle_null_basis(kind):
    rng = random.Random(f"eigenspace/{kind}")
    dimensions = set()
    for n in range(1, 7):
        grid, spectrum = _oracle_grid(rng, n, kind)
        a = Matrix(grid)
        for lam in sorted(set(spectrum) | {Q(0), Q(1), Q(-1), Q(1, 2), Q(-7, 3)}):
            shifted = [[x - lam * (i == j) for j, x in enumerate(r)] for i, r in enumerate(grid)]
            space = eigenspace(a, lam)
            assert space.ambient == n
            assert space.basis == oracles.null_basis(shifted), (n, lam)
            dimensions.add(space.dimension)
    assert 0 in dimensions and max(dimensions) > 0  # non-eigenvalues and eigenvalues


def test_eigen_calls_coerce_no_entry_the_library_built(monkeypatch):
    rng = random.Random(15003)
    p = Matrix(oracles.rand_invertible_grid(rng, 6, denominators=_DENOMINATORS))
    values = (Q(3), Q(-1, 2), Q(-1, 2), Q(2, 3), Q(0), Q(3))
    a = p @ Matrix([[values[i] * (i == j) for j in range(6)] for i in range(6)])
    a = a @ inverse_gauss_jordan(p)
    assert any(x.denominator > 1 for row in a.entries for x in row)
    coerced = []
    checked = qlinalg.matrix.as_scalar
    monkeypatch.setattr(
        qlinalg.matrix, "as_scalar", lambda x: coerced.append(x) or checked(x)
    )
    assert eigen_summary(a).diagonalizable is True
    assert isinstance(diagonalize(a), Diagonalizable)
    matrix_power(a, 5)
    # singular (0 is an eigenvalue), so shift it for the inverse route
    matrix_power(a + Matrix.identity(6), -2)
    assert coerced == []


# ---- the adjugate line against the sweep --------------------------------------------

_ROUTE_FAMILIES = ("int", "pq", "long", "jordan", "repeated", "lower", "upper", "block")
# families where some eigenvalue's last adjugate column is bound to be zero
_SWEPT_FAMILIES = {"repeated", "lower", "block"}


def _route_grid(rng, n, family):
    """An n x n grid of the named family, its rational eigenvalues constructed.

    "int", "pq" and "long" are simple spectra conjugated by a unimodular
    (integer) or p/q matrix; "long" has 64-200-bit integer entries over one
    64-bit denominator.  "jordan" joins runs of equal eigenvalues into
    Jordan blocks (geometric multiplicity 1); "repeated" keeps them diagonal
    (geometric multiplicity 2 or more).  "lower", "upper" and "block" stay
    triangular or block diagonal, where most left eigenvectors end in 0."""
    if family == "block" and n > 1:
        k = rng.randrange(1, n)
        top, bottom = _route_grid(rng, k, "pq"), _route_grid(rng, n - k, "int")
        return [row + [Q(0)] * (n - k) for row in top] + [[Q(0)] * k + row for row in bottom]
    dens = (1,) if family in ("int", "long") else _DENOMINATORS
    spectrum = rng.sample(range(-9, 10), n)
    if family == "long":
        spectrum = [x << rng.randrange(64, 200) for x in spectrum]
    den = rng.choice(dens)
    spectrum = [Q(x, den) for x in spectrum]
    if family in ("jordan", "repeated"):
        spectrum = sorted(rng.choice(spectrum[:2]) for _ in range(n))
    t = [[spectrum[i] * (i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if family == "jordan" and spectrum[i] == spectrum[i - 1]:
            t[i - 1][i] = Q(1)
        for j in range(i):
            if family in ("lower", "upper"):
                x = oracles.rand_fraction(rng, -3, 3, dens)
                t[i][j], t[j][i] = (x, Q(0)) if family == "lower" else (Q(0), x)
    if family in ("lower", "upper"):
        return t
    if family in ("int", "long"):  # L L^T, L unit lower triangular: det 1
        lower = [[Q(rng.randint(-2, 2)) if j < i else Q(int(i == j)) for j in range(n)]
                 for i in range(n)]
        p = oracles.naive_matmul(lower, [list(col) for col in zip(*lower)])
    else:
        p = oracles.rand_invertible_grid(rng, n, lo=-3, hi=3, denominators=dens)
    grid = oracles.naive_matmul(oracles.naive_matmul(p, t), oracles.inverse_by_elimination(p))
    if family == "long":
        den = rng.getrandbits(64) | 1
        grid = [[x / den for x in row] for row in grid]
    return grid


def _sweeps(monkeypatch):
    """The list that records each fraction-free run started from now on."""
    engine, runs = qlinalg.elimination._FractionFree, []

    def counted(self, *args, _start=engine.__init__, **kwargs):
        runs.append(args)
        _start(self, *args, **kwargs)

    monkeypatch.setattr(engine, "__init__", counted)
    return runs


@pytest.mark.parametrize("family", _ROUTE_FAMILIES)
def test_every_summary_eigenspace_is_the_public_sweeps(family, monkeypatch):
    rng = random.Random(f"route/{family}")
    runs = _sweeps(monkeypatch)
    spaces = swept = 0
    for case in range(18):
        a = Matrix(_route_grid(rng, case % 6 + 1, family))
        runs.clear()
        summary = eigen_summary(a)
        swept += len(runs)
        assert summary.split is True
        for lam, space in summary.spaces:
            assert repr(space) == repr(eigenspace(a, lam)), (a, lam)
            spaces += 1
        verdict = diagonalize(a)
        assert bool(verdict) is summary.diagonalizable
        if verdict:
            bases = [v for _, space in summary.spaces for v in space.basis]
            assert verdict.L == Matrix(bases).transpose()
    assert swept < spaces  # the line answered some eigenvalues
    assert swept > 0 or family not in _SWEPT_FAMILIES


# The last column of adj(mu I - A_TRI) is (mu - 1, -2 (mu - 2), (mu - 2)(mu - 1)):
# (1, 0, 0) at 2, (0, 2, 0) at 1 and (-2, 6, 6) at -1, none zero, so no sweep.
# For _DOUBLE, 1 I - _DOUBLE has rank 1, so its adjugate is 0 and eigenvalue 1
# (geometric multiplicity 2) is swept; at 2 the column is (1, 1, 1): one sweep.
_DOUBLE = Matrix([[1, 0, 1], [0, 1, 1], [0, 0, 2]])


@pytest.mark.parametrize("call", (eigen_summary, diagonalize))
@pytest.mark.parametrize("a, expected", ((A_TRI, 0), (_DOUBLE, 1)))
def test_only_a_vanishing_adjugate_column_runs_a_sweep(call, a, expected, monkeypatch):
    runs = _sweeps(monkeypatch)
    assert call(a)
    assert len(runs) == expected


def test_the_public_eigenspace_always_sweeps(monkeypatch):
    runs = _sweeps(monkeypatch)  # lam need not be a root, so no line is read
    for lam in (2, 1, -1, 7):
        eigenspace(A_TRI, lam)
    assert len(runs) == 4


# ---- random diagonalizable constructions -------------------------------------------


def test_diagonalizable_construction_property():
    # build A = P diag P^{-1}, then demand the full story back: the eigenvalue
    # multiset, eigenspace dimensions, the reconstruction, the trace and
    # determinant identities, and power agreement with plain multiplication
    rng = random.Random(15002)
    for case in range(100):
        n = 4 if case % 5 == 0 else rng.randrange(2, 4)
        values = [Q(rng.choice((-3, -2, -1, 1, 2, 3, Q(1, 2)))) for _ in range(n)]
        d = Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])
        p = Matrix(oracles.rand_invertible_grid(rng, n, lo=-3, hi=3))
        a = p @ d @ inverse_gauss_jordan(p)

        multiset: dict[Fraction, int] = {}
        for lam in values:
            multiset[lam] = multiset.get(lam, 0) + 1

        verdict = eigenvalues(a)
        assert isinstance(verdict, Split)
        assert dict(verdict.roots) == multiset

        assert a.trace() == sum(lam * m for lam, m in multiset.items())
        expected_det = Q(1)
        for lam, m in multiset.items():
            expected_det *= lam ** m
        assert det(a) == expected_det

        for lam, m in multiset.items():
            assert eigenspace(a, lam).dimension == m

        decomposition = diagonalize(a)
        assert isinstance(decomposition, Diagonalizable)
        assert decomposition.reconstruct() == a

        for k in range(9):
            assert matrix_power(a, k).entries == tuple(
                tuple(r) for r in oracles.naive_power(a.entries, k)
            )


# ---- answers pinned where no benchmark workload looks --------------------------------


def _conjugated(rng, t):
    """P T P^-1 for P = L L^T, L unit lower triangular over -2..2 (det 1)."""
    n = len(t)
    lower = [[Q(rng.randint(-2, 2)) if j < i else Q(int(i == j)) for j in range(n)]
             for i in range(n)]
    p = oracles.naive_matmul(lower, [list(col) for col in zip(*lower)])
    return oracles.naive_matmul(oracles.naive_matmul(p, t), oracles.inverse_by_elimination(p))


def _triangular(rng, spectrum, above):
    """Upper triangular with the diagonal ``spectrum`` and entries drawn
    from ``above`` over it."""
    n = len(spectrum)
    return [[Q(spectrum[i]) if i == j else Q(rng.choice(above) * (j > i)) for j in range(n)]
            for i in range(n)]


def _rank_deficient(rng, n, rank, bits):
    """``rank`` rows of signed ``bits``-bit integers and n - rank small
    combinations of them, shuffled."""
    rows = [[rng.randint(-(2 ** bits), 2 ** bits) for _ in range(n)] for _ in range(rank)]
    for _ in range(n - rank):
        c = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append([sum(x * row[j] for x, row in zip(c, rows[:rank])) for j in range(n)])
    rng.shuffle(rows)
    return rows


def _zero_of_multiplicity_four(rng):
    spectrum = [0] * 4 + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(8)]
    rng.shuffle(spectrum)
    return _conjugated(rng, _triangular(rng, spectrum, (-1, 0, 1)))


def _pq(rng, n):
    return [[Q(rng.randint(-9, 9), rng.randint(1, 11)) for _ in range(n)] for _ in range(n)]


# each input, drawn from random.Random(f"pinned/{name}")
PINNED = {
    "12x12-zero-of-multiplicity-4": _zero_of_multiplicity_four,
    "16x16-rank-12-64-bit": lambda rng: _rank_deficient(rng, 16, 12, 64),
    "12x12-rank-6-128-bit": lambda rng: _rank_deficient(rng, 12, 6, 128),
    "16x16-nilpotent": lambda rng: _conjugated(rng, _triangular(rng, [0] * 16, (-2, 1, 2))),
    "32x32-pq": lambda rng: _pq(rng, 32),
}
# SHA-256 of the reprs of eigen_summary, diagonalize and eigenvalues on each
PINNED_DIGESTS = {
    "12x12-zero-of-multiplicity-4":
        "27741ca1eafd5daa01eec676d3481b4d64be5edda76234ca835ad2b9933ec5cc",
    "16x16-rank-12-64-bit":
        "58c43c2f2914b450416e38da557d111718c548a436c9df6f6f27ec03c13bc7e8",
    "12x12-rank-6-128-bit":
        "21784ad20224f6f6eefccb5db75aaff4934de79520d6dc5f3f3328ffe69dde49",
    "16x16-nilpotent":
        "990da62e4b4d897e51edd5515fcc93e44698a9c717d83ce70682003a680c5827",
    "32x32-pq":
        "cfdd81ba97b38ef58adc6d45d303edcf4af66de10a7f220569a0b8982dd82a6e",
}


def pinned_matrix(name):
    return Matrix(PINNED[name](random.Random(f"pinned/{name}")))


def eigen_digest(a):
    text = "\n".join(repr(f(a)) for f in (eigen_summary, diagonalize, eigenvalues))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_eigen_answers_stay_pinned_on_singular_and_long_inputs(name):
    assert eigen_digest(pinned_matrix(name)) == PINNED_DIGESTS[name]
