import functools
import operator
import random
from fractions import Fraction
from math import prod

import pytest

import qlinalg.matrix
from qlinalg import (
    AddMultiple,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    NotInvertible,
    NotSquare,
    Scale,
    SingularCoefficient,
    Swap,
    Unique,
    WrongSize,
    adjoint,
    apply_row_op,
    cofactor_expand,
    cofactor_matrix,
    cramer_solve,
    det,
    det_cofactor,
    det_with_trace,
    hstack,
    inverse_2x2,
    inverse_adjoint,
    inverse_entry,
    inverse_gauss_jordan,
    reduce,
    row_op_det_effect,
    solve,
    split_augmented,
)

import oracles

Q = Fraction


# ---- determinants ---------------------------------------------------------------


def test_det_2x2():
    assert det(Matrix.parse("3 2; 5 7")) == 11
    assert det_cofactor(Matrix.parse("3 2; 5 7")) == 11


def test_det_3x3():
    a = Matrix.parse("1 0 2; 3 1 -1; 1 2 4")
    assert det(a) == 16
    assert det_cofactor(a) == 16


def test_det_1x1_and_identity():
    assert det(Matrix.parse("7")) == 7
    assert det(Matrix.identity(4)) == 1


def test_det_rejects_rectangles():
    with pytest.raises(NotSquare):
        det(Matrix.parse("1 2 3; 4 5 6"))
    with pytest.raises(NotSquare):
        det_cofactor(Matrix.parse("1 2 3; 4 5 6"))
    with pytest.raises(NotSquare):
        det_with_trace(Matrix.parse("1 2 3; 4 5 6"))


def test_singular_det_is_zero():
    assert det(Matrix.parse("2 3; 4 6")) == 0


def test_triangular_det_is_diagonal_product():
    assert det(Matrix.parse("1 7 3; 0 2 5; 0 0 4")) == 8
    assert det(Matrix.parse("1 0 0; 5 2 0; 1 9 4")) == 8


def test_cofactor_expansion_along_a_column():
    a = Matrix.parse("1 0 2; 3 1 -1; 1 2 4")
    exp = cofactor_expand(a, col=1)
    assert exp.terms == (0, 2, 14)
    assert exp.value == 16
    assert exp.col == 1 and exp.row is None


def test_cofactor_expansion_along_a_row():
    a = Matrix.parse("1 0 2; 3 1 -1; 1 2 4")
    exp = cofactor_expand(a, row=0)
    assert exp.value == 16
    assert sum(exp.terms) == 16


def _expansion_grids():
    """Seeded n x n grids, n = 1..5, integer and p/q: dense ones; ones of rank
    at most n - 2, every (n-1)-minor of which is 0; and ones with a zero
    column j: along a row, A without that row has j as its free column; along
    another column, A's transpose without that row keeps a zero row, so the
    whole line is 0."""
    rng = random.Random(9001)
    for n in range(1, 6):
        for denominators in ((1,), (1, 1, 2, 3, 5)):
            for _ in range(6):
                yield oracles.rand_grid(rng, n, n, denominators=denominators)
            if n >= 2:
                for _ in range(2):
                    left = oracles.rand_grid(rng, n, n - 2, denominators=denominators)
                    right = oracles.rand_grid(rng, n - 2, n, denominators=denominators)
                    yield oracles.naive_matmul(left, right) if n > 2 else [[Fraction(0)] * n] * n
                grid = oracles.rand_grid(rng, n, n, denominators=denominators)
                j = rng.randrange(n)
                yield [[Fraction(0) if c == j else x for c, x in enumerate(r)] for r in grid]


def test_every_expansion_line_agrees():
    # each term, not only the total: term k of a line is the signed entry
    # times the Leibniz determinant of its minor (that of the empty minor is 1)
    for grid in _expansion_grids():
        n = len(grid)
        a = Matrix(grid)
        want = oracles.leibniz_det(grid)
        for k in range(n):
            for exp in (cofactor_expand(a, row=k), cofactor_expand(a, col=k)):
                assert exp.value == want
                assert len(exp.terms) == n
                for m, term in enumerate(exp.terms):
                    i, j = (k, m) if exp.row is not None else (m, k)
                    minor = [
                        [x for c, x in enumerate(r) if c != j]
                        for r_i, r in enumerate(grid)
                        if r_i != i
                    ]
                    sign = -1 if (i + j) % 2 else 1
                    assert term == sign * grid[i][j] * oracles.leibniz_det(minor)


def test_cofactor_expand_validates_arguments():
    a = Matrix.identity(3)
    with pytest.raises(ValueError):
        cofactor_expand(a)
    with pytest.raises(ValueError):
        cofactor_expand(a, row=0, col=0)
    with pytest.raises(NotSquare):
        cofactor_expand(Matrix.parse("1 2 3; 4 5 6"), row=0)
    for kw in ({"row": 3}, {"col": 3}, {"row": -1}, {"col": -1}):
        with pytest.raises(IndexOutOfRange):
            cofactor_expand(a, **kw)


@pytest.mark.parametrize(
    "expand",
    [
        lambda a, i: cofactor_expand(a, row=i),
        lambda a, i: cofactor_expand(a, col=i),
        lambda a, i: inverse_entry(a, i, 0),
        lambda a, i: inverse_entry(a, 0, i),
    ],
    ids=["cofactor_expand-row", "cofactor_expand-col", "inverse_entry-i", "inverse_entry-k"],
)
@pytest.mark.parametrize(
    "index", [True, False, 1.0, Q(1), "1"], ids=["True", "False", "float", "Fraction", "str"]
)
def test_cofactor_lines_refuse_an_index_that_is_not_an_int(expand, index):
    with pytest.raises(TypeError, match="index must be an int"):
        expand(Matrix.parse("1 2 3; 4 5 6; 7 8 10"), index)


# ---- row-operation effects on determinants ------------------------------------


def test_row_op_det_effect():
    assert row_op_det_effect(Scale(3, 1)) == 3
    assert row_op_det_effect(AddMultiple(5, 0, 1)) == 1
    assert row_op_det_effect(Swap(0, 1)) == -1


def test_effect_log_accumulates():
    ops = [Scale(2, 0), Scale(3, 2), Scale(-2, 3)]
    assert [row_op_det_effect(op) for op in ops] == [2, 3, -2]
    assert prod(map(row_op_det_effect, ops)) == -12
    a = Matrix.parse("1 0 0 0; 0 1 0 0; 0 0 2 0; 0 0 0 2")
    assert det(functools.reduce(apply_row_op, ops, a)) == -12 * det(a) == -48


def test_addmultiple_preserves_det():
    a = Matrix.parse("1 2 3; 0 4 1; 2 0 1")
    op = AddMultiple(7, 0, 2)
    assert row_op_det_effect(op) == 1
    assert det(apply_row_op(a, op)) == det(a)


def test_det_with_trace_explains_itself():
    a = Matrix.parse("0 2; 3 1")  # forces a swap
    value, trace = det_with_trace(a)
    assert value == -6
    assert trace.steps[0] == Swap(0, 1)
    # the triangular end of the trace has det == (product of factors) * det(a)
    tri = trace.end
    assert tri[0, 0] * tri[1, 1] == prod(map(row_op_det_effect, trace)) * value


def _det_law_inputs():
    """Seeded square matrices: small integers, p/q entries, 64-bit integers,
    singular ones, and ones whose top-left entry is 0, so that the
    elimination must swap (one swap, then a cycle of n - 1)."""
    rng = random.Random(4040)
    for n in range(1, 6):
        for _ in range(4):
            ints = oracles.rand_grid(rng, n, n, lo=-9, hi=9, denominators=(1,))
            yield ints
            yield oracles.rand_grid(rng, n, n, denominators=(2, 3, 5, 7))
            yield [[rng.choice((-1, 1)) * rng.getrandbits(64) for _ in range(n)] for _ in range(n)]
            if n > 1:
                yield [*ints[:-1], [x + y for x, y in zip(ints[0], ints[-2])]]
                yield [[0, *ints[0][1:]], [1 + abs(ints[1][0]), *ints[1][1:]], *ints[2:]]
                upper = [[rng.randint(1, 9) if i <= j else 0 for j in range(n)] for i in range(n)]
                yield upper[1:] + upper[:1]


def test_det_with_trace_is_det_and_the_semi_reduced_trace():
    for rows in _det_law_inputs():
        a = Matrix(rows)
        assert det_with_trace(a) == (det(a), reduce(a, "semi_reduced")[1])


def test_the_traced_factors_carry_the_determinant_to_the_end():
    swapped = 0
    for rows in _det_law_inputs():
        value, trace = det_with_trace(Matrix(rows))
        assert det(trace.replay()) == prod(map(row_op_det_effect, trace)) * value
        swapped += value != 0 and sum(isinstance(op, Swap) for op in trace) % 2
    assert swapped  # an odd number of swaps on a nonzero determinant is seen


def test_det_agreement_property():
    # row-reduction, cofactor recursion, and a permutation-sum oracle agree,
    # and the classic determinant identities hold
    rng = random.Random(9002)
    for _ in range(300):
        n = rng.randrange(1, 5)
        a = Matrix(oracles.rand_grid(rng, n, n))
        b = Matrix(oracles.rand_grid(rng, n, n))
        want = oracles.leibniz_det(a.entries)
        assert det(a) == want
        assert det_cofactor(a) == want
        assert det(a.transpose()) == want
        alpha = oracles.rand_fraction(rng)
        assert det(alpha * a) == alpha**n * want
        assert det(a @ b) == want * oracles.leibniz_det(b.entries)
        assert det(a @ b) == det(b @ a)


# ---- 2x2 shortcut ---------------------------------------------------------------


def test_inverse_2x2():
    a = Matrix.parse("3 2; -4 5")
    inv = inverse_2x2(a)
    assert inv == Matrix.parse("5/23 -2/23; 4/23 3/23")
    assert a @ inv == Matrix.identity(2)


def test_inverse_2x2_exercise():
    assert inverse_2x2(Matrix.parse("4 -2; -3 2")) == Matrix.parse("1 1; 3/2 2")


def test_inverse_2x2_guards():
    with pytest.raises(NotInvertible):
        inverse_2x2(Matrix.parse("2 3; 4 6"))
    with pytest.raises(WrongSize):
        inverse_2x2(Matrix.identity(3))


# ---- Cramer's rule --------------------------------------------------------------


def test_cramer_2x2():
    c = Matrix.parse("2 7; -10 3")
    assert det(c) == 76
    x = cramer_solve(c, [13, -4])
    assert x == (Q(67, 76), Q(122, 76))
    assert x[1] == Q(61, 38)


def test_cramer_3x3_matches_elimination():
    c = Matrix.parse("2 1 -1; -2 4 2; -2 -1 8")
    b = [2, 8, -2]
    x = cramer_solve(c, b)
    eliminated = solve(c, b)
    assert isinstance(eliminated, Unique)
    assert x == eliminated.values


def test_cramer_guards():
    with pytest.raises(SingularCoefficient):
        cramer_solve(Matrix.parse("2 3; 4 6"), [1, 1])
    with pytest.raises(NotSquare):
        cramer_solve(Matrix.parse("1 2 3; 4 5 6"), [1, 1])
    with pytest.raises(DimensionMismatch):
        cramer_solve(Matrix.identity(2), [1, 2, 3])


# ---- adjugate route --------------------------------------------------------------


def test_cofactor_matrix():
    a = Matrix.parse("1 0 2; 2 1 -2; 0 0 2")
    assert cofactor_matrix(a) == Matrix.parse("2 -4 0; 0 2 0; -2 6 1")


def test_adjoint_and_inverse():
    a = Matrix.parse("1 0 2; 2 1 -2; 0 0 2")
    adj = adjoint(a)
    assert adj == Matrix.parse("2 0 -2; -4 2 6; 0 0 1")
    assert a @ adj == det(a) * Matrix.identity(3)
    assert adj @ a == det(a) * Matrix.identity(3)
    assert inverse_adjoint(a) == Matrix.parse("1 0 -1; -2 1 3; 0 0 1/2")


def test_adjoint_guards():
    with pytest.raises(NotSquare):
        adjoint(Matrix.parse("1 2 3; 4 5 6"))
    with pytest.raises(WrongSize):
        adjoint(Matrix.parse("5"))
    with pytest.raises(NotInvertible):
        inverse_adjoint(Matrix.parse("2 3; 4 6"))
    with pytest.raises(NotSquare, match=r"^2x3 matrix has no inverse$"):
        inverse_adjoint(Matrix.parse("1 2 3; 4 5 6"))


def test_adjoint_identity_holds_even_when_singular():
    a = Matrix.parse("1 2 3; 2 4 6; 1 1 1")  # rank 2
    assert det(a) == 0
    assert a @ adjoint(a) == Matrix.zero(3, 3)


def test_one_by_one_adjoint_routes():
    # the size comes first, as for inverse_entry: a 1x1 is too small whatever its value
    for text in ("0", "5"):
        with pytest.raises(WrongSize):
            inverse_adjoint(Matrix.parse(text))
        with pytest.raises(WrongSize):
            inverse_entry(Matrix.parse(text), 0, 0)
    # the cofactor of a 1x1 is that of the empty minor, 1
    assert cramer_solve(Matrix.parse("4"), [2]) == (Q(1, 2),)
    assert cramer_solve(Matrix.parse("-1/3"), [0]) == (Q(0),)
    with pytest.raises(SingularCoefficient):
        cramer_solve(Matrix.parse("0"), [1])


# ---- cofactors against the per-minor definition -----------------------------------


def _grid_of_rank(rng, n, rank, denominators):
    """An n x n grid of rank ``rank``: an n x rank grid times a rank x n grid,
    drawn again until the rank is exact."""
    while True:
        left = oracles.rand_grid(rng, n, rank, denominators=denominators)
        right = oracles.rand_grid(rng, rank, n, denominators=denominators)
        grid = [
            [sum((left[i][k] * right[k][j] for k in range(rank)), Q(0)) for j in range(n)]
            for i in range(n)
        ]
        if oracles.rank(grid) == rank:
            return grid


def _minor(grid, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(grid) if k != i]


@pytest.mark.parametrize("entries", ["integer", "p/q"])
@pytest.mark.parametrize("deficiency", [0, 1, 2])
def test_cofactors_are_the_signed_minors(entries, deficiency):
    rng = random.Random(f"cofactors/{entries}/{deficiency}")
    denominators = (1,) if entries == "integer" else (1, 2, 3, 5, 7)
    for n in [*range(2, 9)] * 2:
        grid = _grid_of_rank(rng, n, n - deficiency, denominators)
        a = Matrix(grid)
        expected = [
            [(-1) ** (i + j) * oracles.det_by_elimination(_minor(grid, i, j)) for j in range(n)]
            for i in range(n)
        ]
        cof = cofactor_matrix(a)
        assert cof == Matrix(expected)
        d = oracles.det_by_elimination(grid)
        assert a @ adjoint(a) == adjoint(a) @ a == d * Matrix.identity(n)
        # Cramer's numerators: the determinants with column j replaced by b
        b = [oracles.rand_fraction(rng) for _ in range(n)]
        numerators = [
            oracles.det_by_elimination([row[:j] + [b_i] + row[j + 1:] for row, b_i in zip(grid, b)])
            for j in range(n)
        ]
        assert [sum(map(operator.mul, b, cof.col(j))) for j in range(n)] == numerators
        if deficiency:
            with pytest.raises(SingularCoefficient):
                cramer_solve(a, b)
            with pytest.raises(NotInvertible):
                inverse_entry(a, rng.randrange(n), rng.randrange(n))
        else:
            assert cramer_solve(a, b) == tuple(x / d for x in numerators)
            i, k = rng.randrange(n), rng.randrange(n)
            assert inverse_entry(a, i, k) == expected[k][i] / d


# ---- single inverse entries -------------------------------------------------------


def test_inverse_entry_4x4():
    a = Matrix.parse("2 0 -2 1; -2 1 2 4; -4 -1 3 0; 0 0 0 4")
    assert det(a) == -8
    # row 2, column 4 of the inverse, 0-based (1, 3)
    assert inverse_entry(a, 1, 3) == Q(-5, 4)
    assert inverse_gauss_jordan(a)[1, 3] == Q(-5, 4)


def test_inverse_entry_exercise():
    a = Matrix.parse("2 -4 2 1; -2 0 2 -1; 1 -2 12 4; -2 4 -2 12")
    assert det(a) == -1144
    assert inverse_entry(a, 1, 3) == Q(-7, 286)
    assert inverse_gauss_jordan(a)[1, 3] == Q(-7, 286)


def test_inverse_entry_rejects_rectangles():
    with pytest.raises(NotSquare):
        inverse_entry(Matrix.parse("1 2 3; 4 5 6"), 0, 0)


def test_inverse_entry_singular():
    with pytest.raises(NotInvertible):
        inverse_entry(Matrix.parse("2 3; 4 6"), 0, 0)


# ---- the big inverse-route agreement property -------------------------------------


def test_inverse_routes_agree_property():
    rng = random.Random(9003)
    for trial in range(200):
        n = 3 if trial % 2 == 0 else 4
        a = Matrix(oracles.rand_invertible_grid(rng, n))
        b = Matrix(oracles.rand_invertible_grid(rng, n))
        inv = inverse_gauss_jordan(a)
        assert inverse_adjoint(a) == inv
        assert all(
            inverse_entry(a, i, k) == inv[i, k]
            for i in range(n)
            for k in range(n)
        )
        assert inverse_gauss_jordan(a @ b) == inverse_gauss_jordan(b) @ inv
        assert inverse_gauss_jordan(a.transpose()) == inv.transpose()
        assert det(inv) == 1 / det(a)
        rhs = [oracles.rand_fraction(rng) for _ in range(n)]
        eliminated = solve(a, rhs)
        assert isinstance(eliminated, Unique)
        assert cramer_solve(a, rhs) == eliminated.values


def test_cofactor_calls_coerce_no_entry_the_library_built(monkeypatch):
    rng = random.Random(16003)
    a = inverse_gauss_jordan(Matrix(oracles.rand_invertible_grid(rng, 4)))
    assert any(x.denominator > 1 for row in a.entries for x in row)
    two = inverse_gauss_jordan(Matrix.parse("2 1/3; -1 4"))
    coefficients, constants = split_augmented(
        hstack(a, Matrix(oracles.rand_grid(rng, 4, 1))), 4
    )
    coerced = []
    checked = qlinalg.matrix.as_scalar
    monkeypatch.setattr(
        qlinalg.matrix, "as_scalar", lambda x: coerced.append(x) or checked(x)
    )
    cofactor_matrix(a)
    adjoint(a)
    inverse_2x2(two)
    assert isinstance(solve(coefficients, constants), Unique)
    assert coerced == []
