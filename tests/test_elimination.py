import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlinalg.elimination
from qlinalg import (
    AddMultiple,
    DimensionMismatch,
    FORMS,
    IndexOutOfRange,
    Inconsistent,
    Infinite,
    Matrix,
    NotInvertible,
    NotSquare,
    Scale,
    Swap,
    Trace,
    Unique,
    ZeroScale,
    apply_row_op,
    basis_of_span,
    cofactor_matrix,
    cramer_solve,
    det,
    det_cofactor,
    det_with_effects,
    eigenspace,
    elementary_matrix,
    extend_to_basis,
    from_basis_images,
    fundamental_subspaces,
    hstack,
    independence,
    inverse_adjoint,
    inverse_entry,
    inverse_gauss_jordan,
    invert_row_op,
    leaders,
    left_factor,
    parse_matrix_text,
    reduce,
    render_row_op,
    satisfies_form,
    solve,
    solve_with_trace,
    span_contains,
    split_augmented,
)

import oracles

Q = Fraction


def _augmented(text):
    m, boundary = parse_matrix_text(text)
    return split_augmented(m, boundary)


def _rand_op(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        alpha = 0
        while alpha == 0:
            alpha = oracles.rand_fraction(rng)
        return Scale(alpha, rng.randrange(n))
    if kind == 1:
        alpha = 0
        while alpha == 0:
            alpha = oracles.rand_fraction(rng)
        src = rng.randrange(n)
        tgt = rng.randrange(n)
        while tgt == src:
            tgt = rng.randrange(n)
        return AddMultiple(alpha, src, tgt)
    i = rng.randrange(n)
    k = rng.randrange(n)
    while k == i:
        k = rng.randrange(n)
    return Swap(i, k)


# ---- the operations themselves --------------------------------------------------


def test_op_validation():
    with pytest.raises(ZeroScale):
        Scale(0, 1)
    with pytest.raises(ZeroScale):
        AddMultiple(0, 0, 1)
    with pytest.raises(ValueError):
        AddMultiple(2, 1, 1)
    with pytest.raises(ValueError):
        Swap(2, 2)
    with pytest.raises(IndexOutOfRange):
        Scale(3, -1)
    with pytest.raises(IndexOutOfRange):
        Swap(-1, 2)


def test_op_scalars_are_coerced():
    assert Scale("1/3", 0).alpha == Q(1, 3)
    assert AddMultiple("-2", 0, 1).alpha == -2


def test_render_row_op():
    assert render_row_op(Scale(-2, 0)) == "-2R1"
    assert render_row_op(Scale(Q(1, 3), 0)) == "1/3R1"
    assert render_row_op(AddMultiple(-2, 0, 1)) == "-2R1+R2->R2"
    assert render_row_op(AddMultiple(1, 1, 2)) == "R2+R3->R3"
    assert render_row_op(AddMultiple(-1, 1, 0)) == "-R2+R1->R1"
    assert render_row_op(AddMultiple(Q(2, 3), 0, 1)) == "2/3R1+R2->R2"
    assert render_row_op(Swap(0, 2)) == "R1<->R3"


def test_apply_row_op_walkthrough():
    # scale, two additions, then a swap, tracked matrix by matrix
    z = Matrix.parse("1 2 3 4; 0 1 -1 2; 0 1 1 3")
    w = apply_row_op(z, Scale(-2, 0))
    assert w == Matrix.parse("-2 -4 -6 -8; 0 1 -1 2; 0 1 1 3")
    after2 = apply_row_op(w, AddMultiple(2, 0, 2))
    assert after2 == Matrix.parse("-2 -4 -6 -8; 0 1 -1 2; -4 -7 -11 -13")
    b = apply_row_op(after2, AddMultiple(-3, 0, 1))
    assert b == Matrix.parse("-2 -4 -6 -8; 6 13 17 26; -4 -7 -11 -13")
    c = apply_row_op(b, Swap(0, 2))
    assert c.row(0) == (-4, -7, -11, -13) and c.row(2) == (-2, -4, -6, -8)


def test_apply_row_op_rejects_out_of_range_rows():
    m = Matrix.parse("1 2; 3 4")
    with pytest.raises(IndexOutOfRange):
        apply_row_op(m, Scale(2, 5))


def test_elementary_matrices():
    assert elementary_matrix(Scale(-2, 0), 3) == Matrix.parse("-2 0 0; 0 1 0; 0 0 1")
    assert elementary_matrix(AddMultiple(2, 0, 2), 3) == Matrix.parse("1 0 0; 0 1 0; 2 0 1")
    assert elementary_matrix(AddMultiple(-3, 0, 1), 3) == Matrix.parse("1 0 0; -3 1 0; 0 0 1")
    assert elementary_matrix(Swap(0, 2), 3) == Matrix.parse("0 0 1; 0 1 0; 1 0 0")


def test_elementary_matrix_left_multiplies():
    z = Matrix.parse("1 2 3 4; 0 1 -1 2; 0 1 1 3")
    d = elementary_matrix(Scale(-2, 0), 3)
    assert d @ z == apply_row_op(z, Scale(-2, 0))


def test_invert_row_op():
    assert invert_row_op(Scale(-2, 0)) == Scale(Q(-1, 2), 0)
    assert invert_row_op(AddMultiple(2, 0, 2)) == AddMultiple(-2, 0, 2)
    assert invert_row_op(AddMultiple(-3, 0, 1)) == AddMultiple(3, 0, 1)
    assert invert_row_op(Swap(0, 2)) == Swap(0, 2)


def test_inverse_elementary_matrices():
    # undoing each walkthrough step, as elementary matrices
    assert elementary_matrix(invert_row_op(Scale(-2, 0)), 3) == Matrix.parse(
        "-1/2 0 0; 0 1 0; 0 0 1"
    )
    assert elementary_matrix(invert_row_op(AddMultiple(2, 0, 2)), 3) == Matrix.parse(
        "1 0 0; 0 1 0; -2 0 1"
    )
    assert elementary_matrix(invert_row_op(AddMultiple(-3, 0, 1)), 3) == Matrix.parse(
        "1 0 0; 3 1 0; 0 0 1"
    )


def test_elementary_law_property():
    # E(op) @ M == apply(op, M); the inverse op undoes it; E(inverse) = E^-1
    rng = random.Random(7001)
    for _ in range(300):
        m = Matrix(oracles.rand_grid(rng, 4, 5))
        op = _rand_op(rng, 4)
        e = elementary_matrix(op, 4)
        moved = apply_row_op(m, op)
        assert e @ m == moved
        back = invert_row_op(op)
        assert apply_row_op(moved, back) == m
        assert elementary_matrix(back, 4) @ e == Matrix.identity(4)


# ---- traces ---------------------------------------------------------------------


def test_trace_replay_and_left_factor():
    m = Matrix.parse("0 1 -1 1; -2 0 1 0; 0 -1 1 2")
    reduced, trace = reduce(m, "completely_reduced")
    assert trace.start == m and trace.end == reduced
    assert trace.replay() == reduced
    assert left_factor(trace) @ m == reduced
    # iterating yields the operations; each elementary matrix is derived
    product = Matrix.identity(m.rows)
    for op in trace:
        product = elementary_matrix(op, m.rows) @ product
    assert product == left_factor(trace)


def test_replay_builds_one_matrix(monkeypatch):
    m = Matrix.parse("0 1 -1 1; -2 0 1 0; 0 -1 1 2")
    _, trace = reduce(m)
    assert len(trace) > 3
    built = []
    start, trusted = Matrix.__init__, Matrix._of.__func__

    def counted(self, rows):
        built.append(rows)
        start(self, rows)

    def counted_trusted(cls, rows):
        built.append(rows)
        return trusted(cls, rows)

    # both constructors count: the user-facing one and the library's own
    monkeypatch.setattr(Matrix, "__init__", counted)
    monkeypatch.setattr(Matrix, "_of", classmethod(counted_trusted))
    assert trace.replay() == trace.end
    assert len(built) == 1
    factor = left_factor(trace)
    assert len(built) == 3  # and for the factor, the identity it starts from
    assert factor @ m == trace.end


def test_replay_checks_the_rows_of_every_operation():
    m = Matrix.parse("1 2; 3 4; 5 6")
    trace = Trace(m, m, (Scale(2, 0), Swap(0, 1), AddMultiple(1, 0, 2)))
    assert trace.replay(Matrix.parse("1 0; 0 1; 1 1")) == Matrix.parse("0 1; 2 0; 1 2")
    with pytest.raises(IndexOutOfRange):  # only the last operation reaches row 2
        trace.replay(Matrix.parse("1 2; 3 4"))


def test_left_factor_of_random_op_chains():
    rng = random.Random(7002)
    for _ in range(30):
        m = Matrix(oracles.rand_grid(rng, 3, 4))
        cur = m
        product = Matrix.identity(3)
        for _ in range(5):
            op = _rand_op(rng, 3)
            cur = apply_row_op(cur, op)
            product = elementary_matrix(op, 3) @ product
        assert product @ m == cur


# ---- reduction forms --------------------------------------------------------------


# staggered leaders, zero rows at the bottom
ECHELON_SAMPLE = Matrix.parse(
    "0 1 2 3 7; 0 0 1 5 6; 0 0 0 1 3; 0 0 0 0 1; 0 0 0 0 0; 0 0 0 0 0"
)
# zeros below each leader, but leaders out of order
UNSTAGGERED = Matrix.parse("0 1 0 0 1 1; 1 0 3 2 5 6; 0 0 0 0 0 1")
# zeros below and above each leader, leaders out of order
UNSTAGGERED_FULL = Matrix.parse("0 0 1 2 0; 1 5 0 2 0; 0 0 0 0 1")


def test_satisfies_form_examples():
    assert satisfies_form(UNSTAGGERED, "semi_reduced")
    assert satisfies_form(UNSTAGGERED, "reduced")
    assert not satisfies_form(UNSTAGGERED, "echelon")
    assert satisfies_form(ECHELON_SAMPLE, "echelon")
    assert satisfies_form(UNSTAGGERED_FULL, "completely_reduced")
    assert not satisfies_form(UNSTAGGERED_FULL, "reduced_echelon")
    staggered = apply_row_op(UNSTAGGERED_FULL, Swap(0, 1))
    assert satisfies_form(staggered, "reduced_echelon")
    # each condition failing alone: an entry below a leader, a leader other
    # than 1, an entry above a leader, a zero row above a nonzero one
    assert not satisfies_form(Matrix.parse("1 2; 3 4"), "semi_reduced")
    assert satisfies_form(Matrix.parse("2 0; 0 1"), "semi_reduced")
    assert not satisfies_form(Matrix.parse("2 0; 0 1"), "reduced")
    assert satisfies_form(Matrix.parse("1 2; 0 1"), "reduced")
    assert not satisfies_form(Matrix.parse("1 2; 0 1"), "completely_reduced")
    assert satisfies_form(Matrix.parse("0 0; 1 0"), "completely_reduced")
    assert not satisfies_form(Matrix.parse("0 0; 1 0"), "echelon")
    assert not satisfies_form(Matrix.parse("0 0; 1 0"), "reduced_echelon")


def test_swap_turns_reduced_into_echelon():
    result, trace = reduce(UNSTAGGERED, "echelon")
    assert trace.steps == (Swap(0, 1),)
    assert satisfies_form(result, "echelon")
    assert result.row(0) == (1, 0, 3, 2, 5, 6)


def test_zero_rows_sink_to_the_bottom():
    m = Matrix.parse("0 0; 1 2; 0 0; 3 4")
    result, _ = reduce(m, "echelon")
    assert result.row(2) == (0, 0) and result.row(3) == (0, 0)
    assert satisfies_form(result, "echelon")


def test_every_form_is_satisfied_by_its_own_output():
    rng = random.Random(7003)
    for _ in range(40):
        m = Matrix(oracles.rand_grid(rng, rng.randrange(1, 5), rng.randrange(1, 5)))
        for form in FORMS:
            result, trace = reduce(m, form)
            assert satisfies_form(result, form), (form, m)
            assert trace.replay() == result
            assert left_factor(trace) @ trace.start == trace.end


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        reduce(Matrix.identity(2), "upper_triangular")
    with pytest.raises(ValueError):
        satisfies_form(Matrix.identity(2), "diagonal")


def test_leaders():
    assert leaders(UNSTAGGERED) == ((0, 1), (1, 0), (2, 5))
    assert leaders(Matrix.zero(2, 3)) == ()


# ---- solving --------------------------------------------------------------------


def test_unique_solution_3x3():
    a, b = _augmented("1 1 -1 | 2; 2 -1 1 | 2; 0 -1 2 | 1")
    result = solve(a, b)
    assert isinstance(result, Unique)
    assert result.values == (Q(4, 3), Q(7, 3), Q(5, 3))


def test_unique_solution_2x2_with_trace():
    a, b = _augmented("3 2 | 5; -2 1 | -6")
    result, trace = solve_with_trace(a, b)
    assert result.values == (Q(17, 7), Q(-8, 7))
    assert [render_row_op(op) for op in trace.steps] == [
        "2/3R1+R2->R2",
        "1/3R1",
        "3/7R2",
        "-2/3R2+R1->R1",
    ]


def test_infinite_solutions_with_two_free_variables():
    a, b = _augmented(
        "0 1 -1 1 -1 | 1; -2 0 1 0 -1 | 0; 0 -1 1 2 -10 | 12"
    )
    result = solve(a, b)
    assert isinstance(result, Infinite)
    assert result.leading == (0, 1, 3)
    assert result.free == (2, 4)
    # x1 = (1/2)x3 - (1/2)x5; x2 = -10/3 + x3 - (8/3)x5; x4 = 13/3 + (11/3)x5
    assert result.constants == (0, Q(-10, 3), Q(13, 3))
    assert result.coefficients == (
        (Q(1, 2), Q(-1, 2)),
        (1, Q(-8, 3)),
        (0, Q(11, 3)),
    )
    assert result.particular() == (0, Q(-10, 3), 0, Q(13, 3), 0)
    assert result.at([1, 0]) == (Q(1, 2), Q(-7, 3), 1, Q(13, 3), 0)
    assert result.at({2: 1, 4: 0}) == result.at([1, 0])
    assert result.at(MappingProxyType({2: 1, 4: 0})) == result.at([1, 0])
    # a mapping gives exactly the free variables, a sequence one value each
    for assignment in ({2: 1}, {}, {2: 1, 4: 0, 0: 99}, {2: 1, 3: 0}, [1], [1, 0, 0]):
        with pytest.raises(DimensionMismatch, match=r"free variables \(2, 4\)"):
            result.at(assignment)


def test_inconsistent_keeps_the_raw_witness():
    a, b = _augmented("1 2 -1 | 2; 2 4 -2 | 6")
    result = solve(a, b)
    assert isinstance(result, Inconsistent)
    assert result.row == 1
    assert result.value == 2
    assert not result


def test_one_leading_two_free():
    a, b = _augmented("1 2 -1 | 2; 2 4 -2 | 4")
    result = solve(a, b)
    assert isinstance(result, Infinite)
    assert result.leading == (0,)
    assert result.free == (1, 2)
    # x1 = 2 - 2x2 + x3
    assert result.constants == (2,)
    assert result.coefficients == ((-2, 1),)
    assert result.at([0, 0]) == (2, 0, 0)


def test_homogeneous_system_is_consistent():
    a = Matrix.parse("2 -3 1; 1 1 -3; -1 3 -1")
    result = solve(a, [0, 0, 0])
    assert result
    if isinstance(result, Unique):
        assert result.values == (0, 0, 0)
    else:
        assert result.particular() == (0, 0, 0)


def test_solve_checks_vector_length():
    with pytest.raises(DimensionMismatch):
        solve(Matrix.identity(2), [1, 2, 3])


def test_resubstitution_property():
    # whatever solve() returns must satisfy the original equations
    rng = random.Random(7004)
    assignments_checked = 0
    for _ in range(120):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 6)
        a_grid = oracles.rand_grid(rng, n, m)
        a = Matrix(a_grid)
        b = [oracles.rand_fraction(rng) for _ in range(n)]
        result = solve(a, b)
        if isinstance(result, Inconsistent):
            continue
        if isinstance(result, Unique):
            candidates = [result.values]
        else:
            candidates = [result.particular()] + [
                result.at([oracles.rand_fraction(rng) for _ in result.free])
                for _ in range(3)
            ]
        for x in candidates:
            assert all(v == 0 for v in oracles.residual(a_grid, x, b))
            assignments_checked += 1
    assert assignments_checked > 100


def test_inconsistent_verdicts_are_genuine():
    # when solve says inconsistent, forcing the constants column into the
    # span of the coefficient columns must be impossible; spot-check by
    # perturbing b to a known-consistent right side and re-solving
    rng = random.Random(7005)
    seen = 0
    for _ in range(200):
        n, m = rng.randrange(2, 5), rng.randrange(1, 4)
        a_grid = oracles.rand_grid(rng, n, m)
        a = Matrix(a_grid)
        b = [oracles.rand_fraction(rng) for _ in range(n)]
        result = solve(a, b)
        if not isinstance(result, Inconsistent):
            continue
        seen += 1
        # a right side built from an actual x is always consistent
        x = [oracles.rand_fraction(rng) for _ in range(m)]
        good_b = [
            sum((a_grid[i][j] * x[j] for j in range(m)), Q(0)) for i in range(n)
        ]
        assert not isinstance(solve(a, good_b), Inconsistent)
    assert seen > 10


def _system_of_kind(rng, kind):
    """A random system built to be "unique", "infinite" or "inconsistent"."""
    n = rng.randrange(1, 5)
    if kind == "unique":
        a = Matrix(oracles.rand_invertible_grid(rng, n))
        x = [oracles.rand_fraction(rng) for _ in range(n)]
        return a, list((a @ Matrix.column_vector(x)).col(0))
    cols = rng.randrange(n + 1, n + 3) if kind == "infinite" else rng.randrange(1, 5)
    rows = oracles.rand_grid(rng, n, cols)
    x = [oracles.rand_fraction(rng) for _ in range(cols)]
    b = [sum((r[j] * x[j] for j in range(cols)), Q(0)) for r in rows]
    if kind == "inconsistent":
        # a row that combines the others, with a constant that breaks the combination
        weights = [oracles.rand_fraction(rng) for _ in range(n)]
        rows.append(
            [sum((w * r[j] for w, r in zip(weights, rows)), Q(0)) for j in range(cols)]
        )
        miss = rng.choice([-2, -1, 1, Q(1, 2)])
        b.append(sum((w * c for w, c in zip(weights, b)), Q(0)) + miss)
    return Matrix(rows), b


def test_solve_trace_is_the_reduction_trace():
    rng = random.Random(7007)
    for kind, expected in (
        ("unique", Unique), ("infinite", Infinite), ("inconsistent", Inconsistent)
    ):
        for _ in range(60):
            a, b = _system_of_kind(rng, kind)
            result, trace = solve_with_trace(a, b)
            assert isinstance(result, expected), (kind, a, b)
            aug = hstack(a, Matrix.column_vector(b))
            form = "semi_reduced" if kind == "inconsistent" else "completely_reduced"
            end, reference = reduce(aug, form)
            assert trace.start == aug
            assert trace.steps == reference.steps
            assert trace.end == end
            if kind == "inconsistent":
                assert end[result.row, a.cols] == result.value != 0


def test_untraced_answers_never_build_elementary_matrices(monkeypatch):
    def refuse(op, n):
        raise AssertionError("an untraced answer built an elementary matrix")

    monkeypatch.setattr(qlinalg.elimination, "elementary_matrix", refuse)
    a = Matrix.parse("2 1 0; 1 3 1; 0 1 4")
    assert det(a) == 18
    assert inverse_gauss_jordan(a) @ a == Matrix.identity(3)
    assert solve(a, [3, 5, 5]) == Unique((Q(1), Q(1), Q(1)))
    singular = Matrix.parse("1 2 3; 2 4 6; 1 0 1")
    assert fundamental_subspaces(singular).nullity == 1
    assert eigenspace(Matrix.parse("2 0 1; 0 1 -2; 0 0 -1"), 2).basis == ((1, 0, 0),)


# ---- the engine against an independent Fraction elimination ------------------------

_DENOMINATORS = (1, 2, 3, 5, 7)
_SHAPES = ((1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (2, 5), (3, 6), (5, 2), (6, 3))
_KINDS = ("dense", "zero", "rank_deficient", "zero_column", "forced_swap", "sparse")
_STAGE = {
    "semi_reduced": 0,
    "echelon": 0,
    "reduced": 1,
    "reduced_echelon": 2,
    "completely_reduced": 2,
}


def _shaped_grid(rng, rows, cols, kind):
    """A random grid with denominators in {1,2,3,5,7}, bent into ``kind``."""
    grid = oracles.rand_grid(rng, rows, cols, lo=-9, hi=9, denominators=_DENOMINATORS)
    if kind == "zero":
        grid = [[Q(0)] * cols for _ in range(rows)]
    elif kind == "rank_deficient":
        for i in range(1 + rows // 2, rows):
            w = oracles.rand_fraction(rng, denominators=_DENOMINATORS)
            other = grid[rng.randrange(i)]
            grid[i] = [x + w * y for x, y in zip(grid[i - 1], other)]
    elif kind == "zero_column":
        j = rng.randrange(cols)
        for row in grid:
            row[j] = Q(0)
    elif kind == "forced_swap":
        for row in grid[:-1]:
            row[0] = Q(0)
    elif kind == "sparse":
        grid = [[x if rng.random() < 0.4 else Q(0) for x in row] for row in grid]
    return grid


def _plain_op(op):
    if isinstance(op, Scale):
        return ("scale", op.alpha, op.row)
    if isinstance(op, AddMultiple):
        return ("add", op.alpha, op.source, op.target)
    return ("swap", op.first, op.second)


def _assert_trace_is(trace, reference) -> None:
    ops, end, _ = reference
    assert repr([_plain_op(op) for op in trace]) == repr(ops)
    assert repr(trace.end.entries) == repr(end)


def _plain_solution(result):
    if isinstance(result, Inconsistent):
        return ("inconsistent", result.row, result.value)
    if isinstance(result, Unique):
        return ("unique", result.values)
    return ("infinite", result.leading, result.free, result.constants, result.coefficients)


def _assert_matches_oracle(a: Matrix, b) -> None:
    """Traced operations and end matrices equal the oracle's elimination repr
    for repr; untraced answers equal what the oracle reads off it."""
    rows = a.entries
    for form in FORMS:
        _assert_trace_is(reduce(a, form)[1], oracles.eliminate(rows, _STAGE[form]))

    expected = oracles.solve_by_elimination(rows, b)
    answer, trace = solve_with_trace(a, b)
    aug = [list(row) + [c] for row, c in zip(rows, b)]
    stage = 0 if expected[0] == "inconsistent" else 2
    _assert_trace_is(trace, oracles.eliminate(aug, stage))
    assert repr(_plain_solution(answer)) == repr(expected)
    assert repr(_plain_solution(solve(a, b))) == repr(expected)

    if a.is_square:
        value = oracles.det_by_elimination(rows)
        assert repr(det(a)) == repr(value)
        traced_value, _, trace = det_with_effects(a)
        assert repr(traced_value) == repr(value)
        _assert_trace_is(trace, oracles.eliminate(rows, 0))
        inverse = oracles.inverse_by_elimination(rows)
        if inverse is None:
            with pytest.raises(NotInvertible):
                inverse_gauss_jordan(a)
        else:
            assert repr(inverse_gauss_jordan(a).entries) == repr(inverse)

    vanished = oracles.first_vanishing(rows)
    verdict = independence(rows)
    if vanished is None:
        assert verdict
    else:
        op = verdict.op and _plain_op(verdict.op)
        assert repr((verdict.row, op)) == repr(vanished)

    _, semi, pivots = oracles.eliminate(rows, 0)
    swept = semi[: len(pivots)]
    spaces = fundamental_subspaces(a)
    assert repr(spaces.row.basis) == repr(swept)
    assert spaces.column.basis == tuple(a.col(j) for _, j in pivots)
    assert repr(spaces.null.basis) == repr(oracles.null_basis(rows))
    assert (spaces.rank, spaces.nullity) == (len(pivots), a.cols - len(pivots))
    assert repr(basis_of_span(rows).basis) == repr(swept)


@pytest.mark.parametrize("kind", _KINDS)
def test_fraction_free_answers_equal_the_fraction_route(kind):
    rng = random.Random(f"engines/{kind}")
    for _ in range(4):
        for rows, cols in _SHAPES:
            a = Matrix(_shaped_grid(rng, rows, cols, kind))
            b = [oracles.rand_fraction(rng, denominators=_DENOMINATORS) for _ in range(rows)]
            _assert_matches_oracle(a, b)
            _assert_matches_oracle(a, [Q(0)] * rows)


_entries = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-9, 9), st.sampled_from(_DENOMINATORS)),
)


@st.composite
def _systems(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    b = draw(st.lists(_entries, min_size=rows, max_size=rows))
    return Matrix(grid), b


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_fraction_free_answers_equal_the_fraction_route_property(system):
    _assert_matches_oracle(*system)


# ---- the back-substitution reader --------------------------------------------------


def _rank_grid(rng, rows, cols, rank):
    """A rows x cols grid of rank ``rank``: the product of random p/q grids of
    shapes rows x rank and rank x cols, drawn again until the rank is exact."""
    while True:
        left = oracles.rand_grid(rng, rows, rank, denominators=_DENOMINATORS)
        right = oracles.rand_grid(rng, rank, cols, denominators=_DENOMINATORS)
        grid = oracles.naive_matmul(left, right)
        if oracles.rank(grid) == rank:
            return grid


def _reader_grid(rng, kind):
    if kind == "wide":
        return oracles.rand_grid(rng, 3, 7, denominators=_DENOMINATORS)
    if kind == "tall":
        return oracles.rand_grid(rng, 7, 3, denominators=_DENOMINATORS)
    if kind == "square":
        return oracles.rand_grid(rng, 5, 5, lo=-99, hi=99)
    if kind in ("rank n-1", "rank n-2"):
        n = rng.randrange(3, 7)
        return _rank_grid(rng, n, n, n - int(kind[-1]))
    if kind == "zero columns":
        grid = _rank_grid(rng, 4, 6, 3)
        for j in rng.sample(range(6), 2):
            for row in grid:
                row[j] = Q(0)
        return grid
    if kind == "sparse":
        return _shaped_grid(rng, 5, 6, "sparse")
    return [[Q(0)] * 4 for _ in range(3)]


_READER_KINDS = ("wide", "tall", "square", "rank n-1", "rank n-2", "zero columns", "sparse", "zero")


@pytest.mark.parametrize("kind", _READER_KINDS)
def test_reader_gives_the_completely_reduced_pivot_rows(kind):
    rng = random.Random(f"reader/{kind}")
    for _ in range(12):
        rows = _reader_grid(rng, kind)
        run = qlinalg.elimination._FractionFree(Matrix(rows))
        _, full, pivots = oracles.eliminate(rows, 2)
        expected = [list(row) for row in full[: len(pivots)]]
        assert repr(run.reduced(range(len(rows[0])))) == repr(expected)
        # Any columns, in any order, are the same entries.
        cols = rng.sample(range(len(rows[0])), rng.randrange(len(rows[0]) + 1))
        assert run.reduced(cols) == [[row[j] for j in cols] for row in expected]
        # The reader's floor divisions are exact because last * R is integral.
        assert all((run.last * x).denominator == 1 for row in full for x in row)


@pytest.mark.parametrize("kind", _KINDS + ("wide_full_rank",))
def test_run_records_its_pivot_columns_free_columns_and_pivot_minor(kind):
    rng = random.Random(f"engine/{kind}")
    for _ in range(40):
        if kind == "wide_full_rank":  # the rows run out before the columns
            rows, cols = sorted(rng.sample(range(1, 7), 2))
            grid = _rank_grid(rng, rows, cols, rows)
        else:
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            grid = _shaped_grid(rng, rows, cols, kind)
        run = qlinalg.elimination._FractionFree(Matrix(grid))
        assert run.pivots == sorted(run.pivots) and run.free == sorted(run.free)
        assert sorted(run.pivots + run.free) == list(range(cols))
        assert run.pivots == [j for _, j in oracles.eliminate(grid, 0)[2]]
        expected = Q(0)
        if len(run.pivots) == rows:
            expected = det_cofactor(Matrix([[row[j] for j in run.pivots] for row in grid]))
        minor = run.minor()
        assert isinstance(minor, Fraction) and minor == expected


def _order_grids():
    """Seeded grids of every ``_KINDS`` bend in every ``_SHAPES`` shape (wide
    and tall included), then the same shapes with 64- to 200-bit numerators,
    about one entry in three zero."""
    rng = random.Random("engine/order")
    for kind in _KINDS:
        for rows, cols in _SHAPES:
            yield _shaped_grid(rng, rows, cols, kind)
    for bits in (64, 128, 200):
        for rows, cols in _SHAPES:
            yield [
                [Q(rng.getrandbits(bits) * rng.choice((1, -1)), rng.choice(_DENOMINATORS))
                 if rng.random() < 0.65 else Q(0) for _ in range(cols)]
                for _ in range(rows)
            ]


def test_order_names_the_input_row_now_at_each_row():
    swapped = 0
    for grid in _order_grids():
        run = qlinalg.elimination._FractionFree(Matrix(grid))
        assert sorted(run.order) == list(range(len(grid)))
        # the rows taken in that order need no swap and sweep to the same rows
        again = qlinalg.elimination._FractionFree(Matrix([grid[i] for i in run.order]))
        assert not any(isinstance(op, Swap) for op in again.ops(0))
        assert again.pivots == run.pivots
        rank = range(len(run.pivots))
        assert list(map(again.swept_row, rank)) == list(map(run.swept_row, rank))
        swapped += run.order != sorted(run.order)
    assert swapped >= 20


def test_reader_asks_only_for_the_columns_it_is_given(monkeypatch):
    built = []
    monkeypatch.setattr(
        qlinalg.elimination, "_ratio", lambda *a: built.append(a) or Fraction(*a)
    )
    a = Matrix.parse("2 1 0 1; 1 3 1 0; 0 1 4 5")
    run = qlinalg.elimination._FractionFree(a)
    built.clear()
    full = oracles.eliminate(a.entries, 2)[1]
    assert run.reduced((3, 1)) == [[row[3], row[1]] for row in full]
    assert len(built) == 6


# ---- a differential of the answers against the oracles --------------------------


def _system(rng, kind):
    """A p/q system ``(a, b)`` whose solution set is of the named kind."""
    n = rng.randrange(1, 6)
    if kind == "unique":
        a = _rank_grid(rng, n, n, n)
        return a, [oracles.rand_fraction(rng, denominators=_DENOMINATORS) for _ in range(n)]
    cols = rng.randrange(2, 7)
    rank = rng.randrange(1, cols)
    rows = rank + rng.randrange(1, 3) if kind == "inconsistent" else rng.randrange(1, 6)
    rank = min(rank, rows)
    a = _rank_grid(rng, rows, cols, rank)
    x = [oracles.rand_fraction(rng, denominators=_DENOMINATORS) for _ in range(cols)]
    b = [sum((p * q for p, q in zip(row, x)), Q(0)) for row in a]
    if kind == "inconsistent":
        # a has more rows than its rank: a left null vector y exists, and a
        # constant with y . b != 0 has no solution.
        while oracles.rank([row + [c] for row, c in zip(a, b)]) == rank:
            b[rng.randrange(rows)] += oracles.rand_fraction(rng, lo=1, hi=6)
    return a, b


@pytest.mark.parametrize("kind", ("unique", "infinite", "inconsistent"))
def test_answers_equal_the_oracles_on_seeded_systems(kind):
    rng = random.Random(f"differential/{kind}")
    for _ in range(110):
        rows, b = _system(rng, kind)
        expected = oracles.solve_by_elimination(rows, b)
        assert expected[0] == kind
        a = Matrix(rows)
        assert repr(_plain_solution(solve(a, b))) == repr(expected)
        assert repr(_plain_solution(solve_with_trace(a, b)[0])) == repr(expected)
        assert repr(fundamental_subspaces(a).null.basis) == repr(oracles.null_basis(rows))
        if a.is_square:
            inverse = oracles.inverse_by_elimination(rows)
            if inverse is None:
                with pytest.raises(NotInvertible):
                    inverse_gauss_jordan(a)
            else:
                assert repr(inverse_gauss_jordan(a).entries) == repr(inverse)


_A = Matrix.parse("2 1 0; 1 3 1; 0 1 4")
_PLANE_A = basis_of_span([(1, 0, 1, 0), (0, 1, 0, 1)])
_PLANE_B = basis_of_span([(1, 1, 1, 1), (1, -1, 1, -1)])
_ZERO = basis_of_span([(0, 0, 0, 0)])

# Each question and the number of reductions it costs.
_REDUCTIONS = {
    "extend_to_basis": (
        lambda: extend_to_basis([(0, 2, 1, 4), (0, -2, 3, -10)]),
        1,
    ),
    "same_space": (lambda: _PLANE_A.same_space(_PLANE_B), 1),
    "same_space, zero": (lambda: _ZERO.same_space(_ZERO), 0),
    # one reduction of [basis | q] answers inside, outside and the zero subspace
    "span_contains": (lambda: span_contains(_PLANE_A, (2, -3, 2, -3)), 1),
    "span_contains, outside": (lambda: span_contains(_PLANE_A, (1, 0, 0, 0)), 1),
    "span_contains, zero": (lambda: span_contains(_ZERO, (0, 0, 0, 0)), 1),
    "from_basis_images": (
        lambda: from_basis_images([((2, 0), (0, 1)), ((-1, 1), (2, 1))]),
        1,
    ),
    "independence": (
        lambda: independence([(1, 0, -2), (-2, 2, 1), (-1, 0, 5)]),
        1,
    ),
    "independence, dependent": (
        lambda: independence([(1, -2, 4, 6), (-1, 2, 0, 2), (1, -2, 8, 14)]),
        1,
    ),
    "independence, emptied row swapped down": (
        lambda: independence([(1, 1, 0), (1, 1, 0), (0, 0, 1)]),
        1,
    ),
    "solve": (lambda: solve(_A, [3, 5, 5]), 1),
    "fundamental_subspaces": (
        lambda: fundamental_subspaces(Matrix.parse("1 2 3; 2 4 6")),
        1,
    ),
    "basis_of_span": (
        lambda: basis_of_span([(1, 2, 3), (2, 4, 6), (0, 1, 1)]),
        1,
    ),
    "det": (lambda: det(_A), 1),
    "inverse_gauss_jordan": (lambda: inverse_gauss_jordan(_A), 1),
    "eigenspace": (
        lambda: eigenspace(Matrix.parse("2 0 1; 0 1 -2; 0 0 -1"), 2),
        1,
    ),
    "solve_with_trace": (lambda: solve_with_trace(_A, [3, 5, 5]), 1),
    "solve_with_trace, inconsistent": (
        lambda: solve_with_trace(Matrix.parse("1 2; 2 4"), [1, 3]),
        1,
    ),
    "reduce": (lambda: reduce(_A), 1),
    "det_with_effects": (lambda: det_with_effects(_A), 1),
    # the adjoint route: one reduction per row of cofactors, 3 rows in _A
    "cofactor_matrix": (lambda: cofactor_matrix(_A), 3),
    "inverse_entry": (lambda: inverse_entry(_A, 0, 2), 1),
    "cramer_solve": (lambda: cramer_solve(_A, [3, 5, 5]), 3),
    # det(A) read off the first cofactor row, not reduced again
    "inverse_adjoint": (lambda: inverse_adjoint(_A), 3),
}


@pytest.mark.parametrize("name", _REDUCTIONS)
def test_each_question_runs_the_expected_number_of_reductions(monkeypatch, name):
    question, expected = _REDUCTIONS[name]
    engine = qlinalg.elimination._FractionFree
    runs = []

    def counted(self, *args, _start=engine.__init__, **kwargs):
        runs.append(args)
        _start(self, *args, **kwargs)

    monkeypatch.setattr(engine, "__init__", counted)
    question()
    assert len(runs) == expected


# ---- inversion via [A | I] ---------------------------------------------------------


def test_inverse_2x2_by_row_reduction():
    a = Matrix.parse("2 1; 4 0")
    assert inverse_gauss_jordan(a) == Matrix.parse("0 1/4; 1 -1/2")


def test_inverse_3x3_by_row_reduction():
    a = Matrix.parse("1 0 2; 0 1 0; 0 -1 1")
    inv = inverse_gauss_jordan(a)
    assert inv == Matrix.parse("1 -2 -2; 0 1 0; 0 1 1")
    assert a @ inv == Matrix.identity(3)
    assert inv @ a == Matrix.identity(3)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(NotInvertible):
        inverse_gauss_jordan(Matrix.parse("1 2; 2 4"))
    with pytest.raises(NotSquare):
        inverse_gauss_jordan(Matrix.parse("1 2 3; 4 5 6"))


def test_inverse_round_trip_property():
    rng = random.Random(7006)
    for _ in range(40):
        grid = oracles.rand_invertible_grid(rng, 3)
        a = Matrix(grid)
        inv = inverse_gauss_jordan(a)
        assert a @ inv == Matrix.identity(3)
        assert inverse_gauss_jordan(inv) == a
