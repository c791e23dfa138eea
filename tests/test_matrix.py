import random
from fractions import Fraction

import pytest

import qlinalg.matrix
from qlinalg import (
    Combination,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    MalformedScalar,
    Matrix,
    NotSquare,
    Polynomial,
    RaggedRows,
    Scale,
    Subspace,
    SymmetryClass,
    ZeroDenominator,
    as_scalar,
    as_vector,
    classify_symmetry,
    elementary_matrix,
    hstack,
    integral_functional,
    matrix_power,
    parse_matrix_text,
    parse_scalar,
    poly_to_coords,
    product_as_combination,
    rational_roots,
    render_block,
    render_inline,
    split_augmented,
    sym_skew_decompose,
)

import oracles

Q = Fraction


# ---- parsing -----------------------------------------------------------------


def test_parse_rows_and_entries():
    m = Matrix.parse("1 2 3; 4 5 6")
    assert m.rows == 2 and m.cols == 3
    assert m[1, 2] == 6


def test_parse_newlines_and_fractions():
    m = Matrix.parse("1/2 -3\n0.25 7")
    assert m.entries == ((Q(1, 2), Q(-3)), (Q(1, 4), Q(7)))


def test_parse_ragged_rejected():
    with pytest.raises(RaggedRows):
        Matrix.parse("1 2; 3")


def test_parse_empty_rejected():
    with pytest.raises(EmptyInput):
        Matrix.parse("   ")


def test_parse_matrix_text_augmented():
    m, boundary = parse_matrix_text("1 2 | 3; 4 5 | 6")
    assert boundary == 2
    a, b = split_augmented(m, boundary)
    assert a == Matrix.parse("1 2; 4 5")
    assert b == Matrix.parse("3; 6")


def test_parse_matrix_text_misplaced_bar():
    with pytest.raises(RaggedRows) as err:
        parse_matrix_text("1 | 2 3; 4 5 | 6")
    assert str(err.value) == "the '|' must sit in the same place in every row"


def test_plain_parse_rejects_bar():
    with pytest.raises(RaggedRows) as err:
        Matrix.parse("1 | 2")
    assert str(err.value) == "unexpected '|' in a plain (non-augmented) matrix"


def test_parse_reads_every_entry_before_it_compares_row_widths():
    with pytest.raises(MalformedScalar) as bad:
        parse_matrix_text("1 x; 3")
    assert str(bad.value) == "not an exact scalar: 'x'"
    with pytest.raises(RaggedRows) as ragged:
        parse_matrix_text("1 2; 3")
    assert str(ragged.value) == "rows of unequal length"


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 | 2 | 3", "more than one '|' in row '1 | 2 | 3'"),
        ("1 2 |", "'|' with an empty side in row '1 2 |'"),
        ("| 1; 2 | 3", "'|' with an empty side in row '| 1'"),
        ("1 | 2; 3 4", "the '|' must sit in the same place in every row"),
        # a row's bar is checked before any entry is read, in row order
        ("x 1; 1 | 2 | 3", "more than one '|' in row '1 | 2 | 3'"),
        ("1 | x; 2 3 | 4", "the '|' must sit in the same place in every row"),
        ("1 | 2; 3 || 4", "more than one '|' in row '3 || 4'"),
        ("1 |; 1 | 2 | 3", "'|' with an empty side in row '1 |'"),
    ],
)
def test_every_bar_error_keeps_its_message(text, message):
    with pytest.raises(RaggedRows) as err:
        parse_matrix_text(text)
    assert str(err.value) == message


def _token(rng, q):
    """A spelling of ``q`` the reader accepts: an integer, signed or not, a
    two-place decimal, or an unreduced p/q."""
    form = rng.randrange(3)
    if form == 0 and q.denominator == 1:
        return rng.choice(["", "+"] if q >= 0 else [""]) + str(q.numerator)
    if form == 1 and 100 % q.denominator == 0:
        n = q.numerator * (100 // q.denominator)
        return f"{'-' if n < 0 else rng.choice(['', '+'])}{abs(n) // 100}.{abs(n) % 100:02d}"
    k = rng.randint(1, 3)
    return f"{q.numerator * k}/{q.denominator * k}"


def test_parsed_entries_are_fractions_and_match_a_checked_matrix():
    rng = random.Random(17)
    for trial in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        values = oracles.rand_grid(rng, rows, cols)
        grid = [[_token(rng, q) for q in row] for row in values]
        bar = rng.randint(1, cols - 1) if cols > 1 and trial % 2 else None
        lines = [
            " ".join(r) if bar is None else f"{' '.join(r[:bar])} | {' '.join(r[bar:])}"
            for r in grid
        ]
        text = rng.choice(["; ", "\n", " ;\n  "]).join(lines)
        m, boundary = parse_matrix_text(text)
        assert boundary == bar
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert m == Matrix(grid)
        assert m.entries == tuple(map(tuple, values))


def _recurring_text(rng):
    """A seeded matrix text, with or without a bar, drawn from a small pool of
    spellings so that tokens recur: integers, p/q, decimals, 64- to 200-bit
    integers, and equal values written differently.  Returns the text, the
    token grid and the bar."""
    big = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(64, 200))
    pool = [
        str(rng.randint(-9, 9)),
        f"{rng.randint(-20, 20)}/{rng.randint(1, 12)}",
        f"{rng.choice(['', '-'])}{rng.randint(0, 9)}.{rng.randint(0, 99):02d}",
        str(big), f"{big}/1",
        "2/4", "1/2", "0.5", "+3", "3", "-0", "0", "0/7",
    ]
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    grid = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
    bar = rng.randint(1, cols - 1) if cols > 1 and rng.randrange(2) else None
    lines = [
        " ".join(r) if bar is None else f"{' '.join(r[:bar])} | {' '.join(r[bar:])}"
        for r in grid
    ]
    return rng.choice(["; ", "\n"]).join(lines), grid, bar


def _counted_parse_scalar(monkeypatch) -> list[str]:
    """Replace the matrix reader's scalar parser by one that records each call."""
    calls: list[str] = []

    def counted(text):
        calls.append(text)
        return parse_scalar(text)

    monkeypatch.setattr(qlinalg.matrix, "parse_scalar", counted)
    return calls


def test_parse_reads_each_distinct_token_once(monkeypatch):
    calls = _counted_parse_scalar(monkeypatch)
    m, boundary = parse_matrix_text("1 2/4 1 | 0; 1/2 2/4 -0 | 0; 1 1 1 | 1")
    assert boundary == 3
    assert calls == ["1", "2/4", "0", "1/2", "-0"]
    # equal tokens share one Fraction; equal values written differently are equal
    assert m[0, 0] is m[2, 3] and m[0, 1] is m[1, 1]
    assert m[0, 1] == m[1, 0] == Q(1, 2) and m[1, 2] == m[1, 3] == 0


def test_parse_of_recurring_tokens_matches_the_per_token_parse(monkeypatch):
    calls = _counted_parse_scalar(monkeypatch)
    rng = random.Random(25)
    for _ in range(150):
        text, grid, bar = _recurring_text(rng)
        calls.clear()
        m, boundary = parse_matrix_text(text)
        assert boundary == bar
        assert m.entries == tuple(tuple(parse_scalar(t) for t in r) for r in grid)
        assert sorted(calls) == sorted({t for r in grid for t in r})


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("1 x; x 1/0", MalformedScalar, "not an exact scalar: 'x'"),
        ("1/0 2; 3 1/0", ZeroDenominator, "zero denominator in '1/0'"),
        ("1 1/0; x x", ZeroDenominator, "zero denominator in '1/0'"),
    ],
)
def test_a_recurring_bad_token_raises_the_first_error_in_reading_order(text, error, message):
    with pytest.raises(error) as err:
        parse_matrix_text(text)
    assert str(err.value) == message


# ---- constructors and access -------------------------------------------------


def test_a_user_built_matrix_still_checks_every_entry():
    assert Matrix([["1/2", 3]]).entries == ((Q(1, 2), Q(3)),)
    with pytest.raises(TypeError):
        Matrix([[1, 0.5]])
    with pytest.raises(TypeError):
        Matrix([[1, True]])
    with pytest.raises(RaggedRows):
        Matrix([[1, 2], [3]])
    for empty in ([], [[]]):
        with pytest.raises(EmptyInput):
            Matrix(empty)
    # the library-built results of a user's matrix keep the same guarantees
    with pytest.raises(EmptyInput):
        Matrix([[1, 2]]).drop(row=0)
    with pytest.raises(EmptyInput):
        Matrix([[1], [2]]).drop(col=0)


def test_identity_and_zero():
    assert Matrix.identity(3) == Matrix.parse("1 0 0; 0 1 0; 0 0 1")
    assert Matrix.zero(2, 3) == Matrix.parse("0 0 0; 0 0 0")


def test_vector_constructors():
    assert Matrix.row_vector([1, 2]).rows == 1
    assert Matrix.column_vector([1, 2]).cols == 1
    assert Matrix.from_columns([(1, 2), (3, 4)]) == Matrix.parse("1 3; 2 4")


def test_indexing_bounds():
    m = Matrix.parse("1 2; 3 4")
    assert m.row(1) == (3, 4)
    assert m.col(0) == (1, 3)
    with pytest.raises(IndexOutOfRange):
        m.row(2)
    with pytest.raises(IndexOutOfRange):
        m[0, 5]


_M3 = Matrix.parse("1 2 3; 4 5 6; 7 8 10")


@pytest.mark.parametrize(
    "read",
    [
        lambda i: _M3[i, 0],
        lambda i: _M3[0, i],
        _M3.row,
        _M3.col,
        lambda i: _M3.drop(row=i),
        lambda i: _M3.drop(col=i),
        lambda i: _M3.take_columns(i, 3),
        lambda i: _M3.take_columns(0, i),
    ],
    ids=["getitem-row", "getitem-col", "row", "col", "drop-row", "drop-col",
         "take_columns-start", "take_columns-stop"],
)
@pytest.mark.parametrize(
    "index", [True, False, 1.0, Q(1), "1"], ids=["True", "False", "float", "Fraction", "str"]
)
def test_matrix_indices_refuse_what_is_not_an_int(read, index):
    with pytest.raises(TypeError, match="index must be an int"):
        read(index)


# a size, a dimension or an exponent, each call's answer for the int 1
_SIZED = {
    "identity": (Matrix.identity, Matrix.parse("1")),
    "zero-rows": (lambda v: Matrix.zero(v, 2), Matrix.parse("0 0")),
    "zero-cols": (lambda v: Matrix.zero(2, v), Matrix.parse("0; 0")),
    "pow": (lambda v: _M3 ** v, _M3),
    "matrix_power": (lambda v: matrix_power(_M3, v), _M3),
    "elementary_matrix": (lambda v: elementary_matrix(Scale(2, 0), v), Matrix.parse("2")),
    "integral_functional": (lambda v: integral_functional(v).matrix, Matrix.parse("1")),
    "Polynomial.coefficient": (Polynomial([1, 2, 3]).coefficient, 2),
    "Subspace.zero": (lambda v: Subspace.zero(v).ambient, 1),
    "poly_to_coords": (lambda v: poly_to_coords(Polynomial([5]), v), (5,)),
}


@pytest.mark.parametrize("name", _SIZED)
@pytest.mark.parametrize(
    "value", [True, False, 1.0, Q(1), "1"], ids=["True", "False", "float", "Fraction", "str"]
)
def test_sizes_and_exponents_refuse_what_is_not_an_int(name, value):
    call, at_one = _SIZED[name]
    assert call(1) == at_one
    with pytest.raises(TypeError, match="must be an int"):
        call(value)


def test_equality_and_hash():
    a = Matrix.parse("1 2; 3 4")
    b = Matrix([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert a != Matrix.parse("1 2; 3 5")
    assert a != "not a matrix"


def test_as_vector_accepts_many_shapes():
    want = (Q(1), Q(2), Q(3))
    assert as_vector([1, 2, 3]) == want
    assert as_vector("1 2 3") == want
    assert as_vector(Matrix.row_vector([1, 2, 3])) == want
    assert as_vector(Matrix.column_vector([1, 2, 3])) == want
    with pytest.raises(DimensionMismatch):
        as_vector(Matrix.parse("1 2; 3 4"))


# ---- arithmetic --------------------------------------------------------------

# the three matrices used for the scaling/addition walkthrough
A123 = Matrix.parse("2 1 3; 0 1 5")
B123 = Matrix.parse("1 2; 6 1; 3 1")
C123 = Matrix.parse("-3 2 5; 1 7 3")


def test_scalar_multiple():
    assert 3 * A123 == Matrix.parse("6 3 9; 0 3 15")
    assert A123 * 3 == 3 * A123
    assert A123 * Q(1, 2) == Matrix.parse("1 1/2 3/2; 0 1/2 5/2")


def test_addition_needs_matching_shapes():
    with pytest.raises(DimensionMismatch):
        A123 + B123


def test_combined_scale_and_subtract():
    assert 3 * A123 - 2 * C123 == Matrix.parse("12 -1 -1; -2 -11 9")


def test_negation():
    assert -A123 + A123 == Matrix.zero(2, 3)


# product of a 3x2 and a 2x3, checked entry by entry
A33 = Matrix.parse("1 2; 3 6; 1 1")
B33 = Matrix.parse("1 1 1; 0 2 1")


def test_product_both_orders():
    ab = A33 @ B33
    assert ab == Matrix.parse("1 5 3; 3 15 9; 1 3 2")
    assert ab[1, 2] == 9
    assert B33 @ A33 == Matrix.parse("5 9; 7 13")


def test_product_of_nonzero_matrices_can_vanish():
    a = Matrix.parse("1 0; 0 0")
    b = Matrix.parse("0 0; 1 0")
    assert a @ b == Matrix.zero(2, 2)
    assert b @ a == b


def test_product_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        A123 @ C123


def test_rectangular_products():
    f = Matrix.parse("-1 2 -1 3; 0 1 1 1; -2 0 -1 1")
    h = Matrix.parse("2 1 1; -4 1 0; 1 1 1; -1 0 3")
    hf = h @ f
    fh = f @ h
    assert hf.row(2) == (-3, 3, -1, 5)
    assert hf[3, 1] == -2
    assert fh.col(2) == (7, 4, 0)
    assert hf == Matrix(oracles.naive_matmul(h.entries, f.entries))
    assert fh == Matrix(oracles.naive_matmul(f.entries, h.entries))


def test_power():
    m = Matrix.parse("1 1; 0 1")
    assert m ** 0 == Matrix.identity(2)
    assert m ** 5 == Matrix.parse("1 5; 0 1")
    with pytest.raises(ValueError):
        m ** -1


def test_power_matches_repeated_multiplication():
    rng = random.Random(40)
    for _ in range(25):
        grid = oracles.rand_grid(rng, 3, 3)
        m = Matrix(grid)
        k = rng.randrange(0, 6)
        assert (m ** k).entries == tuple(
            tuple(r) for r in oracles.naive_power(grid, k)
        )


def test_multiplication_associates_and_distributes():
    rng = random.Random(44)
    for _ in range(200):
        a = Matrix(oracles.rand_grid(rng, 3, 3))
        b = Matrix(oracles.rand_grid(rng, 3, 3))
        c = Matrix(oracles.rand_grid(rng, 3, 3))
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (a - b) @ c == a @ c - b @ c


def test_matmul_matches_oracle():
    rng = random.Random(41)
    for _ in range(40):
        n, m, k = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
        a = oracles.rand_grid(rng, n, m)
        b = oracles.rand_grid(rng, m, k)
        assert (Matrix(a) @ Matrix(b)).entries == tuple(
            tuple(r) for r in oracles.naive_matmul(a, b)
        )


# ---- transpose / trace / slicing ----------------------------------------------


def test_transpose():
    a = Matrix.parse("2 3 1 0; 5 1 2 3; 1 1 0 5")
    assert a.transpose() == Matrix.parse("2 5 1; 3 1 1; 1 2 0; 0 3 5")
    assert a.transpose().transpose() == a


def test_transpose_of_product():
    rng = random.Random(42)
    for _ in range(20):
        a = Matrix(oracles.rand_grid(rng, 3, 4))
        b = Matrix(oracles.rand_grid(rng, 4, 2))
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_trace():
    assert Matrix.parse("1 9; 9 5").trace() == 6


def test_take_columns_and_drop():
    m = Matrix.parse("1 2 3; 4 5 6; 7 8 9")
    assert m.take_columns(1, 3) == Matrix.parse("2 3; 5 6; 8 9")
    assert m.drop(row=0) == Matrix.parse("4 5 6; 7 8 9")
    assert m.drop(col=1) == Matrix.parse("1 3; 4 6; 7 9")
    assert m.drop(row=2, col=0) == Matrix.parse("2 3; 5 6")


def test_hstack():
    left = Matrix.parse("1 2; 3 4")
    assert hstack(left, Matrix.identity(2)) == Matrix.parse("1 2 1 0; 3 4 0 1")
    with pytest.raises(DimensionMismatch):
        hstack(left, Matrix.parse("1; 2; 3"))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Matrix.identity(0), EmptyInput),
        (lambda: Matrix.zero(0, 2), EmptyInput),
        (lambda: A123 + 1, TypeError),
        (lambda: A123 @ 2, TypeError),
        (lambda: A33 @ A33, DimensionMismatch),
        (lambda: A33 * B33, TypeError),
        (lambda: A123 ** 2, NotSquare),
        (lambda: A123.trace(), NotSquare),
        (lambda: A123.take_columns(1, 4), IndexOutOfRange),
        (lambda: split_augmented(A123, 3), DimensionMismatch),
        (lambda: as_scalar(object()), TypeError),
        (lambda: Subspace(0, ()), EmptyInput),
        (lambda: rational_roots(Polynomial([])), ValueError),
    ],
    ids=[
        "identity-0", "zero-rows", "add-int", "matmul-int", "mul-shapes", "mul-matrix",
        "power-not-square", "trace-not-square", "take-columns-range",
        "split-boundary", "as-scalar-object", "subspace-ambient-0", "roots-of-zero",
    ],
)
def test_guard_raises_its_documented_error(call, error):
    with pytest.raises(error):
        call()


# ---- product columns/rows as combinations --------------------------------------


def test_product_columns_combine_left_factor_columns():
    combos = product_as_combination(A33, B33, axis="columns")
    assert len(combos) == 3
    second = combos[1]
    assert second.coefficients == (1, 2)
    assert second.generators == ((1, 3, 1), (2, 6, 1))
    assert second.result == (5, 15, 3)
    assert [c.result for c in combos] == [(1, 3, 1), (5, 15, 3), (3, 9, 2)]


def test_product_rows_combine_right_factor_rows():
    combos = product_as_combination(A33, B33, axis="rows")
    assert [c.result for c in combos] == [(1, 5, 3), (3, 15, 9), (1, 3, 2)]
    assert combos[1].coefficients == (3, 6)


def test_combination_recomputes_result():
    c = Combination([2, -1], [(1, 0), (0, 1)])
    assert c.result == (2, -1)


def test_product_as_combination_validates():
    with pytest.raises(DimensionMismatch):
        product_as_combination(B33, B33)
    with pytest.raises(ValueError):
        product_as_combination(A33, B33, axis="diagonals")


# ---- symmetry -----------------------------------------------------------------


def test_classify_symmetry():
    assert classify_symmetry(Matrix.parse("1 5 10; 5 3 7; 10 7 10")) is SymmetryClass.SYMMETRIC
    assert classify_symmetry(Matrix.parse("0 2 5; -2 0 3; -5 -3 0")) is SymmetryClass.SKEW_SYMMETRIC
    assert classify_symmetry(Matrix.parse("1 2; 3 4")) is SymmetryClass.NEITHER
    assert classify_symmetry(Matrix.parse("1 2 3; 4 5 6")) is SymmetryClass.NOT_SQUARE
    assert classify_symmetry(Matrix.zero(2, 2)) is SymmetryClass.SYMMETRIC


def test_skew_symmetric_has_zero_diagonal():
    rng = random.Random(43)
    for _ in range(20):
        a = Matrix(oracles.rand_grid(rng, 4, 4))
        skew = a - a.transpose()
        assert classify_symmetry(skew) in (
            SymmetryClass.SKEW_SYMMETRIC,
            SymmetryClass.SYMMETRIC,  # the zero matrix, if a was symmetric
        )
        assert all(skew[i, i] == 0 for i in range(4))


def test_sym_skew_decompose():
    a = Matrix.parse("2 1 4; 3 0 1; 5 6 7")
    b, c = sym_skew_decompose(a)
    assert b == Matrix.parse("4 4 9; 4 0 7; 9 7 14")
    assert c == Matrix.parse("0 -2 -1; 2 0 -5; 1 5 0")
    assert classify_symmetry(b) is SymmetryClass.SYMMETRIC
    assert classify_symmetry(c) is SymmetryClass.SKEW_SYMMETRIC
    assert Q(1, 2) * b + Q(1, 2) * c == a


# ---- rendering ----------------------------------------------------------------


def test_render_inline_round_trip():
    m = Matrix.parse("1 0 2; 3 1 -1")
    assert render_inline(m) == "[1 0 2; 3 1 -1]"
    assert Matrix.parse(render_inline(m).strip("[]")) == m


def test_render_block_alignment():
    text = render_block(Matrix.parse("1 -10; 2 3"))
    assert text.splitlines() == ["[ 1  -10 ]", "[ 2    3 ]"]
    assert str(Matrix.parse("1/2 1")) == "[ 1/2  1 ]"
