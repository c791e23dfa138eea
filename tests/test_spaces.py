import random
from fractions import Fraction

import pytest

from qlinalg import (
    AddMultiple,
    Dependent,
    DimensionMismatch,
    EmptyInput,
    Independent,
    InputDependent,
    LinearForm,
    MalformedForm,
    Matrix,
    MixedDimensions,
    NonLinearCoordinate,
    NotSubspace,
    Subspace,
    apply_row_op,
    basis_of_span,
    extend_to_basis,
    fundamental_subspaces,
    independence,
    infer_parameter_order,
    parse_linear_form,
    reduce,
    span_contains,
    subspace_from_forms,
)

import oracles

Q = Fraction


# ---- independence ----------------------------------------------------------------


def test_independent_triple():
    verdict = independence([(1, 0, -2), (-2, 2, 1), (-1, 0, 5)])
    assert isinstance(verdict, Independent)
    assert verdict


def test_dependent_triple_names_the_vanishing_row():
    verdict = independence([(1, -2, 4, 6), (-1, 2, 0, 2), (1, -2, 8, 14)])
    assert isinstance(verdict, Dependent)
    assert not verdict
    assert verdict.row == 2
    assert verdict.op == AddMultiple(-1, 1, 2)


def test_dependence_is_found_without_a_matrix_per_row_operation(monkeypatch):
    built = []
    start = Matrix.__init__

    def counted(self, rows):
        built.append(rows)
        start(self, rows)

    monkeypatch.setattr(Matrix, "__init__", counted)
    assert independence([(1, -2, 4, 6), (-1, 2, 0, 2), (1, -2, 8, 14)]).row == 2
    assert len(built) == 1


def test_zero_vector_is_instantly_dependent():
    verdict = independence([(1, 2), (0, 0)])
    assert isinstance(verdict, Dependent)
    assert verdict.row == 1
    assert verdict.op is None


def test_adding_a_multiple_keeps_independence():
    # if v1, v2 are independent then so are v1 and 3*v1 + v2
    rng = random.Random(11001)
    for _ in range(30):
        v1 = tuple(oracles.rand_fraction(rng) for _ in range(3))
        v2 = tuple(oracles.rand_fraction(rng) for _ in range(3))
        if not independence([v1, v2]):
            continue
        shifted = tuple(3 * a + b for a, b in zip(v1, v2))
        assert independence([v1, shifted])


def test_independence_input_validation():
    with pytest.raises(EmptyInput):
        independence([])
    with pytest.raises(MixedDimensions):
        independence([(1, 2), (1, 2, 3)])


def test_dependence_threshold():
    # (1,0,5), (1,2,4), (1,4,x) tip over exactly at x = 3
    assert not independence([(1, 0, 5), (1, 2, 4), (1, 4, 3)])
    for x in (2, 4):
        assert independence([(1, 0, 5), (1, 2, 4), (1, 4, x)])


# ---- spans and bases ---------------------------------------------------------------


def test_basis_of_span_drops_dependent_generators():
    d = basis_of_span([(1, -1, 0), (2, 2, 1), (0, 4, 1)])
    assert d.dimension == 2
    assert d.basis == ((1, -1, 0), (0, 4, 1))


def test_basis_of_span_keeps_full_rank_sets():
    m = basis_of_span([(-1, 2, 0, 0), (1, -2, 3, 0), (-2, 0, 3, 0)])
    assert m.dimension == 3
    for v in [(-1, 2, 0, 0), (1, -2, 3, 0), (-2, 0, 3, 0)]:
        assert v in m


def test_same_space_across_different_bases():
    m = basis_of_span([(1, -1, 1), (-1, 0, 1), (0, -1, 2)])
    assert m.dimension == 2
    assert m.same_space(Subspace(3, ((1, -1, 1), (-1, 0, 1))))
    assert not m.same_space(Subspace(3, ((1, 0, 0), (0, 1, 0))))


def test_membership_and_coordinates():
    d = basis_of_span([(1, 1, 1, 1), (-1, -1, 0, 0), (0, 0, 1, 1)])
    assert d.dimension == 2
    assert d.basis == ((1, 1, 1, 1), (0, 0, 1, 1))
    assert (1, 1, 2, 2) in d
    assert d.coordinates_of((1, 1, 2, 2)) == (1, 1)
    assert (1, 0, 0, 0) not in d
    assert d.coordinates_of((1, 0, 0, 0)) is None


def test_membership_exercise():
    m = basis_of_span([(1, -1, 1), (-1, 0, 1), (0, -1, 2)])
    coeffs = span_contains(m, (1, -3, 5))
    assert coeffs == (1, 2)
    # the coefficients really do rebuild the vector
    rebuilt = tuple(
        sum((c * v[t] for c, v in zip(coeffs, m.basis)), Q(0)) for t in range(3)
    )
    assert rebuilt == (1, -3, 5)


def test_span_contains_validates_length():
    d = basis_of_span([(1, 0)])
    with pytest.raises(DimensionMismatch):
        span_contains(d, (1, 0, 0))


def test_zero_subspace():
    z = Subspace.zero(3)
    assert z.dimension == 0 and z.is_zero
    assert span_contains(z, (0, 0, 0)) == ()
    assert span_contains(z, (1, 0, 0)) is None


def test_subspace_rejects_dependent_basis():
    with pytest.raises(InputDependent):
        Subspace(2, ((1, 2), (2, 4)))
    with pytest.raises(MixedDimensions):
        Subspace(3, ((1, 2), (1, 2)))


def test_extend_to_basis():
    full = extend_to_basis([(0, 2, 1, 4), (0, -2, 3, -10)])
    assert full.dimension == 4
    assert full.basis[:2] == ((0, 2, 1, 4), (0, -2, 3, -10))
    assert full.basis[2:] == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_extend_to_basis_guards():
    with pytest.raises(InputDependent):
        extend_to_basis([(1, 2), (2, 4)])
    with pytest.raises(DimensionMismatch):
        extend_to_basis([(1, 0)], n=3)


def test_extension_of_exercise_spanning_set():
    k = basis_of_span([(1, -1, 0), (2, -1, 0), (1, 0, 0)])
    assert k.dimension == 2
    extended = extend_to_basis(k.basis)
    assert extended.dimension == 3


# ---- law suites against the definitions ------------------------------------------


def _mixed_family(rng, n, k):
    """k vectors of Q^n, some zero, some repeated, some combinations of others."""
    vecs = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.1:
            vecs.append((Q(0),) * n)
        elif roll < 0.2 and vecs:
            vecs.append(rng.choice(vecs))
        elif roll < 0.35 and vecs:
            a, b, c = rng.choice(vecs), rng.choice(vecs), oracles.rand_fraction(rng)
            vecs.append(tuple(x + c * y for x, y in zip(a, b)))
        else:
            vecs.append(tuple(oracles.rand_fraction(rng) for _ in range(n)))
    return vecs


def _families(seed, count):
    """Seeded families of every shape: ambient 1 up, k = n, and k > n."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        k = rng.choice((1, n, n + 1, rng.randint(1, n + 2)))
        yield rng, _mixed_family(rng, n, k)


_EDGE_FAMILIES = (
    [(0,)],
    [(3,)],
    [(1,), (2,)],
    [(0, 0), (1, 0)],
    [(1, 2), (1, 2)],
    [(1, 0), (0, 1)],
    [(1, 0), (0, 1), (1, 1)],
    [(0, 1, 0), (0, 0, 0), (0, 0, 1)],
)


def _replayed_dependence(vectors):
    """Independence as it was first defined: replay the semi-reduction one
    Matrix per operation, rescanning every row for one that has just vanished."""
    def zero_rows(m):
        return {i for i, row in enumerate(m.entries) if all(x == 0 for x in row)}

    cur = Matrix(vectors)
    seen = zero_rows(cur)
    if seen:
        return Dependent(row=min(seen), op=None)
    for op in reduce(cur, "semi_reduced")[1]:
        cur = apply_row_op(cur, op)
        now = zero_rows(cur)
        if len(now) > len(seen):
            return Dependent(row=min(now - seen), op=op)
        seen = now
    return Independent()


def test_independence_matches_a_matrix_per_operation_replay():
    verdicts = set()
    families = [vecs for _, vecs in _families(11003, 400)] + list(_EDGE_FAMILIES)
    for vecs in families:
        verdict = independence(vecs)
        assert verdict == _replayed_dependence(vecs), vecs
        verdicts.add((type(verdict).__name__, getattr(verdict, "op", 0) is None))
    assert verdicts == {("Independent", False), ("Dependent", True), ("Dependent", False)}


def test_extension_matches_the_greedy_definition():
    outcomes = set()
    families = [vecs for _, vecs in _families(11004, 400)] + list(_EDGE_FAMILIES)
    for vecs in families:
        expected = oracles.greedy_extension(vecs)
        outcomes.add(expected is None)
        if expected is None:
            with pytest.raises(InputDependent) as raised:
                extend_to_basis(vecs)
            assert str(raised.value) == "can only extend an independent set"
        else:
            assert extend_to_basis(vecs, n=len(vecs[0])).basis == expected, vecs
    assert outcomes == {True, False}


def test_span_comparison_matches_mutual_membership():
    answers = set()
    for rng, vecs in _families(11005, 400):
        n = len(vecs[0])
        a = basis_of_span(vecs) if any(any(v) for v in vecs) else Subspace.zero(n)
        roll = rng.random()
        if roll < 0.15:
            b = Subspace.zero(n if rng.random() < 0.8 else n + 1)
        elif roll < 0.6 and not a.is_zero:
            # combinations of a's basis: usually the same space, sometimes less
            combos = [
                tuple(
                    sum((oracles.rand_fraction(rng) * v[t] for v in a.basis), Q(0))
                    for t in range(n)
                )
                for _ in range(a.dimension + rng.randint(0, 1))
            ]
            b = basis_of_span(combos) if any(any(c) for c in combos) else Subspace.zero(n)
        else:
            b = basis_of_span(_mixed_family(rng, n, rng.randint(1, n + 1)) + [(1,) * n])
        expected = oracles.same_span_by_membership(a.ambient, a.basis, b.ambient, b.basis)
        assert a.same_space(b) == b.same_space(a) == expected, (a, b)
        answers.add((expected, a.is_zero or b.is_zero))
    assert answers == {(True, True), (True, False), (False, True), (False, False)}


# ---- parametrized coordinate descriptions -------------------------------------------


def test_parse_linear_form():
    f = parse_linear_form("-2a + b")
    assert f.constant == 0
    assert f.coefficient("a") == -2
    assert f.coefficient("b") == 1
    assert f.coefficient("missing") == 0
    assert f.is_homogeneous


def test_parse_linear_form_constants_and_fractions():
    f = parse_linear_form("3 - 1/2x + 2/3y")
    assert f.constant == 3
    assert f.coefficient("x") == Q(-1, 2)
    assert f.coefficient("y") == Q(2, 3)
    assert not f.is_homogeneous
    g = parse_linear_form("1/2x1")
    assert g.coefficient("x1") == Q(1, 2)
    # coefficients go in front of the name, never after
    with pytest.raises(MalformedForm):
        parse_linear_form("x/2")


def test_parse_linear_form_rejects_nonlinear():
    with pytest.raises(NonLinearCoordinate):
        parse_linear_form("a^2")
    with pytest.raises(NonLinearCoordinate):
        parse_linear_form("a*b")
    with pytest.raises(NonLinearCoordinate):
        parse_linear_form("a * * b")
    with pytest.raises(MalformedForm):
        parse_linear_form("2 +")
    with pytest.raises(MalformedForm):
        parse_linear_form("")


@pytest.mark.parametrize("text", ["1 2a", "x 1", "a b", "1/ 2a", "1.5/2a"])
def test_parse_linear_form_never_glues_numbers_or_names(text):
    with pytest.raises(MalformedForm, match=r"cannot read term"):
        parse_linear_form(text)


@pytest.mark.parametrize(
    "text, constant, terms",
    [
        ("- 2a", 0, (("a", -2),)),
        ("2 * a", 0, (("a", 2),)),
        ("1/2 x1 + 3", 3, (("x1", Q(1, 2)),)),
        ("a  +  b", 0, (("a", 1), ("b", 1))),
        ("3 - 1/2x + 2/3y", 3, (("x", Q(-1, 2)), ("y", Q(2, 3)))),
    ],
)
def test_parse_linear_form_lets_whitespace_separate_a_term(text, constant, terms):
    assert parse_linear_form(text) == LinearForm(constant=Q(constant), terms=terms)


@pytest.mark.parametrize("text", ["2*", "3 *", "1/2 * ", "a + 2*", "2*-a", "2*3"])
def test_parse_linear_form_refuses_a_star_without_a_name(text):
    # "2*" was once read as the constant 2
    with pytest.raises(MalformedForm, match=r"cannot read term"):
        parse_linear_form(text)


@pytest.mark.parametrize(
    "text, constant, a",
    [("2*a", 0, 2), ("2 * a", 0, 2), ("2a", 0, 2), ("2", 2, 0), ("1 + 2 *a", 1, 2)],
)
def test_parse_linear_form_star_is_optional_before_a_name(text, constant, a):
    f = parse_linear_form(text)
    assert (f.constant, f.coefficient("a")) == (constant, a)


def test_a_dangling_star_names_its_coordinate():
    with pytest.raises(MalformedForm, match=r"^coordinate 2: cannot read term '3 \*'"):
        subspace_from_forms(["a", "3 *"])


def test_linear_form_rendering():
    assert str(parse_linear_form("-2a+b")) == "-2a + b"
    assert str(parse_linear_form("0")) == "0"


def test_infer_parameter_order_numeric_suffixes():
    forms = [parse_linear_form(s) for s in ("x2 + x10", "x1")]
    assert infer_parameter_order(forms) == ("x1", "x2", "x10")


def test_infer_parameter_order_first_appearance():
    forms = [parse_linear_form(s) for s in ("m", "m + w", "w")]
    assert infer_parameter_order(forms) == ("m", "w")


def test_subspace_from_forms():
    w = subspace_from_forms(["a", "-2a + b", "-a"])
    assert isinstance(w, Subspace)
    assert w.basis == ((1, -2, -1), (0, 1, 0))


def test_subspace_from_forms_two_parameters():
    e = subspace_from_forms(["m", "m + w", "w"])
    assert e.basis == ((1, 1, 0), (0, 1, 1))


def test_forms_with_constant_are_not_a_subspace():
    verdict = subspace_from_forms(["a", "b", "1"])
    assert isinstance(verdict, NotSubspace)
    assert not verdict
    assert verdict.coordinate == 2
    assert verdict.constant == 1
    assert "zero vector" in str(verdict)


def test_forms_with_square_are_rejected():
    with pytest.raises(NonLinearCoordinate):
        subspace_from_forms(["a^2", "3b + a", "-2c", "a + b + c"])


def test_forms_with_undeclared_parameter():
    with pytest.raises(MalformedForm):
        subspace_from_forms(["a + q"], parameters=["a"])


def test_forms_without_parameters_give_zero_subspace():
    z = subspace_from_forms(["0", "0"])
    assert isinstance(z, Subspace)
    assert z.is_zero and z.ambient == 2


def test_declared_parameter_order_wins():
    w = subspace_from_forms(["b", "a"], parameters=["a", "b"])
    assert w.basis == basis_of_span([(0, 1), (1, 0)]).basis


# ---- fundamental subspaces -----------------------------------------------------------


def test_fundamental_subspaces_of_a_wide_matrix():
    a = Matrix.parse("1 -1 2 0 -1; 0 1 2 0 2; 0 0 0 1 0")
    f = fundamental_subspaces(a)
    assert f.rank == 3
    assert f.nullity == 2
    assert f.null.basis == ((-4, -2, 1, 0, 0), (-1, -2, 0, 0, 1))
    assert f.row.basis == ((1, -1, 2, 0, -1), (0, 1, 2, 0, 2), (0, 0, 0, 1, 0))


def test_row_space_uses_semi_reduced_rows_and_column_space_original_columns():
    b = Matrix.parse("1 1 1 1 1; -1 -1 -1 0 2; 0 0 0 0 0")
    f = fundamental_subspaces(b)
    assert f.rank == 2
    assert f.row.basis == ((1, 1, 1, 1, 1), (0, 0, 0, 1, 3))
    assert f.column.basis == ((1, -1, 0), (1, 0, 0))


def test_null_space_vectors_are_killed_by_the_matrix():
    a = Matrix.parse("1 -1 2 0 -1; 0 1 2 0 2; 0 0 0 1 0")
    f = fundamental_subspaces(a)
    for v in f.null.basis:
        assert a @ Matrix.column_vector(v) == Matrix.zero(3, 1)


def test_rank_nullity_property():
    rng = random.Random(11002)
    for _ in range(200):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        a = Matrix(oracles.rand_grid(rng, rows, cols))
        f = fundamental_subspaces(a)
        semi, _ = reduce(a, "semi_reduced")
        assert f.row.basis == tuple(r for r in semi.entries if any(r))
        for space in (f.null, f.row, f.column):
            assert space.is_zero or independence(space.basis)
        assert f.rank + f.nullity == cols
        assert f.rank == f.row.dimension == f.column.dimension
        assert f.nullity == f.null.dimension
        for v in f.null.basis:
            assert a @ Matrix.column_vector(v) == Matrix.zero(rows, 1)
        # every original row sits inside the row space
        for i in range(rows):
            assert a.row(i) in f.row or all(x == 0 for x in a.row(i))
        # every original column sits inside the column space
        for j in range(cols):
            assert a.col(j) in f.column or all(x == 0 for x in a.col(j))


def test_polynomial_span_reduction():
    # -2 + 3x^2, -5x, and -4 - 10x + 6x^2 in coordinates
    d = basis_of_span([(-2, 0, 3), (0, -5, 0), (-4, -10, 6)])
    assert d.dimension == 2
    assert d.basis == ((-2, 0, 3), (0, -5, 0))


def test_linear_form_evaluate():
    f = LinearForm(constant=Q(1), terms=(("a", Q(2)), ("b", Q(-1))))
    assert f.evaluate({"a": 3, "b": 4}) == 1 + 6 - 4
    # names the form does not use are ignored; a missing one is named
    assert f.evaluate({"a": 3, "b": 4, "c": 5}) == 3
    with pytest.raises(DimensionMismatch, match="parameter b"):
        f.evaluate({"a": 3})
    with pytest.raises(DimensionMismatch, match="parameter a, b"):
        parse_linear_form("2a - b + 1").evaluate({})
