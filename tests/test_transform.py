"""Linear maps: construction routes, application, kernel/range, polynomial coordinates."""

import random
from fractions import Fraction

import pytest

import qlinalg.elimination
import qlinalg.transform
from qlinalg import (
    DegreeTooHigh,
    DependentPoints,
    DimensionMismatch,
    EmptyInput,
    LinearMap,
    MalformedForm,
    Matrix,
    MixedDimensions,
    NonLinearCoordinate,
    NotLinear,
    NotSpanning,
    Polynomial,
    Subspace,
    basis_of_span,
    coords_to_poly,
    from_basis_images,
    from_forms,
    fundamental_subspaces,
    independence,
    integral_functional,
    poly_to_coords,
)

import oracles

Q = Fraction


# ---- from_forms ------------------------------------------------------------------


def test_from_forms_builds_the_map():
    t = from_forms(("3a1+a2", "a2", "-a1"))
    assert isinstance(t, LinearMap)
    assert (t.matrix.rows, t.matrix.cols) == (3, 2)
    assert t.matrix == Matrix([[3, 1], [0, 1], [-1, 0]])
    assert t.apply((1, 1)) == (4, 1, -1)
    assert t.apply((1, 0)) == (3, 0, -1)


def test_from_forms_constant_coordinate_is_not_linear():
    verdict = from_forms(("-3x3+6x1", "-10x2", "13", "-x3"))
    assert isinstance(verdict, NotLinear)
    assert not verdict
    assert verdict.coordinate == 2  # third coordinate
    assert verdict.constant == 13
    assert "coordinate 3 has constant 13" in str(verdict)


def test_from_forms_zero_coordinate_is_fine():
    # same formulas with the constant replaced by 0: a genuine map
    t = from_forms(("-3x3+6x1", "-10x2", "0", "-x3"))
    assert isinstance(t, LinearMap)
    assert t.matrix == Matrix(
        [[6, 0, -3], [0, -10, 0], [0, 0, 0], [0, 0, -1]]
    )


def test_from_forms_all_zero_is_the_zero_map():
    t = from_forms(("0", "0"), variables=("x", "y"))
    assert t.matrix == Matrix([[0, 0], [0, 0]])
    assert t.apply((7, -3)) == (0, 0)


def test_from_forms_rejects_squares_and_undeclared_names():
    with pytest.raises(NonLinearCoordinate):
        from_forms(("a1^2+a2", "-a2"))
    with pytest.raises(MalformedForm):
        from_forms(("x+y",), variables=("x",))
    with pytest.raises(EmptyInput):
        from_forms(("0", "0"))  # no variables anywhere and none declared


def test_from_forms_refuses_a_repeated_variable():
    # a repeated name once built a 2x3 map whose apply((1, 2, 3)) gave (6, 3)
    with pytest.raises(MalformedForm, match=r"^variable 'x1' is declared twice$"):
        from_forms(["x1+x2", "x2"], variables=["x1", "x1", "x2"])


def test_from_forms_declared_variable_order_sets_columns():
    t = from_forms(("w",), variables=("m", "w"))
    assert t.matrix == Matrix([[0, 1]])


# ---- standard matrix / apply -----------------------------------------------------


def test_standard_matrix_of_coordinate_formulas():
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    assert t.matrix == Matrix([[-5, 0, 0], [0, 2, 1], [-1, 0, 0], [0, 0, 0]])


def test_standard_matrix_of_identity_map():
    t = LinearMap(Matrix.identity(4))
    assert t.matrix == Matrix.identity(4)
    assert t.apply((3, -1, 2, 9)) == (3, -1, 2, 9)


def test_standard_matrix_passes_plain_matrices_through():
    m = Matrix([[1, 2], [3, 4]])
    assert LinearMap(m).matrix is m


def test_apply_walks_the_matrix():
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    assert t.apply((3, 2, 1)) == (-15, 5, -3, 0)
    assert t.apply((0, 0, 0)) == (0, 0, 0, 0)
    with pytest.raises(DimensionMismatch):
        t.apply((1, 2))


# ---- from_basis_images -----------------------------------------------------------


def test_from_basis_images_two_points():
    t = from_basis_images([((2, 0), (0, 1, 4)), ((-1, 1), (2, 1, 5))])
    # the given points map to the given images...
    assert t.apply((2, 0)) == (0, 1, 4)
    assert t.apply((-1, 1)) == (2, 1, 5)
    # ...and everything else follows by linearity
    assert t.apply((3, 5)) == (10, 9, 41)
    assert t.matrix == Matrix(
        [[0, 2], [Q(1, 2), Q(3, 2)], [2, 7]]
    )


def test_from_basis_images_one_dimensional():
    t = from_basis_images([((1,), (3,))])
    assert t.apply((5,)) == (15,)


def test_from_basis_images_standard_basis_reconstructs_the_matrix():
    rng = random.Random(13001)
    for _ in range(25):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        target = Matrix(oracles.rand_grid(rng, m, n))
        pairs = [
            (tuple(1 if j == k else 0 for j in range(n)), target.col(k))
            for k in range(n)
        ]
        t = from_basis_images(pairs)
        assert t.matrix == target


def test_from_basis_images_input_validation():
    with pytest.raises(EmptyInput):
        from_basis_images([])
    with pytest.raises(NotSpanning):
        # one point cannot pin down a map on the plane
        from_basis_images([((2, 0), (0, 1, 4))])
    with pytest.raises(DependentPoints):
        from_basis_images([((1, 2), (1,)), ((2, 4), (2,))])
    with pytest.raises(DependentPoints):
        # three points in the plane are one too many
        from_basis_images([((1, 0), (1,)), ((0, 1), (2,)), ((1, 1), (3,))])
    with pytest.raises(MixedDimensions):
        from_basis_images([((1, 0), (1,)), ((0, 1, 0), (2,))])
    with pytest.raises(MixedDimensions):
        from_basis_images([((1, 0), (1,)), ((0, 1), (2, 3))])


def test_too_many_points_are_refused_before_any_reduction(monkeypatch):
    # n + 1 points of Q^n are dependent by counting; no sweep is needed to say so
    runs = []
    original = qlinalg.transform._FractionFree
    monkeypatch.setattr(
        qlinalg.transform, "_FractionFree", lambda *args: runs.append(args) or original(*args)
    )
    for n in range(1, 5):
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        points = [*units, tuple(range(1, n + 1))]
        with pytest.raises(DependentPoints, match="the domain points must form a basis"):
            from_basis_images([(p, (k,)) for k, p in enumerate(points)])
    assert runs == []
    # a basis is still read off one run
    assert from_basis_images([((1, 0), (3,)), ((1, 1), (5,))]).matrix == Matrix([[3, 2]])
    assert len(runs) == 1


def test_an_empty_domain_point_is_empty_input():
    # with no coordinates there is no Q^n for the point to span, and one
    # point is not "one too many" for a basis of nothing
    with pytest.raises(EmptyInput):
        from_basis_images([((), (1, 2))])
    with pytest.raises(EmptyInput):
        from_basis_images([((), ())])
    with pytest.raises(EmptyInput):
        from_basis_images([((1,), (1,)), ((), (2,))])


def test_an_empty_image_is_empty_input():
    # no image coordinates: the map has no codomain Q^m to land in
    for pairs in (
        [((1,), ())],
        [((1,), ()), ((2,), (1,))],
        [((1, 0), (3,)), ((0, 1), ())],
    ):
        with pytest.raises(EmptyInput, match="an image needs at least one coordinate"):
            from_basis_images(pairs)


# ---- kernel and range ------------------------------------------------------------


def test_kernel_and_range_of_projection_like_map():
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    ker = t.kernel()
    assert ker.dimension == 1
    assert ker.basis == ((0, Q(-1, 2), 1),)
    rng_space = t.range()
    assert rng_space.basis == ((-5, 0, -1, 0), (0, 2, 0, 0))
    assert ker.dimension + rng_space.dimension == t.matrix.cols


def test_kernel_builds_only_the_null_space(monkeypatch):
    def row_space(self, k):
        raise AssertionError("kernel read a row of the sweep")

    monkeypatch.setattr(qlinalg.elimination._FractionFree, "swept_row", row_space)
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    assert t.kernel().basis == ((0, Q(-1, 2), 1),)


def test_range_builds_only_the_column_space(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("range read the reduced matrix or a row of the sweep")

    monkeypatch.setattr(qlinalg.elimination._FractionFree, "reduced", refuse)
    monkeypatch.setattr(qlinalg.elimination._FractionFree, "swept_row", refuse)
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    assert t.range().basis == ((-5, 0, -1, 0), (0, 2, 0, 0))


def test_kernel_vectors_actually_die():
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    for v in t.kernel().basis:
        assert t.apply(v) == (0, 0, 0, 0)


def test_identity_map_kernel_and_range():
    t = LinearMap(Matrix.identity(3))
    assert t.kernel().is_zero
    assert t.range().same_space(Subspace(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_matrix_valued_codomain_through_coordinates():
    # T(x1,x2,x3) = [[x1, x1], [x3, x2]] read row-major as a 4-vector
    t = from_forms(("x1", "x1", "x3", "x2"))
    assert t.matrix == Matrix([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]])
    # all three columns are independent, so nothing is lost
    assert t.kernel().is_zero
    assert t.range().same_space(
        Subspace(4, ((1, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    )


def test_evaluation_pair_map_kernel_and_range():
    # T(g) = [[g(-1), g(0)], [g(-1), g(0)]] on cubics, row-major coordinates
    m = Matrix([[1, -1, 1, -1], [1, 0, 0, 0], [1, -1, 1, -1], [1, 0, 0, 0]])
    t = LinearMap(m)
    ker = t.kernel()
    assert ker.basis == ((0, 1, 1, 0), (0, -1, 0, 1))
    polys = [coords_to_poly(v) for v in ker.basis]
    assert polys[0] == Polynomial([0, 1, 1])  # x + x^2
    assert polys[1] == Polynomial([0, -1, 0, 1])  # -x + x^3
    assert t.range().same_space(Subspace(4, ((1, 1, 1, 1), (-1, 0, -1, 0))))


def test_rank_nullity_for_random_maps():
    rng = random.Random(13002)
    for _ in range(40):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        t = LinearMap(Matrix(oracles.rand_grid(rng, m, n)))
        ker, rng_space = t.kernel(), t.range()
        assert ker.dimension + rng_space.dimension == n
        for v in ker.basis:
            assert all(c == 0 for c in t.apply(v))
        for k in range(n):
            assert t.matrix.col(k) in rng_space


# ---- polynomial coordinates ------------------------------------------------------


def test_poly_coords_ascending():
    assert poly_to_coords(Polynomial([-2, 0, 3]), 3) == (-2, 0, 3)
    assert poly_to_coords(Polynomial([0, -5]), 3) == (0, -5, 0)
    assert poly_to_coords(Polynomial([]), 4) == (0, 0, 0, 0)


def test_poly_coords_round_trip():
    p = Polynomial([Q(1, 2), -3, 0, 7])
    assert coords_to_poly(poly_to_coords(p, 6)) == p
    assert poly_to_coords(coords_to_poly((1, 2, 3)), 3) == (1, 2, 3)


def test_poly_coords_degree_guard():
    with pytest.raises(DegreeTooHigh):
        poly_to_coords(Polynomial([0, 0, 1]), 2)


def test_polynomial_dependence_through_coordinates():
    # 6x^2 - 10x - 4 = 2(3x^2 - 2) + 2(-5x): dependent as vectors of P_3
    coords = [
        poly_to_coords(Polynomial([-2, 0, 3]), 3),
        poly_to_coords(Polynomial([0, -5]), 3),
        poly_to_coords(Polynomial([-4, -10, 6]), 3),
    ]
    assert coords == [(-2, 0, 3), (0, -5, 0), (-4, -10, 6)]
    assert not independence(coords)
    assert basis_of_span(coords).dimension == 2


# ---- the integration functional --------------------------------------------------


def test_integral_functional_matrix_and_values():
    t = integral_functional(2)
    assert t.matrix == Matrix([[1, Q(1, 2)]])
    # 2x - 1 integrates to zero over [0, 1]
    assert t.apply(poly_to_coords(Polynomial([-1, 2]), 2)) == (0,)
    # the constant 1 integrates to 1
    assert t.apply(poly_to_coords(Polynomial([1]), 2)) == (1,)


def test_integral_functional_kernel_on_linear_polynomials():
    ker = integral_functional(2).kernel()
    assert ker.dimension == 1
    assert coords_to_poly(ker.basis[0]) == Polynomial([Q(-1, 2), 1])


def test_integral_functional_kernel_on_quadratics():
    t = integral_functional(3)
    assert t.matrix == Matrix([[1, Q(1, 2), Q(1, 3)]])
    ker = t.kernel()
    expected = Subspace(3, ((Q(-1, 2), 1, 0), (Q(-1, 3), 0, 1)))
    assert ker.same_space(expected)
    assert [str(coords_to_poly(v)) for v in ker.basis] == ["-1/2 + x", "-1/3 + x^2"]


def test_integral_functional_needs_a_dimension():
    with pytest.raises(EmptyInput):
        integral_functional(0)


# ---- the linearity law -----------------------------------------------------------


def test_linearity_law_property():
    # T(alpha*v1 + v2) == alpha*T(v1) + T(v2), exactly, on freshly built maps
    rng = random.Random(13003)
    checked = 0
    while checked < 100:
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        t = LinearMap(Matrix(oracles.rand_grid(rng, m, n)))
        alpha = oracles.rand_fraction(rng)
        v1 = tuple(oracles.rand_fraction(rng) for _ in range(n))
        v2 = tuple(oracles.rand_fraction(rng) for _ in range(n))
        mixed = tuple(alpha * a + b for a, b in zip(v1, v2))
        lhs = t.apply(mixed)
        rhs = tuple(alpha * a + b for a, b in zip(t.apply(v1), t.apply(v2)))
        assert lhs == rhs
        checked += 1
    assert checked == 100


def test_linearity_law_on_the_fixture_maps():
    maps = [
        from_forms(("3a1+a2", "a2", "-a1")),
        from_basis_images([((2, 0), (0, 1, 4)), ((-1, 1), (2, 1, 5))]),
        integral_functional(3),
    ]
    rng = random.Random(13004)
    for t in maps:
        for _ in range(10):
            alpha = oracles.rand_fraction(rng)
            v1 = tuple(oracles.rand_fraction(rng) for _ in range(t.matrix.cols))
            v2 = tuple(oracles.rand_fraction(rng) for _ in range(t.matrix.cols))
            mixed = tuple(alpha * a + b for a, b in zip(v1, v2))
            assert t.apply(mixed) == tuple(
                alpha * a + b for a, b in zip(t.apply(v1), t.apply(v2))
            )
