"""Product-level acceptance checklist.

One test per advertised result: frozen fixtures with hand-checked answers,
derivation cross-checks, the randomized law suites at their full case
counts, and the command-line golden transcripts.  Every assertion is exact
rational equality.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from qlinalg import (
    AddMultiple,
    DetEffectLog,
    Diagonalizable,
    Inconsistent,
    Infinite,
    Matrix,
    NotDiagonalizable,
    Scale,
    Split,
    Subspace,
    Swap,
    SymmetryClass,
    Unique,
    adjoint,
    apply_row_op,
    basis_of_span,
    classify_symmetry,
    cramer_solve,
    det,
    det_cofactor,
    diagonalize,
    dot,
    eigen_summary,
    eigenspace,
    eigenvalues,
    elementary_matrix,
    extend_to_basis,
    from_basis_images,
    from_forms,
    fundamental_subspaces,
    gram_schmidt,
    independence,
    integral_functional,
    inverse_2x2,
    inverse_adjoint,
    inverse_entry,
    inverse_gauss_jordan,
    is_orthogonal_set,
    matrix_power,
    parse_matrix_text,
    solve,
    span_contains,
    split_augmented,
    subspace_from_forms,
    sym_skew_decompose,
)
from qlinalg.cli import main

import oracles

Q = Fraction

GOLDEN = Path(__file__).parent / "golden"


def _system(text):
    m, boundary = parse_matrix_text(text)
    return split_augmented(m, boundary)


# ---- solving linear systems ---------------------------------------------------------


def test_two_unknown_system_solves_to_the_frozen_point():
    result = solve(*_system("3 2 | 5; -2 1 | -6"))
    assert isinstance(result, Unique)
    assert result.values == (Q(17, 7), Q(-8, 7))


def test_three_unknown_system_solves_to_the_frozen_point():
    result = solve(*_system("1 1 -1 | 2; 2 -1 1 | 2; 0 -1 2 | 1"))
    assert isinstance(result, Unique)
    assert result.values == (Q(4, 3), Q(7, 3), Q(5, 3))


def test_underdetermined_system_names_free_variables_and_particular_point():
    result = solve(
        *_system("0 1 -1 1 -1 | 1; -2 0 1 0 -1 | 0; 0 -1 1 2 -10 | 12")
    )
    assert isinstance(result, Infinite)
    assert result.free == (2, 4)
    assert result.particular() == (0, Q(-10, 3), 0, Q(13, 3), 0)


def test_contradictory_system_reports_inconsistent():
    result = solve(*_system("1 2 -1 | 2; 2 4 -2 | 6"))
    assert isinstance(result, Inconsistent)
    assert not result


# ---- matrix arithmetic --------------------------------------------------------------


def test_scaled_difference_of_matrices():
    a = Matrix.parse("2 1 3; 0 1 5")
    c = Matrix.parse("-3 2 5; 1 7 3")
    assert 3 * a - 2 * c == Matrix.parse("12 -1 -1; -2 -11 9")


def test_matrix_products_in_both_orders():
    a = Matrix.parse("1 2; 3 6; 1 1")
    b = Matrix.parse("1 1 1; 0 2 1")
    assert a @ b == Matrix.parse("1 5 3; 3 15 9; 1 3 2")
    assert b @ a == Matrix.parse("5 9; 7 13")


def test_gauss_jordan_inversion_of_small_matrices():
    a2 = Matrix.parse("2 1; 4 0")
    assert inverse_gauss_jordan(a2) == Matrix.parse("0 1/4; 1 -1/2")
    a3 = Matrix.parse("1 0 2; 0 1 0; 0 -1 1")
    inv = inverse_gauss_jordan(a3)
    assert inv == Matrix.parse("1 -2 -2; 0 1 0; 0 1 1")
    assert a3 @ inv == Matrix.identity(3)


def test_symmetric_plus_skew_split_recovers_the_matrix():
    a = Matrix.parse("2 1 4; 3 0 1; 5 6 7")
    b, c = sym_skew_decompose(a)
    assert b == Matrix.parse("4 4 9; 4 0 7; 9 7 14")
    assert c == Matrix.parse("0 -2 -1; 2 0 -5; 1 5 0")
    assert classify_symmetry(b) is SymmetryClass.SYMMETRIC
    assert classify_symmetry(c) is SymmetryClass.SKEW_SYMMETRIC
    assert Q(1, 2) * b + Q(1, 2) * c == a


# ---- determinants and closed-form inverses ------------------------------------------


def test_two_by_two_determinant_value():
    assert det(Matrix.parse("3 2; 5 7")) == 11


def test_three_by_three_determinant_value():
    assert det(Matrix.parse("1 0 2; 3 1 -1; 1 2 4")) == 16


def test_closed_form_inverse_of_a_two_by_two():
    assert inverse_2x2(Matrix.parse("3 2; -4 5")) == Matrix.parse(
        "5/23 -2/23; 4/23 3/23"
    )


def test_row_scalings_compound_on_the_determinant():
    log = DetEffectLog.from_ops([Scale(2, 0), Scale(3, 2), Scale(-2, 3)])
    assert log.factor == -12
    assert log.factor * Q(4) == -48


def test_cramer_rule_coordinates():
    x = cramer_solve(Matrix.parse("2 7; -10 3"), [13, -4])
    assert x == (Q(67, 76), Q(122, 76))


def test_single_inverse_entry_via_cofactors():
    a = Matrix.parse("2 0 -2 1; -2 1 2 4; -4 -1 3 0; 0 0 0 4")
    assert det(a) == -8
    assert inverse_entry(a, 1, 3) == Q(-5, 4)
    assert inverse_gauss_jordan(a)[1, 3] == Q(-5, 4)


def test_closed_form_inverse_exercise():
    assert inverse_2x2(Matrix.parse("4 -2; -3 2")) == Matrix.parse("1 1; 3/2 2")


def test_single_inverse_entry_exercise():
    a = Matrix.parse("2 -4 2 1; -2 0 2 -1; 1 -2 12 4; -2 4 -2 12")
    assert det(a) == -1144
    assert inverse_entry(a, 1, 3) == Q(-7, 286)


def test_adjugate_identity_and_both_inverse_routes_agree():
    # derived fixture, cross-checked against the row-reduction route
    a = Matrix.parse("1 0 2; 2 1 -2; 0 0 2")
    adj = adjoint(a)
    assert adj == Matrix.parse("2 0 -2; -4 2 6; 0 0 1")
    assert a @ adj == det(a) * Matrix.identity(3)
    assert inverse_adjoint(a) == inverse_gauss_jordan(a)


# ---- subspaces ----------------------------------------------------------------------


def test_parametrized_plane_reduces_to_a_two_vector_basis():
    w = subspace_from_forms(["a", "-2a + b", "-a"])
    assert isinstance(w, Subspace)
    assert w.basis == ((1, -2, -1), (0, 1, 0))


def test_membership_with_unit_coordinates():
    d = basis_of_span([(1, 1, 1, 1), (-1, -1, 0, 0), (0, 0, 1, 1)])
    assert (1, 1, 2, 2) in d
    assert span_contains(d, (1, 1, 2, 2)) == (1, 1)


def test_null_space_basis_rank_and_nullity():
    a = Matrix.parse("1 -1 2 0 -1; 0 1 2 0 2; 0 0 0 1 0")
    f = fundamental_subspaces(a)
    assert f.rank == 3
    assert f.nullity == 2
    assert f.null.basis == ((-4, -2, 1, 0, 0), (-1, -2, 0, 0, 1))


def test_row_and_column_space_bases():
    b = Matrix.parse("1 1 1 1 1; -1 -1 -1 0 2; 0 0 0 0 0")
    f = fundamental_subspaces(b)
    assert f.rank == 2
    assert f.row.basis == ((1, 1, 1, 1, 1), (0, 0, 0, 1, 3))
    assert f.column.basis == ((1, -1, 0), (1, 0, 0))


def test_dependence_tips_at_exactly_one_parameter_value():
    assert not independence([(1, 0, 5), (1, 2, 4), (1, 4, 3)])
    assert independence([(1, 0, 5), (1, 2, 4), (1, 4, 2)])
    assert independence([(1, 0, 5), (1, 2, 4), (1, 4, 4)])


def test_redundant_spanning_set_has_dimension_two():
    k = basis_of_span([(1, -1, 0), (2, -1, 0), (1, 0, 0)])
    assert k.dimension == 2
    assert extend_to_basis(k.basis).dimension == 3


# ---- linear maps --------------------------------------------------------------------


def test_map_from_two_basis_images_extends_linearly():
    t = from_basis_images([((2, 0), (0, 1, 4)), ((-1, 1), (2, 1, 5))])
    assert t.apply((3, 5)) == (10, 9, 41)


def test_standard_matrix_application_kernel_and_range():
    t = from_forms(("-5x1", "2x2+x3", "-x1", "0"))
    assert t.matrix == Matrix(
        [[-5, 0, 0], [0, 2, 1], [-1, 0, 0], [0, 0, 0]]
    )
    assert t.apply((3, 2, 1)) == (-15, 5, -3, 0)
    assert t.kernel().basis == ((0, Q(-1, 2), 1),)
    assert t.range().basis == ((-5, 0, -1, 0), (0, 2, 0, 0))


def test_integration_functional_kills_the_centered_line():
    t = integral_functional(2)
    assert t.apply((-1, 2)) == (0,)  # the line 2x - 1, coordinatized ascending
    assert t.kernel().same_space(Subspace(2, ((Q(-1, 2), 1),)))


def test_integration_functional_kernel_on_quadratics():
    ker = integral_functional(3).kernel()
    assert ker.same_space(Subspace(3, ((Q(-1, 2), 1, 0), (Q(-1, 3), 0, 1))))


# ---- eigen analysis -----------------------------------------------------------------


def test_triangular_fixture_eigenvalues_and_eigenspaces():
    a = Matrix([[2, 0, 1], [0, 1, -2], [0, 0, -1]])
    verdict = eigenvalues(a)
    assert isinstance(verdict, Split)
    assert verdict.roots == ((2, 1), (1, 1), (-1, 1))
    assert eigenspace(a, 2).basis == ((1, 0, 0),)
    assert eigenspace(a, 1).basis == ((0, 1, 0),)
    assert eigenspace(a, -1).basis == ((Q(-1, 3), 1, 1),)


def test_diagonalization_reconstructs_and_takes_powers():
    a = Matrix([[2, 0, 1], [0, 1, -2], [0, 0, -1]])
    verdict = diagonalize(a)
    assert isinstance(verdict, Diagonalizable)
    assert verdict.D == Matrix([[2, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert verdict.reconstruct() == a
    assert matrix_power(verdict.D, 6) == Matrix(
        [[64, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert matrix_power(a, 6) == Matrix([[64, 0, 21], [0, 1, 0], [0, 0, 1]])


def test_short_eigenspace_blocks_diagonalization():
    c = Matrix([[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, -1, 1], [0, 0, 0, -1]])
    verdict = diagonalize(c)
    assert isinstance(verdict, NotDiagonalizable)
    assert (verdict.eigenvalue, verdict.algebraic, verdict.geometric) == (-1, 2, 1)


def test_multiplicity_profile_names_the_deficient_eigenvalue():
    # (1-x)(2-x)^2 with a one-dimensional E_2
    a = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 1]])
    assert eigen_summary(a).deficient == (2, 2, 1)


# ---- orthogonality ------------------------------------------------------------------


def test_dot_product_fixture_value():
    assert dot((2, 4, 1, 3), (0, 1, 2, 5)) == 21


def test_first_two_orthogonalized_vectors_are_exact():
    out = gram_schmidt([(1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0)])
    assert out.vectors[0] == (1, 0, 1, 1)
    assert out.vectors[1] == (Q(-1, 3), 1, Q(-1, 3), Q(2, 3))
    assert out.squared_norms[:2] == (3, Q(5, 3))


def test_third_orthogonalized_vector_is_orthogonal_to_both():
    # derived fixture, confirmed by the perpendicularity checks below
    out = gram_schmidt([(1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0)])
    w3 = out.vectors[2]
    assert w3 == (Q(-2, 5), Q(1, 5), Q(3, 5), Q(-1, 5))
    assert dot(w3, out.vectors[0]) == 0
    assert dot(w3, out.vectors[1]) == 0
    assert out.squared_norms[2] == Q(3, 5)


def test_orthogonalized_exercise_set_spans_the_key_answer():
    out = gram_schmidt([(0, 0, 1, 1), (1, 0, 1, 1), (1, -1, 1, 0)])
    assert is_orthogonal_set(out.vectors)
    assert out.dimension == 3
    key = basis_of_span(
        [(0, 0, 1, 1), (1, 0, 0, 0), (0, -1, Q(1, 2), Q(-1, 2))]
    )
    assert out.span().same_space(key)


# ---- randomized law suites ----------------------------------------------------------


def test_determinant_routes_agree_across_formulas():
    rng = random.Random(21001)
    for _ in range(300):
        n = rng.randrange(1, 5)
        a_grid = oracles.rand_grid(rng, n, n, lo=-4, hi=4)
        b_grid = oracles.rand_grid(rng, n, n, lo=-4, hi=4)
        a, b = Matrix(a_grid), Matrix(b_grid)
        value = det(a)
        assert det_cofactor(a) == value
        assert oracles.leibniz_det(a_grid) == value
        assert det(a.transpose()) == value
        alpha = oracles.rand_fraction(rng)
        assert det(alpha * a) == alpha**n * value
        assert det(a @ b) == value * det(b)


def test_inverse_routes_agree_and_respect_products():
    rng = random.Random(21002)
    for trial in range(200):
        n = 3 if trial % 2 else 4
        a = Matrix(oracles.rand_invertible_grid(rng, n, lo=-3, hi=3))
        b = Matrix(oracles.rand_invertible_grid(rng, n, lo=-3, hi=3))
        inv = inverse_gauss_jordan(a)
        assert inverse_adjoint(a) == inv
        assert all(
            inverse_entry(a, i, k) == inv[i, k]
            for i in range(n)
            for k in range(n)
        )
        assert inverse_gauss_jordan(a @ b) == inverse_gauss_jordan(b) @ inv
        assert inverse_gauss_jordan(a.transpose()) == inv.transpose()
        rhs = [oracles.rand_fraction(rng) for _ in range(n)]
        solved = solve(a, rhs)
        assert isinstance(solved, Unique)
        assert cramer_solve(a, rhs) == solved.values


def test_every_solution_resubstitutes_into_its_system():
    rng = random.Random(21003)
    assignments = 0
    for _ in range(120):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 5)
        a_grid = oracles.rand_grid(rng, rows, cols)
        b = [oracles.rand_fraction(rng) for _ in range(rows)]
        result = solve(Matrix(a_grid), b)
        if isinstance(result, Inconsistent):
            continue
        if isinstance(result, Unique):
            points = [result.values]
        else:
            points = [result.particular()] + [
                result.at([oracles.rand_fraction(rng) for _ in result.free])
                for _ in range(3)
            ]
        for x in points:
            assert all(v == 0 for v in oracles.residual(a_grid, x, b))
            assignments += 1
    assert assignments > 100


def test_rank_plus_nullity_always_counts_columns():
    rng = random.Random(21004)
    for _ in range(200):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        a = Matrix(oracles.rand_grid(rng, rows, cols))
        f = fundamental_subspaces(a)
        assert f.rank + f.nullity == cols
        assert f.row.dimension == f.column.dimension == f.rank
        for v in f.null.basis:
            assert a @ Matrix.column_vector(v) == Matrix.zero(rows, 1)


def test_orthogonalization_preserves_span_and_independence():
    rng = random.Random(21005)
    for _ in range(200):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n + 1)
        vectors = [
            tuple(oracles.rand_fraction(rng, lo=-4, hi=4) for _ in range(n))
            for _ in range(k)
        ]
        if all(c == 0 for v in vectors for c in v):
            vectors[0] = (Q(1),) + vectors[0][1:]
        if k > 1 and rng.random() < 0.3:
            c1, c2 = oracles.rand_fraction(rng), oracles.rand_fraction(rng)
            vectors.append(
                tuple(c1 * s + c2 * t for s, t in zip(vectors[0], vectors[1]))
            )
        out = gram_schmidt(vectors)
        assert is_orthogonal_set(out.vectors)
        assert independence(out.vectors)
        assert out.span().same_space(basis_of_span(vectors))
        assert tuple(dot(w, w) for w in out.vectors) == out.squared_norms


def test_constructed_diagonalizable_matrices_round_trip():
    rng = random.Random(21006)
    pool = (-3, -2, -1, 1, 2, 3, Q(1, 2))
    for trial in range(100):
        n = 4 if trial % 5 == 0 else rng.randrange(2, 4)
        values = [rng.choice(pool) for _ in range(n)]
        multiset = {}
        for v in values:
            multiset[v] = multiset.get(v, 0) + 1
        d = Matrix(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        p = Matrix(oracles.rand_invertible_grid(rng, n, lo=-3, hi=3))
        a = p @ d @ inverse_gauss_jordan(p)
        verdict = eigenvalues(a)
        assert isinstance(verdict, Split)
        assert dict(verdict.roots) == multiset
        for value, mult in verdict.roots:
            assert eigenspace(a, value).dimension == mult
        rebuilt = diagonalize(a)
        assert isinstance(rebuilt, Diagonalizable)
        assert rebuilt.reconstruct() == a
        for exponent in range(9):
            assert matrix_power(a, exponent) == Matrix(
                oracles.naive_power(a.entries, exponent)
            )


def test_elementary_matrices_reproduce_every_row_operation():
    rng = random.Random(21007)

    def nonzero():
        alpha = Q(0)
        while alpha == 0:
            alpha = oracles.rand_fraction(rng)
        return alpha

    for trial in range(300):
        rows = rng.randrange(2, 6)
        cols = rng.randrange(1, 6)
        m = Matrix(oracles.rand_grid(rng, rows, cols))
        kind = trial % 3
        if kind == 0:
            op = Scale(nonzero(), rng.randrange(rows))
        elif kind == 1:
            src = rng.randrange(rows)
            tgt = rng.randrange(rows)
            while tgt == src:
                tgt = rng.randrange(rows)
            op = AddMultiple(nonzero(), src, tgt)
        else:
            i = rng.randrange(rows)
            j = rng.randrange(rows)
            while j == i:
                j = rng.randrange(rows)
            op = Swap(i, j)
        assert elementary_matrix(op, rows) @ m == apply_row_op(m, op)


# ---- command line -------------------------------------------------------------------


def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_solve_trace_transcript(capsys):
    code, out = _run_cli(capsys, "solve", "3 2 | 5 ; -2 1 | -6", "--trace")
    assert code == 0
    assert out == (GOLDEN / "solve_trace.txt").read_text()


def test_cli_determinant_transcript(capsys):
    code, out = _run_cli(capsys, "det", "1 0 2; 3 1 -1; 1 2 4")
    assert code == 0
    assert out == (GOLDEN / "det.txt").read_text()


def test_cli_eigen_transcript(capsys):
    code, out = _run_cli(capsys, "eigen", "2 0 1; 0 1 -2; 0 0 -1")
    assert code == 0
    assert out == (GOLDEN / "eigen.txt").read_text()


def test_cli_orthogonalization_transcript(capsys):
    code, out = _run_cli(capsys, "gram-schmidt", "1 0 1 1; 0 1 0 1; 0 1 1 1")
    assert code == 0
    assert out == (GOLDEN / "gram_schmidt.txt").read_text()


def test_cli_json_preserves_exact_fractions(capsys):
    code, out = _run_cli(
        capsys, "solve", "3 2 | 5 ; -2 1 | -6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [Q(s) for s in payload["result"]["values"]] == [Q(17, 7), Q(-8, 7)]

    code, out = _run_cli(capsys, "inverse", "1 2; 3 4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rebuilt = Matrix([[Q(s) for s in row] for row in payload["matrix"]])
    assert rebuilt == inverse_gauss_jordan(Matrix([[1, 2], [3, 4]]))
