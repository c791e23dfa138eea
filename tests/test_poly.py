import random
from fractions import Fraction

import pytest

from qlinalg import Polynomial, poly_eval, rational_roots

import oracles

Q = Fraction


def test_trailing_zeros_are_stripped():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0]).is_zero
    assert Polynomial().degree == -1


def test_degree_and_coefficient_access():
    p = Polynomial([-2, 1, 2, -1])
    assert p.degree == 3
    assert p.coefficient(0) == -2
    assert p.coefficient(5) == 0


def test_arithmetic():
    p = Polynomial([1, 1])      # 1 + x
    q = Polynomial([-1, 1])     # -1 + x
    assert p + q == Polynomial([0, 2])
    assert p - q == Polynomial([2])
    assert p * q == Polynomial([-1, 0, 1])
    assert 3 * p == Polynomial([3, 3])
    assert (p * q) * Polynomial([0, 1]) == Polynomial([0, -1, 0, 1])
    assert p ** 2 == Polynomial([1, 2, 1])


def test_evaluation_is_exact():
    p = Polynomial([-2, 1, 2, -1])
    # -2 + 3 + 18 - 27
    assert p(3) == -8
    assert poly_eval(p, Q(1, 2)) == Q(-2) + Q(1, 2) + Q(1, 2) - Q(1, 8)


def test_divmod_exact():
    p = Polynomial([-1, 0, 1])  # (x-1)(x+1)
    quot, rem = divmod(p, Polynomial([1, 1]))
    assert quot == Polynomial([-1, 1])
    assert rem.is_zero
    quot, rem = divmod(Polynomial([1, 1, 1]), Polynomial([1, 1]))
    assert quot * Polynomial([1, 1]) + rem == Polynomial([1, 1, 1])


def test_deflate():
    p = Polynomial([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    q = p.deflate(1)
    assert q(2) == 0 and q(3) == 0 and q.degree == 2
    with pytest.raises(ValueError):
        p.deflate(5)


def test_primitive_integer_coefficients():
    p = Polynomial([Q(1, 2), Q(3, 4), Q(-1)])
    assert p.primitive_integer_coefficients() == (2, 3, -4)
    assert Polynomial([4, 8]).primitive_integer_coefficients() == (1, 2)


def test_rational_roots_full_split():
    # (x-1)(x-2)(x-3), integer roots
    roots, residual = rational_roots(Polynomial([-6, 11, -6, 1]))
    assert dict(roots) == {Q(1): 1, Q(2): 1, Q(3): 1}
    assert residual.degree == 0


def test_rational_roots_multiplicity_and_fractions():
    # (2x-1)^2 (x+3) = (1 - 4x + 4x^2)(3 + x)
    p = Polynomial([1, -4, 4]) * Polynomial([3, 1])
    roots, residual = rational_roots(p)
    assert dict(roots) == {Q(1, 2): 2, Q(-3): 1}
    assert residual.degree == 0


def test_rational_roots_zero_root():
    p = Polynomial([0, 0, 1])  # x^2
    roots, residual = rational_roots(p)
    assert dict(roots) == {Q(0): 2}
    assert residual.degree == 0


def test_rational_roots_leaves_residual():
    roots, residual = rational_roots(Polynomial([1, 0, 1]))  # x^2 + 1
    assert roots == ()
    assert residual == Polynomial([1, 0, 1])

    # (x-2)(x^2-2): one rational root, sqrt(2) stays unfactored
    p = Polynomial([-2, 0, 1]) * Polynomial([-2, 1])
    roots, residual = rational_roots(p)
    assert dict(roots) == {Q(2): 1}
    assert residual == Polynomial([-2, 0, 1])

    # sqrt(2) and sqrt(2 + 10^-6) are closer than one grid step 10^-6
    close = Polynomial([-2, 0, 1]) * Polynomial([-2000001, 0, 10 ** 6])
    roots, residual = rational_roots(close * Polynomial([-2, 1]))
    assert dict(roots) == {Q(2): 1}
    assert residual == close


def test_reconstruction_from_roots_and_residual():
    p = Polynomial([-2, 1, 2, -1])
    roots, residual = rational_roots(p)
    rebuilt = residual
    for root, mult in roots:
        rebuilt = rebuilt * Polynomial([-root, 1]) ** mult
    assert rebuilt == p


def test_product_evaluation_property():
    # evaluating a product agrees with multiplying evaluations
    rng = random.Random(1003)
    for _ in range(200):
        p = Polynomial(oracles.rand_fraction(rng) for _ in range(rng.randrange(1, 6)))
        q = Polynomial(oracles.rand_fraction(rng) for _ in range(rng.randrange(1, 6)))
        x = oracles.rand_fraction(rng)
        assert (p * q)(x) == p(x) * q(x)


def test_render():
    assert Polynomial([-2, 1, 2, -1]).render() == "-2 + x + 2x^2 - x^3"
    assert Polynomial([0, -5]).render() == "-5x"
    assert Polynomial([Q(-1, 2), 1]).render() == "-1/2 + x"
    assert Polynomial([0, 0, Q(1, 3)]).render() == "(1/3)x^2"
    assert Polynomial().render() == "0"
    assert str(Polynomial([1, 0, 1])) == "1 + x^2"
