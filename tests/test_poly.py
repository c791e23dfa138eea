import random
from fractions import Fraction

from qlinalg import Polynomial, rational_roots
from qlinalg.poly import _simple_roots_mod_prime, _squarefree_part

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


def test_a_constant_hashes_as_the_scalar_it_equals():
    # equal objects must hash equal, so a constant finds and is found by
    # its scalar in dicts and sets, either way round
    for c in (0, 3, Q(-1, 2)):
        p = Polynomial([c])
        assert p == c and hash(p) == hash(c)
        assert {c: "s"}.get(p) == "s" and {p: "p"}.get(c) == "p"
        assert p in {c} and c in {p}
        assert len({p, c}) == 1
    assert hash(Polynomial()) == hash(0)
    assert Polynomial([1, 2]) in {Polynomial([1, 2])}
    assert Polynomial([1, 2]) not in {1, 2, (1, 2)}


def test_a_bool_is_not_compared_as_a_constant():
    # a bool is no scalar, so equality falls back to identity instead of
    # raising from the coercion
    p = Polynomial([1])
    assert not p == True  # noqa: E712
    assert p != True  # noqa: E712
    assert p not in [True]
    assert {True: "a"}.get(p) is None
    assert Polynomial() != False  # noqa: E712


def test_evaluation_is_exact():
    p = Polynomial([-2, 1, 2, -1])
    # -2 + 3 + 18 - 27
    assert p(3) == -8
    assert p(Q(1, 2)) == Q(-2) + Q(1, 2) + Q(1, 2) - Q(1, 8)


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
    p = oracles.poly_product([1, -4, 4], [3, 1])
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
    p = oracles.poly_product([-2, 0, 1], [-2, 1])
    roots, residual = rational_roots(p)
    assert dict(roots) == {Q(2): 1}
    assert residual == Polynomial([-2, 0, 1])

    # sqrt(2) and sqrt(2 + 10^-6) are closer than one grid step 10^-6
    close = oracles.poly_product([-2, 0, 1], [-2000001, 0, 10 ** 6])
    roots, residual = rational_roots(oracles.poly_product(close.coefficients, [-2, 1]))
    assert dict(roots) == {Q(2): 1}
    assert residual == close


def test_reconstruction_from_roots_and_residual():
    p = Polynomial([-2, 1, 2, -1])
    roots, residual = rational_roots(p)
    assert oracles.poly_product(residual.coefficients, roots=roots) == p


def test_render():
    assert Polynomial([-2, 1, 2, -1]).render() == "-2 + x + 2x^2 - x^3"
    assert Polynomial([0, -5]).render() == "-5x"
    assert Polynomial([Q(-1, 2), 1]).render() == "-1/2 + x"
    assert Polynomial([0, 0, Q(1, 3)]).render() == "(1/3)x^2"
    assert Polynomial().render() == "0"
    assert str(Polynomial([1, 0, 1])) == "1 + x^2"


def _collected_then_checked(s, ds, lead):
    """The first prime not dividing ``lead`` at which every root of ``s`` is
    simple, found by collecting every root mod p and then checking each."""
    p = 1
    while True:
        p += 1
        if lead % p == 0 or any(p % k == 0 for k in range(2, p)):
            continue
        roots = [r for r in range(p) if sum(c * r**i for i, c in enumerate(s)) % p == 0]
        if all(sum(c * r**i for i, c in enumerate(ds)) % p for r in roots):
            return p, roots


def test_the_prime_search_matches_collecting_every_root_first():
    rng = random.Random(16201)
    rejected = 0
    for _ in range(150):
        roots = [(Q(rng.randint(-20, 20), rng.randint(1, 6)), 1) for _ in range(rng.randint(1, 6))]
        cofactor = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2))] + [rng.randint(1, 5)]
        q = oracles.poly_product(cofactor, roots=roots).primitive_integer_coefficients()
        if len(q) < 2:
            continue
        s = _squarefree_part(q)
        ds = [k * c for k, c in enumerate(s)][1:]
        found = _simple_roots_mod_prime(s, ds, abs(s[-1]))
        assert found == _collected_then_checked(s, ds, abs(s[-1])), q
        rejected += found[0] > 2 and abs(s[-1]) % 2 == 1
    assert rejected > 20  # many searches went past a prime with a repeated root
