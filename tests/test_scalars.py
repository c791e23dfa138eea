from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinalg import (
    LinearForm,
    MalformedScalar,
    Polynomial,
    ZeroDenominator,
    as_scalar,
    format_scalar,
    parse_scalar,
)

import oracles


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Fraction(3)),
        ("-6", Fraction(-6)),
        ("+2", Fraction(2)),
        ("17/7", Fraction(17, 7)),
        ("-8/7", Fraction(-8, 7)),
        ("4/6", Fraction(2, 3)),
        ("0.25", Fraction(1, 4)),
        ("-3.5", Fraction(-7, 2)),
        ("  12  ", Fraction(12)),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("bad", ["", "x", "1/2/3", "1.2.3", "2e3", "3 4", "--5", "1/ 2"])
def test_parse_scalar_rejects_junk(bad):
    with pytest.raises(MalformedScalar):
        parse_scalar(bad)


def test_zero_denominator_is_its_own_error():
    with pytest.raises(ZeroDenominator):
        parse_scalar("3/0")


def test_format_scalar():
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(-8, 7)) == "-8/7"
    assert format_scalar(Fraction(0)) == "0"


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_as_scalar_coercions():
    assert as_scalar(5) == Fraction(5)
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert as_scalar("2/4") == Fraction(1, 2)


def test_as_scalar_refuses_floats_and_bools():
    with pytest.raises(TypeError):
        as_scalar(0.1)
    with pytest.raises(TypeError):
        as_scalar(True)


# ---- the c0 + c1 name1 - ... notation -----------------------------------------------

_COEFFICIENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFFICIENTS, max_size=6), st.sampled_from(["x", "t", "lam"]))
def test_polynomial_text_matches_an_independent_renderer(coefficients, var):
    p = Polynomial(coefficients)
    assert p.render(var) == oracles.render_polynomial(p.coefficients, var)


@settings(max_examples=300, deadline=None)
@given(
    _COEFFICIENTS,
    st.lists(st.tuples(st.sampled_from(["a", "b", "x1", "x10", "t"]), _COEFFICIENTS), max_size=5),
)
def test_linear_form_text_matches_an_independent_renderer(constant, terms):
    form = LinearForm(constant=constant, terms=tuple(terms))
    assert str(form) == oracles.render_sum(constant, terms)


def test_zero_texts():
    assert Polynomial().render("lam") == "0"
    assert str(LinearForm(constant=Fraction(0), terms=())) == "0"
    assert str(LinearForm(constant=Fraction(0), terms=(("a", Fraction(0)),))) == "0"
    assert str(LinearForm(constant=Fraction(-1, 2), terms=(("a", Fraction(0)),))) == "-1/2"
