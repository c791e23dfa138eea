import pickle
import random
import sys
from fractions import Fraction
from math import lcm

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
from qlinalg.scalars import _cleared, _ratio

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


# ---- the reader against its earlier three-regex form -----------------------------


def _outcome(read, text):
    """What ``read(text)`` does: its value's type and parts, or its error's
    class name and message."""
    try:
        x = read(text)
    except ValueError as e:
        return type(e).__name__, str(e)
    return type(x), x.numerator, x.denominator


_DIGITS = st.text(st.sampled_from("0123456789٣３"), max_size=6)
_TOKENS = st.one_of(
    st.text(st.sampled_from("0123456789٣３+-/._e Ex\t\u3000"), max_size=10),
    st.tuples(
        st.sampled_from(["", "+", "-", "--", " ", "+-"]),
        _DIGITS,
        st.sampled_from(["", "/", ".", "/-", "/+", "e", "_", "//", ". "]),
        _DIGITS,
        st.sampled_from(["", " ", "x", "/", ".5", "/3", "_0"]),
    ).map("".join),
)


@settings(max_examples=1000, deadline=None)
@given(_TOKENS)
def test_parse_scalar_matches_the_earlier_reader(text):
    assert _outcome(parse_scalar, text) == _outcome(oracles.parse_scalar_reference, text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("-0", Fraction(0)),
        ("+0/5", Fraction(0)),
        ("-0.50", Fraction(-1, 2)),
        ("0003/0004", Fraction(3, 4)),
        ("٣/３", Fraction(1)),
        ("1_000", MalformedScalar),
        ("1e3", MalformedScalar),
        ("1.", MalformedScalar),
        (".5", MalformedScalar),
        ("3/+4", MalformedScalar),
        ("1/-2", MalformedScalar),
        ("--1", MalformedScalar),
        ("1/2/3", MalformedScalar),
        ("", MalformedScalar),
        ("1/0", ZeroDenominator),
        ("0/0", ZeroDenominator),
        ("5/000", ZeroDenominator),
    ],
)
def test_pinned_tokens_read_as_before(text, expected):
    got = _outcome(parse_scalar, text)
    assert got == _outcome(oracles.parse_scalar_reference, text)
    if isinstance(expected, Fraction):
        assert got == (Fraction, expected.numerator, expected.denominator)
    else:
        assert got[0] == expected.__name__


# ---- the reader against the one-pattern grammar it replaces ------------------------

# digits weighted up so that every shape of token turns up; "٣" is a Unicode
# decimal digit (category Nd), "²" a digit that is not one
_FUZZ_ALPHABET = "0123456789" * 3 + "+-/._e" + " \t\n\u3000" + "٣²"


def test_parse_scalar_matches_the_one_pattern_grammar_on_seeded_strings():
    rng = random.Random(28001)
    kinds = set()
    for _ in range(100_000):
        text = "".join(rng.choices(_FUZZ_ALPHABET, k=rng.randint(0, 9)))
        got = _outcome(parse_scalar, text)
        assert got == _outcome(oracles.parse_scalar_by_pattern, text), text
        kinds.add(got[0] if got[0] != Fraction else ("/" in text, "." in text))
    assert kinds == {
        "MalformedScalar", "ZeroDenominator",
        (False, False), (True, False), (False, True),
    }


_LONG = [
    "1" * 4300,
    "-" + "9" * 4301,
    "+" + "2" * 5000 + "/7",
    "7/" + "3" * 4301,
    "4" * 4301 + "/" + "3" * 4302,
    "-" + "8" * 3000 + "." + "5" * 3000,
    "0." + "5" * 4301,
    "1/" + "0" * 4301,
]


def test_long_tokens_read_as_before():
    limit = sys.get_int_max_str_digits()
    try:
        # Python's own limit on int(str); here both readers meet it on the
        # same digit runs, so even the messages agree
        sys.set_int_max_str_digits(4300)
        for text in _LONG:
            assert _outcome(parse_scalar, text) == _outcome(oracles.parse_scalar_reference, text)
        sys.set_int_max_str_digits(0)
        for text in _LONG:
            got = _outcome(parse_scalar, text)
            assert got == _outcome(oracles.parse_scalar_reference, text)
            assert got[0] in (Fraction, "ZeroDenominator")
    finally:
        sys.set_int_max_str_digits(limit)


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


# ---- the int -> Fraction boundary ----------------------------------------------------


def _seeded_pairs(count):
    """``(n, d)`` with n of 0, +-1 or 1-400 bits and d of +-1 or 1-400 bits, each
    of either sign, often times a common factor; the edge pairs first."""
    rng = random.Random("ratio")
    yield from ((0, 1), (0, -1), (0, 7), (1, 1), (-1, 1), (1, -1), (-1, -1), (6, -4), (-6, 4))
    for _ in range(count):
        bits = rng.randint(1, 400), rng.randint(1, 400)
        n = rng.choice((0, 1, -1, rng.getrandbits(bits[0]) | 1 << (bits[0] - 1)))
        d = rng.choice((1, -1, rng.getrandbits(bits[1]) | 1 << (bits[1] - 1)))
        g = rng.choice((1, 1, 2, 6, rng.getrandbits(64) | 1))
        yield n * g * rng.choice((1, -1)), d * g * rng.choice((1, -1))


def test_ratio_builds_the_fraction_the_stdlib_builds():
    for n, d in _seeded_pairs(10_000):
        q, want = _ratio(n, d), Fraction(n, d)
        assert type(q) is Fraction and q == want
        assert (q.numerator, q.denominator) == (want.numerator, want.denominator)
        assert (hash(q), repr(q), format_scalar(q)) == (hash(want), repr(want), format_scalar(want))
        back = pickle.loads(pickle.dumps(q))
        assert type(back) is Fraction
        assert (back.numerator, back.denominator) == (want.numerator, want.denominator)
        assert repr(q + 1) == repr(want + 1)


@pytest.mark.parametrize("n", [0, 1, -7, 3**200])
def test_ratio_refuses_a_zero_denominator_as_the_stdlib_does(n):
    with pytest.raises(ZeroDivisionError) as ours:
        _ratio(n, 0)
    with pytest.raises(ZeroDivisionError) as stdlib:
        Fraction(n, 0)
    assert str(ours.value) == str(stdlib.value)


def _cleared_reference(values):
    pairs = [x.as_integer_ratio() for x in values]
    s = lcm(*(d for _, d in pairs))
    return [n * s // d for n, d in pairs], s


def test_cleared_matches_an_integer_ratio_reading():
    rng = random.Random("cleared")
    pairs = _seeded_pairs(20_000)
    for _ in range(2_000):
        row = tuple(Fraction(*next(pairs)) for _ in range(rng.randint(0, 9)))
        assert _cleared(row) == _cleared_reference(row)
        assert _cleared(list(row)) == _cleared_reference(row)


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
