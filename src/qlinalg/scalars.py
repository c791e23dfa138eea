"""Exact scalars.

Every number in this package is a ``fractions.Fraction``.  Floats are refused
everywhere: a float has already lost the exactness this library exists to
keep, so coercion raises instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MalformedScalar, ZeroDenominator

# the unsigned scalar of parse_scalar's grammar, for coordinate formulas
_NUMBER = r"(\d+)(?:/(\d+)|\.(\d+))?"


def parse_scalar(text: str) -> Fraction:
    r"""Read an integer, a ``p/q`` fraction, or a terminating decimal.

    After surrounding whitespace is stripped, the text must be, in full,
    ``([+-]?)(\d+)(?:/(\d+)|\.(\d+))?``: an optional sign, digits (any
    Unicode decimal digits, as ``str.isdecimal`` tests), then optionally
    ``/`` and an unsigned denominator or ``.`` and fraction digits.  So
    ``1_000``, ``1e3``, ``1.``, ``.5`` and ``3/-4`` raise
    :class:`MalformedScalar`, and a zero denominator raises
    :class:`ZeroDenominator`.

    >>> parse_scalar("17/7")
    Fraction(17, 7)
    >>> parse_scalar("-0.25")
    Fraction(-1, 4)
    >>> parse_scalar("6")
    Fraction(6, 1)
    """
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    whole, mark, rest = body[len(sign):].partition("/")
    if not mark:
        whole, mark, rest = whole.partition(".")
    if not (whole.isdecimal() and (rest.isdecimal() or not mark)):
        raise MalformedScalar(f"not an exact scalar: {text!r}")
    if not mark:
        return Fraction(int(sign + whole))  # one int, so no gcd
    if mark == ".":
        n = int(whole) * 10 ** len(rest) + int(rest)
        return _ratio(-n if sign == "-" else n, 10 ** len(rest))
    if not (q := int(rest)):
        raise ZeroDenominator(f"zero denominator in {text!r}")
    return _ratio(int(sign + whole), q)


def format_scalar(q: Fraction) -> str:
    """Render ``Fraction(3)`` as ``3`` and ``Fraction(-8, 7)`` as ``-8/7``."""
    return str(q)


def _render_sum(constant: Fraction, terms) -> str:
    """``constant + c1 name1 - ...`` for ``terms`` of ``(name, c)`` pairs: zero
    coefficients dropped, a coefficient of magnitude 1 left out, a non-integer
    one in parentheses; the constant shown when nonzero or alone; else ``0``."""
    parts = []
    if constant != 0 or not terms:
        parts.append(format_scalar(constant))
    for name, c in terms:
        if c == 0:
            continue
        lead = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        coef = "" if mag == 1 else (
            format_scalar(mag) if mag.denominator == 1 else f"({format_scalar(mag)})"
        )
        piece = f"{coef}{name}"
        parts.append(f"{lead} {piece}" if parts else f"{lead}{piece}")
    return " ".join(parts) if parts else "0"


def as_scalar(value) -> Fraction:
    """Coerce an int, Fraction, or scalar string; refuse floats loudly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int, but almost surely a bug here
        raise TypeError("refusing to treat a bool as a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise TypeError(
            f"floats are not exact: got {value!r}; pass an int, Fraction, or string"
        )
    raise TypeError(f"cannot make an exact scalar from {type(value).__name__}")


def _check_ints(what: str, *values) -> None:
    """Refuse a value that is not an int, or is a bool, as :func:`as_scalar`
    refuses a float or a bool: ``True`` is neither row 1 nor size 1."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{what} must be an int, got {v!r}")


def _cleared(values) -> tuple[list[int], int]:
    """Integers ``ints`` and the lcm ``s`` of the denominators of the
    sequence of ``Fraction``s ``values``, with ``values[i] == ints[i] / s``."""
    s = lcm(*[x._denominator for x in values])
    if s == 1:
        return [x._numerator for x in values], 1
    return [x._numerator * (s // x._denominator) for x in values], s


def _ratio(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints ``n`` and ``d``, the one way every result
    is built: one gcd, the sign moved to the numerator, and the two slots
    filled, skipping ``Fraction.__new__``'s dispatch on argument types."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n // g, d // g
    return q
