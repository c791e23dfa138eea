"""Exact scalars.

Every number in this package is a ``fractions.Fraction``.  Floats are refused
everywhere: a float has already lost the exactness this library exists to
keep, so coercion raises instead of guessing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import MalformedScalar, ZeroDenominator

Q = Fraction

_INT = re.compile(r"[+-]?\d+\Z")
_RATIO = re.compile(r"([+-]?\d+)/(\d+)\Z")
_DECIMAL = re.compile(r"[+-]?\d+\.\d+\Z")


def parse_scalar(text: str) -> Fraction:
    """Read an integer, a ``p/q`` fraction, or a terminating decimal.

    >>> parse_scalar("17/7")
    Fraction(17, 7)
    >>> parse_scalar("-0.25")
    Fraction(-1, 4)
    >>> parse_scalar("6")
    Fraction(6, 1)
    """
    s = text.strip()
    if _INT.match(s) or _DECIMAL.match(s):
        return Fraction(s)
    m = _RATIO.match(s)
    if m:
        if int(m.group(2)) == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return Fraction(s)
    raise MalformedScalar(f"not an exact scalar: {text!r}")


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


def _cleared(values) -> tuple[list[int], int]:
    """Integers ``ints`` and the lcm ``s`` of the denominators of the
    sequence ``values``, with ``values[i] == ints[i] / s``."""
    dens = [x.denominator for x in values]
    s = lcm(*dens)
    if s == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (s // d) for x, d in zip(values, dens)], s
