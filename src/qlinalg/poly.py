"""Dense univariate polynomials over exact rationals.

Coefficients are stored in ascending order of degree with trailing zeros
stripped, so ``Polynomial([-2, 1, 2, -1])`` is ``-2 + x + 2x^2 - x^3`` and the
zero polynomial has an empty coefficient tuple.

:func:`rational_roots` works on the primitive integer coefficients from
start to end: the gcd with the derivative and the Sturm sequence come from
integer pseudo-remainders, and each root y/L is divided out exactly as the
integer factor L x - y.  The residual is rescaled to the input's leading
coefficient once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import _cleared, as_scalar, format_scalar


class Polynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        cs = [as_scalar(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([c])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored degree)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    # ---- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial([1])
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x) -> Fraction:
        """Evaluate by Horner's scheme."""
        x = as_scalar(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(("Polynomial", self._coeffs))

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self):
        return self.render()

    # ---- division ------------------------------------------------------------

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other._coeffs) + 1, 0)
        lead = other._coeffs[-1]
        for top in range(len(rem) - 1, len(other._coeffs) - 2, -1):
            factor = rem[top] / lead
            shift = top - (len(other._coeffs) - 1)
            quot[shift] = factor
            for j, b in enumerate(other._coeffs):
                rem[shift + j] -= factor * b
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def deflate(self, root) -> "Polynomial":
        """Divide out one factor of (x - root); the root must actually be one."""
        root = as_scalar(root)
        quot, rem = divmod(self, Polynomial([-root, 1]))
        if not rem.is_zero:
            raise ValueError(f"{format_scalar(root)} is not a root")
        return quot

    # ---- integer form and rational roots --------------------------------------

    def primitive_integer_coefficients(self) -> tuple[int, ...]:
        """Scale to coprime integers (sign of the leading coefficient kept)."""
        if self.is_zero:
            return ()
        return _primitive(_cleared(self._coeffs)[0])

    def render(self, var: str = "x") -> str:
        """Ascending human form: ``-2 + x + 2x^2 - x^3``."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = _term(abs(c), k, var)
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
        return " ".join(parts)


def _term(mag: Fraction, k: int, var: str) -> str:
    if k == 0:
        return format_scalar(mag)
    power = var if k == 1 else f"{var}^{k}"
    if mag == 1:
        return power
    if mag.denominator == 1:
        return f"{mag}{power}"
    return f"({mag}){power}"


def _as_poly(obj) -> Polynomial:
    if isinstance(obj, Polynomial):
        return obj
    return Polynomial([as_scalar(obj)])


def poly_eval(p: Polynomial, x) -> Fraction:
    """Function form of ``p(x)``."""
    return p(x)


def _primitive(cs) -> tuple[int, ...]:
    """Integer coefficients without high zeros, over their content (sign kept)."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    g = gcd(*cs)
    return tuple(c // g for c in cs)


def _pseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive form of |lead(b)|^(deg a - deg b + 1) * (a mod b).

    b is first given a positive leading coefficient (a mod -b is a mod b),
    so the result is a positive multiple of the remainder over the
    rationals: its signs, which Sturm's theorem reads, are unchanged.
    """
    if b[-1] < 0:
        b = tuple(-y for y in b)
    rem = list(a)
    for top in range(len(a) - 1, len(b) - 2, -1):
        f, shift = rem[top], top - len(b) + 1
        rem = [b[-1] * x for x in rem[:top]]
        for j, y in enumerate(b[:-1]):
            rem[shift + j] -= f * y
    return _primitive(rem)


def _exact_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b for integer polynomials where b divides a over the integers."""
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        f = quot[shift] = rem[shift + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            rem[shift + j] -= f * y
    return tuple(quot)


def _sturm_chain(s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """s, s' and the negated pseudo-remainders after them, each primitive,
    down to the last nonzero one: a multiple of gcd(s, s')."""
    chain = [s, _primitive([k * c for k, c in enumerate(s)][1:])]
    while len(chain[-1]) > 1 and (rem := _pseudo_rem(chain[-2], chain[-1])):
        chain.append(tuple(-c for c in rem))
    return chain


def _sign_at(cs: tuple[int, ...], num: int, den: int) -> int:
    """Sign of the integer polynomial ``cs`` (ascending) at num/den, den > 0.

    Homogeneous Horner: den^d * p(num/den) in integers only.
    """
    acc, scale = 0, 1
    for c in reversed(cs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _distinct_rational_roots(s: tuple[int, ...]) -> list[Fraction]:
    """Every rational root of the squarefree primitive integer polynomial ``s``.

    A rational root is y/L with y an integer and L = |leading coefficient|,
    and |y| <= L + max|s_i| (Cauchy).  Roots are isolated on that grid by a
    Sturm sequence, probed only at half-integer y, which no rational root
    occupies; an interval holding a single grid point is tested directly,
    since it may still hold two close irrational roots.
    """
    lead = abs(s[-1])
    chain = _sturm_chain(s)

    def changes(e: int) -> int:
        # sign changes of the Sturm sequence at x = (e + 1/2) / L
        signs = [v for v in (_sign_at(cs, 2 * e + 1, 2 * lead) for cs in chain) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    bound = lead + max(abs(c) for c in s)
    found = []
    pending = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count == 1:
            # one root left: bisect on the sign of s alone
            s_lo = _sign_at(s, 2 * lo + 1, 2 * lead)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _sign_at(s, 2 * mid + 1, 2 * lead) == s_lo:
                    lo = mid
                else:
                    hi = mid
        if hi - lo == 1:
            if _sign_at(s, hi, lead) == 0:
                found.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        pending.append((lo, mid, v_lo, v_mid))
        pending.append((mid, hi, v_mid, v_hi))
    return found


def rational_roots(p: Polynomial) -> tuple[tuple[tuple[Fraction, int], ...], Polynomial]:
    """All rational roots of ``p`` with multiplicity, plus the unfactored rest.

    Returns ``(roots, residual)`` where ``roots`` is a tuple of
    ``(root, multiplicity)`` pairs in no specified order (``eigenvalues``
    sorts them decreasing) and ``residual`` is what is left after dividing
    every rational root out.  ``residual`` has degree 0 exactly when ``p``
    splits over the rationals.  The roots are those of the squarefree part
    p / gcd(p, p'), isolated by a Sturm sequence in time polynomial in the
    degree and the coefficient bit size.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every number as a root")
    return _rational_roots(p.primitive_integer_coefficients(), p.coefficients[-1])


def _rational_roots(
    q: tuple[int, ...], lead: Fraction
) -> tuple[tuple[tuple[Fraction, int], ...], Polynomial]:
    """:func:`rational_roots` of the polynomial with primitive integer
    coefficients ``q`` and leading coefficient ``lead``."""
    roots: list[tuple[Fraction, int]] = []

    mult = 0
    while len(q) > 1 and q[0] == 0:
        q = q[1:]
        mult += 1
    if mult:
        roots.append((Fraction(0), mult))

    if len(q) > 1:
        for root in _distinct_rational_roots(_exact_div(q, _sturm_chain(q)[-1])):
            factor = (-root.numerator, root.denominator)
            mult = 0
            while len(q) > 1 and _sign_at(q, root.numerator, root.denominator) == 0:
                q = _exact_div(q, factor)
                mult += 1
            roots.append((root, mult))

    # q is p over its rational roots, up to a constant: rescale it to lead(p)
    residual = [Fraction(c * lead.numerator, q[-1] * lead.denominator) for c in q]
    return tuple(roots), Polynomial(residual)
