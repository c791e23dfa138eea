"""Dense univariate polynomials over exact rationals, and their rational roots.

:class:`Polynomial` is an exact value type: coefficients, degree, evaluation,
rendering and integer form, with no ring arithmetic.  Coefficients are stored
in ascending order of degree with trailing zeros stripped, so
``Polynomial([-2, 1, 2, -1])`` is ``-2 + x + 2x^2 - x^3`` and the zero
polynomial has an empty coefficient tuple.

:func:`rational_roots` works on the primitive integer coefficients from
start to end.  The squarefree part s = q / gcd(q, q') comes from one integer
gcd (GCDHEU): the balanced base-xi digits of gcd(q(xi), q'(xi)) give a
candidate h, accepted only when checked exact division shows h | q and
h | q'; a refused candidate grows xi, and a resultant bounds the number of
tries.  Each root of s modulo one small prime is lifted p-adically to a
candidate y/L, and a candidate is a root exactly when the integer factor
L x - y divides out.  The residual is rescaled to the input's leading
coefficient once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .scalars import _check_ints, _cleared, _ratio, _render_sum, as_scalar


class Polynomial:
    """An exact polynomial value: its ``Fraction`` coefficients (ascending,
    trailing zeros stripped), degree, evaluation ``p(x)`` by Horner's scheme,
    rendering, and primitive integer form.  Equal coefficients make equal,
    equally hashed values; there are no arithmetic operators."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        cs = [as_scalar(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

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
        _check_ints("the power k", k)
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

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
        if isinstance(other, bool):  # a bool is no scalar, as in as_scalar
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self):
        if len(self._coeffs) <= 1:  # a constant hashes as the scalar it equals
            return hash(sum(self._coeffs))
        return hash(("Polynomial", self._coeffs))

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self):
        return self.render()

    # ---- integer form and rendering ------------------------------------------

    def primitive_integer_coefficients(self) -> tuple[int, ...]:
        """Scale to coprime integers (sign of the leading coefficient kept)."""
        if self.is_zero:
            return ()
        return _primitive(_cleared(self._coeffs)[0])

    def render(self, var: str = "x") -> str:
        """Ascending human form: ``-2 + x + 2x^2 - x^3``, the notation of
        :func:`scalars._render_sum` with the monomials ``var^k`` as names."""
        c = self._coeffs
        return _render_sum(
            c[0] if c else Fraction(0),
            [(var if k == 1 else f"{var}^{k}", x) for k, x in enumerate(c[1:], 1)],
        )


def _primitive(cs) -> tuple[int, ...]:
    """Integer coefficients without high zeros, over their content (sign kept)."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    g = gcd(*cs)
    return tuple(c // g for c in cs)


def _exact_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """a / b for integer polynomials (ascending), or None when b does not
    divide a over the integers: a quotient step that does not divide
    exactly, or a nonzero remainder."""
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[shift + len(b) - 1], b[-1])
        if r:
            return None
        quot[shift] = f
        for j, y in enumerate(b):
            rem[shift + j] -= f * y
    return None if any(rem[: len(b) - 1]) else tuple(quot)


def _divide_root(q: tuple[int, ...], y: int, den: int) -> tuple[int, ...]:
    """q / (den x - y) when y/den is a root of the integer polynomial ``q``
    (ascending), den > 0 and gcd(y, den) = 1; else the empty tuple.

    Synthetic division from the top: with s the quotient,
    ``s[i-1] = (q[i] + y s[i]) / den``, and the remainder ``q[0] + y s[0]``
    must vanish.  By Gauss's lemma the primitive factor den x - y divides q
    over Q only if the quotient is integral, so the first step that does not
    divide exactly proves y/den is no root, and the division stops there.
    """
    quot, carry = [], 0
    for c in reversed(q[1:]):
        s, rem = divmod(c + carry, den)
        if rem:
            return ()
        quot.append(s)
        carry = y * s
    if q[0] + carry:
        return ()
    return tuple(reversed(quot))


def _balanced_digits(n: int, base: int) -> list[int]:
    """The digits of n in base ``base``, lowest first, each in (-base/2, base/2]."""
    digits = []
    while n:
        n, r = divmod(n, base)
        if 2 * r > base:
            r -= base
            n += 1
        digits.append(r)
    return digits


def _squarefree_part(q: tuple[int, ...]) -> tuple[int, ...]:
    """q / gcd(q, q') for a primitive integer polynomial ``q`` of degree >= 1.

    GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet, J. Symbolic Comput.
    7, 1989): h, the primitive part of the polynomial G whose coefficients
    are the balanced base-xi digits of gamma = gcd(q(xi), q'(xi)), is
    accepted only when it divides q and q' exactly.  It is then the gcd for
    xi >= 2 m + 2, m = min(|q|, |q'|) in max norm (q' primitive): with
    gcd = h c, c(xi) divides gamma / h(xi) = cont(G), at most xi/2, while
    every root of c is below 1 + m <= xi/2 (Cauchy), so |c(xi)| > xi/2
    unless c = ±1.  An accepted proper divisor would leave repeated roots, and
    :func:`_simple_roots_mod_prime` would find no prime.

    Each refused try grows xi to 2 xi + 1, and some try is accepted: write
    q = g c1 and q' = g c2 with c1, c2 coprime.  Then gamma = |g(xi)| e, where
    e = gcd(c1(xi), c2(xi)) divides Res(c1, c2) != 0, so once
    xi > 2 |e| |g| the balanced digits are those of ±e g, and the candidate
    is g.  As xi >= 4 at least doubles per try, at most
    ceil(log2(|Res(c1, c2)| |g|)) + 1 tries are made: polynomial in the
    degree and the bit size, by Hadamard's bound on the resultant.
    """
    dq = _primitive([k * c for k, c in enumerate(q)][1:])
    xi = 2 * min(max(map(abs, q)), max(map(abs, dq))) + 2
    while True:
        gamma = gcd(_value(q, xi), _value(dq, xi))
        h = _primitive(_balanced_digits(gamma, xi))
        if (s := _exact_div(q, h)) and _exact_div(dq, h):
            return s
        xi = 2 * xi + 1


def _value(cs, x: int) -> int:
    """The integer polynomial ``cs`` (ascending) at the integer x."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _value_mod(cs, x: int, m: int) -> int:
    """The integer polynomial ``cs`` (ascending) at x, modulo m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod_prime(s: tuple[int, ...], ds: list[int], lead: int):
    """The first prime p not dividing ``lead`` at which every root of ``s``
    mod p is simple (``ds`` = s' is nonzero there), and those roots.

    A prime is rejected only if it divides lead * disc(s), which is nonzero
    for squarefree s, so at most log2|lead * disc(s)| + 1 primes are tried.
    Each prime's residues are scanned once, and the scan stops at the first
    repeated root.
    """
    p = 1
    while True:
        p += 1
        if not lead % p or any(not p % k for k in range(2, isqrt(p) + 1)):
            continue
        sp, roots = [c % p for c in s], []
        for r in range(p):
            if not _value_mod(sp, r, p):
                if not _value_mod(ds, r, p):
                    break
                roots.append(r)
        else:
            return p, roots


def _distinct_rational_roots(s: tuple[int, ...]) -> list[Fraction]:
    """A candidate y/L for each root of the squarefree primitive integer
    polynomial ``s`` modulo one prime, in decreasing order, by p-adic
    lifting (Loos 1983): every rational root of s is among them.

    A rational root is y/L with y an integer and L = |leading coefficient|,
    and |y| <= B = L + max|s_i| (Cauchy).  It reduces to a root of s mod p
    for a prime p not dividing L, and when every such root is simple, each
    lifts uniquely by Newton's step r <- r - s(r)/s'(r), which doubles the
    p-adic precision: O(log b) steps take the modulus m past 2B, for B of b
    bits.  Then y is the symmetric residue of L r mod m.  A root mod p with
    no rational root above it still gives a candidate, which is no root:
    the caller's checked division (:func:`_divide_root`) refuses it.
    """
    lead = abs(s[-1])
    bound = 2 * (lead + max(abs(c) for c in s))
    ds = [k * c for k, c in enumerate(s)][1:]
    p, roots = _simple_roots_mod_prime(s, ds, lead)
    found = []
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - _value_mod(s, r, m) * pow(_value_mod(ds, r, m), -1, m)) % m
        y = lead * r % m
        if 2 * y > m:
            y -= m
        found.append(y)
    return [_ratio(y, lead) for y in sorted(found, reverse=True)]


def rational_roots(p: Polynomial) -> tuple[tuple[tuple[Fraction, int], ...], Polynomial]:
    """All rational roots of ``p`` with multiplicity, plus the unfactored rest.

    Returns ``(roots, residual)`` where ``roots`` is a tuple of
    ``(root, multiplicity)`` pairs, zero first when it is a root and then
    the rest in decreasing order, and ``residual`` is what is left after
    dividing every rational root out.  ``residual`` has degree 0 exactly when
    ``p`` splits over the rationals.  The roots are those of the squarefree
    part s = p / gcd(p, p'), with the gcd read off one integer gcd of p and p'
    at a large enough point (GCDHEU), accepted only after checked exact
    division; a refused point is about doubled, and a resultant bounds the
    tries (:func:`_squarefree_part`).  They are found modulo the first prime
    p at which they are all simple (at most log2|lead(s) disc(s)| + 1 primes
    are tried) and lifted by Newton steps that double the p-adic precision,
    O(log b) steps for b-bit coefficients: time polynomial in the degree and
    the bit size.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every number as a root")
    roots, residual = _rational_roots(p.primitive_integer_coefficients(), p.coefficients[-1])
    return tuple(sorted(roots, key=lambda rm: rm[0] != 0)), residual


def _rational_roots(
    q: tuple[int, ...], lead: Fraction | int
) -> tuple[tuple[tuple[Fraction, int], ...], Polynomial]:
    """:func:`rational_roots` of the polynomial with primitive integer
    coefficients ``q`` and leading coefficient ``lead``, but with every root
    in decreasing order, zero in its place: zero is lifted and divided out
    like any other root.  The public wrapper moves zero first."""
    roots: list[tuple[Fraction, int]] = []
    if len(q) > 1:
        for root in _distinct_rational_roots(_squarefree_part(q)):
            mult = 0
            while quot := _divide_root(q, root.numerator, root.denominator):
                q = quot
                mult += 1
            if mult:
                roots.append((root, mult))

    # q is p over its rational roots, up to a constant: rescale it to lead(p)
    return tuple(roots), _rescaled(q, lead)


def _rescaled(q: tuple[int, ...], lead: Fraction | int) -> Polynomial:
    """The integer polynomial ``q`` (ascending) times lead / lead(q)."""
    return Polynomial([_ratio(c * lead.numerator, q[-1] * lead.denominator) for c in q])
