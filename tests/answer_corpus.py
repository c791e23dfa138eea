"""The answer corpus: every public algorithm, regime by regime, with the
standard library alone, so that any supported interpreter can replay it.

``tests/golden/answers.txt`` holds one line per function and regime: the
function, the regime, the number of calls and the SHA-256 of their reprs in
order (a ``LinAlgError`` counts as its type and message).  Each function
draws its own inputs from ``random.Random(f"answers/{name}/{regime}")``, so
extending one list reshuffles no other.  ``tests/test_answers.py`` checks
the file; after an intended change of answers, rewrite it with::

    PYTHONPATH=src python tests/answer_corpus.py

and name each changed line and its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from qlinalg import (
    FORMS,
    LinAlgError,
    LinearMap,
    Matrix,
    adjoint,
    basis_of_span,
    char_poly,
    cofactor_expand,
    cofactor_matrix,
    cramer_solve,
    det,
    det_cofactor,
    det_with_effects,
    diagonalize,
    eigen_summary,
    extend_to_basis,
    from_basis_images,
    fundamental_subspaces,
    gram_schmidt,
    independence,
    inverse_adjoint,
    inverse_entry,
    inverse_gauss_jordan,
    matrix_power,
    parse_linear_form,
    rational_roots,
    reduce,
    solve,
    solve_with_trace,
    span_contains,
)

import oracles

ANSWERS = Path(__file__).parent / "golden" / "answers.txt"

# Entry regimes come square unless the function takes any shape; the
# others mix small integers and p/q entries.
SQUARE = ("integer", "p/q", "long", "square", "rank-deficient", "zero-columns")
ANY = SQUARE + ("wide", "tall")
EIGEN = SQUARE + ("split",)
COEFFICIENTS = ("integer", "p/q", "long")


def _entry(rng, regime):
    if regime == "integer":
        return rng.randint(-9, 9)
    if regime == "long":
        return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(64, 200))
    if regime == "p/q" or rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randint(-9, 9)


def _split(rng, n):
    """P T P^-1: T upper triangular with small rational eigenvalues, some
    repeated, and P unit lower triangular, so every eigenvalue is rational."""
    values = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]
    values = [rng.choice(values[: i + 1]) for i in range(n)]
    t = [[values[i] if i == j else rng.randint(-1, 1) * (i < j) for j in range(n)] for i in range(n)]
    p = [[1 if i == j else rng.randint(-2, 2) * (i > j) for j in range(n)] for i in range(n)]
    return oracles.naive_matmul(oracles.naive_matmul(p, t), oracles.inverse_by_elimination(p))


def _rows(rng, regime, square=True, top=4):
    """The rows of one input matrix of the regime, at most ``top`` a side."""
    m = n = rng.randint(1, top)
    if regime == "split":
        return _split(rng, n)
    if regime in ("wide", "tall"):
        m, n = sorted(rng.sample(range(1, top + 2), 2))
        if regime == "tall":
            m, n = n, m
    elif not square:
        m = rng.randint(1, top)
    if regime == "rank-deficient":
        r = rng.randint(0, min(m, n) - 1)
        right = [[_entry(rng, regime) for _ in range(n)] for _ in range(r)]
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        return [[sum(x * row[j] for x, row in zip(lrow, right)) for j in range(n)] for lrow in left]
    rows = [[_entry(rng, regime) for _ in range(n)] for _ in range(m)]
    if regime == "zero-columns":
        for c in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[c] = 0
    return rows


def _matrix(rng, regime, square=True, top=4):
    return Matrix(_rows(rng, regime, square, top))


def _vector(rng, regime, n):
    return [_entry(rng, regime) for _ in range(n)]


def _answer(f, *args, **kwargs) -> str:
    try:
        return repr(f(*args, **kwargs))
    except LinAlgError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---- one call, or a few, per drawn input ------------------------------------------


def _on_square(f, top=4):
    return lambda rng, regime: [_answer(f, _matrix(rng, regime, top=top))]


def _on_any(f):
    return lambda rng, regime: [_answer(f, _matrix(rng, regime, square=False))]


def _on_rows(f):
    return lambda rng, regime: [_answer(f, _rows(rng, regime, square=False))]


def _cofactor_expand(rng, regime):
    a = _matrix(rng, regime, top=6)
    line = rng.randrange(a.rows)
    return [_answer(cofactor_expand, a, **{rng.choice(("row", "col")): line})]


def _inverse_entry(rng, regime):
    a = _matrix(rng, regime)
    return [_answer(inverse_entry, a, rng.randrange(a.rows), rng.randrange(a.rows))]


def _cramer_solve(rng, regime):
    a = _matrix(rng, regime)
    return [_answer(cramer_solve, a, _vector(rng, regime, a.rows))]


def _system(f):
    """``f(a, b)`` with ``b = a x`` half the time, so most of those are consistent."""

    def calls(rng, regime):
        rows = _rows(rng, regime, square=False)
        if rng.random() < 0.5:
            x = _vector(rng, regime, len(rows[0]))
            b = [sum(a * v for a, v in zip(row, x)) for row in rows]
        else:
            b = _vector(rng, regime, len(rows))
        return [_answer(f, Matrix(rows), b)]

    return calls


def _reduce(form):
    return _on_any(lambda a: reduce(a, form))


def _span_contains(rng, regime):
    rows = _rows(rng, regime, square=False)
    if rng.random() < 0.5:
        q = [sum(c * row[j] for c, row in zip(_vector(rng, "integer", len(rows)), rows))
             for j in range(len(rows[0]))]
    else:
        q = _vector(rng, regime, len(rows[0]))
    return [_answer(span_contains, basis_of_span(rows), q)]


def _matrix_power(rng, regime):
    a = _matrix(rng, regime)
    return [_answer(matrix_power, a, k) for k in range(-3, 6)]


def _rational_roots(rng, regime):
    """A product of (x - r) factors, with multiplicities, times a cofactor."""
    cofactor = [_entry(rng, regime) or 1 for _ in range(rng.randint(1, 3))]
    roots = [(Fraction(_entry(rng, regime)), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    return [_answer(rational_roots, oracles.poly_product(cofactor, roots=roots))]


def _parse_linear_form(rng, regime):
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = Fraction(_entry(rng, regime))
        name = rng.choice(("", "a", "b", "x1", "x2", "x10"))
        star = "*" if name and rng.random() < 0.3 else ""
        terms.append(f"{'-' if c < 0 else '+'} {abs(c)}{star}{name}")
    return [_answer(parse_linear_form, " ".join(terms).removeprefix("+ "))]


def _from_basis_images(rng, regime):
    points = _rows(rng, regime)  # n points of Q^n, except in the wide and tall regimes
    width = rng.randint(1, 4)
    return [_answer(from_basis_images, [(p, _vector(rng, regime, width)) for p in points])]


# name -> (regimes, calls per regime, one draw's answers)
SUITE = {
    "det": (SQUARE, 20, _on_square(det)),
    "det_with_effects": (SQUARE, 20, _on_square(det_with_effects)),
    "det_cofactor": (SQUARE, 20, _on_square(det_cofactor, top=6)),
    "cofactor_expand": (SQUARE, 20, _cofactor_expand),
    "cofactor_matrix": (SQUARE, 20, _on_square(cofactor_matrix)),
    "adjoint": (SQUARE, 20, _on_square(adjoint)),
    "inverse_adjoint": (SQUARE, 20, _on_square(inverse_adjoint)),
    "inverse_entry": (SQUARE, 20, _inverse_entry),
    "cramer_solve": (SQUARE, 20, _cramer_solve),
    "inverse_gauss_jordan": (SQUARE, 20, _on_square(inverse_gauss_jordan)),
    "solve": (ANY, 20, _system(solve)),
    "solve_with_trace": (ANY, 20, _system(solve_with_trace)),
    **{f"reduce[{form}]": (ANY, 20, _reduce(form)) for form in FORMS},
    "fundamental_subspaces": (ANY, 20, _on_any(fundamental_subspaces)),
    "basis_of_span": (ANY, 20, _on_rows(basis_of_span)),
    "extend_to_basis": (ANY, 20, _on_rows(extend_to_basis)),
    "independence": (ANY, 20, _on_rows(independence)),
    "span_contains": (ANY, 20, _span_contains),
    "char_poly": (EIGEN, 20, _on_square(char_poly)),
    "rational_roots": (COEFFICIENTS, 40, _rational_roots),
    "eigen_summary": (EIGEN, 20, _on_square(eigen_summary)),
    "diagonalize": (EIGEN, 20, _on_square(diagonalize)),
    "matrix_power": (EIGEN, 5, _matrix_power),
    "gram_schmidt": (ANY, 20, _on_rows(gram_schmidt)),
    "LinearMap.kernel": (ANY, 20, _on_any(lambda a: LinearMap(a).kernel())),
    "LinearMap.range": (ANY, 20, _on_any(lambda a: LinearMap(a).range())),
    "parse_linear_form": (COEFFICIENTS, 40, _parse_linear_form),
    "from_basis_images": (ANY, 20, _from_basis_images),
}

KEYS = [(name, regime) for name, (regimes, _, _) in SUITE.items() for regime in regimes]


def answer_line(name: str, regime: str) -> str:
    _, draws, calls = SUITE[name]
    rng = random.Random(f"answers/{name}/{regime}")
    reprs = [text for _ in range(draws) for text in calls(rng, regime)]
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    return f"{name} {regime} {len(reprs)} {digest}"


def recorded() -> dict[tuple[str, str], str]:
    lines = ANSWERS.read_text().splitlines()
    return {tuple(line.split()[:2]): line for line in lines}


if __name__ == "__main__":
    ANSWERS.write_text("".join(answer_line(*key) + "\n" for key in KEYS))
    sys.exit(0)
