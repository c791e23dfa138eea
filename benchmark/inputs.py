"""Seeded inputs whose answers are known by construction.

Every input is built from factors chosen first, so the expected answer comes
from the construction and never from running qlinalg.  The program only sees
the matrix text of each :class:`Case`.

Dense inputs are ``A = S L U`` (nonsingular) or ``A = L [U  U F; 0  0]``
(rank r): ``L`` is unit lower triangular with nonzero entries below the
diagonal, ``U`` upper triangular with nonzero entries on and above it, and
``S`` swaps a fixed set of adjacent row pairs whose ``L`` entry is zero.
On such a product the elimination's pivot tests never meet an accidental
zero: the entry tested at step k is ``L[i][k] * U[k][k]``, so the number of
row operations qlinalg performs is fixed by the shape alone and the layer
counts are the same on every seed.

Eigen inputs are ``P J P^-1`` with a fixed ``J`` per slot and a seeded
unimodular ``P``, so the characteristic polynomial (and the work of the
rational-root search) is the same on every seed while the entries vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact
from exact import Q


@dataclass
class Case:
    """One operation: what to call, on which text, and what must come back."""

    op: str
    text: str
    label: str
    expect: dict = field(default_factory=dict)
    args: tuple = ()


# ---- entry regimes ---------------------------------------------------------

REGIMES = {
    # small integers
    "int": {
        "off": tuple(Q(v) for v in (-2, -1, 1, 2)),
        "diag": tuple(Q(v) for v in (-3, -2, 2, 3)),
    },
    # p/q with mixed denominators
    "pq": {
        "off": tuple(Q(s * p, q) for s in (-1, 1) for p in (1, 2, 3) for q in (1, 2, 3, 5)),
        # never 1, so every pivot is scaled
        "diag": tuple(
            Q(s * p, q) for s in (-1, 1) for p in (1, 3, 4) for q in (2, 3, 5) if p != q
        ),
    },
}


def _unit_lower(rng, n, pool, zeros=()):
    return [
        [Q(1) if j == i else (Q(0) if j > i or (i, j) in zeros else rng.choice(pool))
         for j in range(n)]
        for i in range(n)
    ]


def _upper(rng, rows, cols, off, diag):
    return [
        [rng.choice(diag) if j == i else (rng.choice(off) if j > i else Q(0))
         for j in range(cols)]
        for i in range(rows)
    ]


def _vector(rng, n, pool):
    return [rng.choice(pool) for _ in range(n)]


def swap_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Adjacent row pairs exchanged in a nonsingular input (fixed by n)."""
    mid = 2 * (n // 4)
    pairs: list[tuple[int, int]] = []
    for pair in ((0, 1), (mid, mid + 1), (n - 2, n - 1)):
        if all(not set(pair) & set(kept) for kept in pairs):
            pairs.append(pair)
    return tuple(pairs)


def nonsingular(rng, n, regime):
    """``A = S L U`` and its determinant, known from the factors."""
    pools = REGIMES[regime]
    pairs = swap_pairs(n)
    L = _unit_lower(rng, n, pools["off"], zeros={(j, i) for i, j in pairs})
    U = _upper(rng, n, n, pools["off"], pools["diag"])
    A = exact.matmul(L, U)
    for i, j in pairs:
        A[i], A[j] = A[j], A[i]
    d = Q((-1) ** len(pairs))
    for k in range(n):
        d *= U[k][k]
    return A, d


def deficient(rng, n, rank, regime):
    """``A = L R`` with R of the given rank; returns (A, L, R)."""
    pools = REGIMES[regime]
    k = n - rank
    if not 0 < k <= rank:
        raise ValueError("the construction needs 0 < nullity <= rank")
    U = _upper(rng, rank, rank, pools["off"], pools["diag"])
    # The null basis the library returns is (-F^T | I); building -F^T as a
    # product of triangular factors keeps its own validation reduction free
    # of accidental zeros too.
    G = exact.matmul(
        _unit_lower(rng, k, pools["off"]), _upper(rng, k, rank, pools["off"], pools["diag"])
    )
    F = [[-G[j][i] for j in range(k)] for i in range(rank)]
    UF = exact.matmul(U, F)
    R = [U[i] + UF[i] for i in range(rank)] + [[Q(0)] * n for _ in range(k)]
    L = _unit_lower(rng, n, pools["off"])
    return exact.matmul(L, R), L, R


# ---- dense-elim ----------------------------------------------------------------

DENSE_N = 16
DENSE_RANK = 13


def dense_cases(seed: int) -> list[Case]:
    n, rank = DENSE_N, DENSE_RANK
    rng = random.Random(f"dense-elim/{seed}")
    cases = []
    for regime in ("int", "pq"):
        pools = REGIMES[regime]
        A, d = nonsingular(rng, n, regime)
        cases.append(Case("det", exact.render(A), f"det/{regime}", {"det": d}))

        A, _ = nonsingular(rng, n, regime)
        cases.append(Case("inverse_gauss_jordan", exact.render(A), f"inverse/{regime}", {"A": A}))

        for _ in range(2):
            A, _ = nonsingular(rng, n, regime)
            x = _vector(rng, n, pools["off"])
            cases.append(Case(
                "solve", exact.render_augmented(A, exact.matvec(A, x)),
                f"solve-unique/{regime}", {"kind": "unique", "x": x},
            ))

        A, _, _ = deficient(rng, n, rank, regime)
        x = _vector(rng, n, pools["off"])
        b = exact.matvec(A, x)
        cases.append(Case(
            "solve", exact.render_augmented(A, b), f"solve-infinite/{regime}",
            {"kind": "infinite", "A": A, "b": b, "rank": rank},
        ))

        A, L, R = deficient(rng, n, rank, regime)
        delta = rng.choice(pools["diag"])
        c = exact.matvec(R, x)
        c[rank] += delta
        cases.append(Case(
            "solve", exact.render_augmented(A, exact.matvec(L, c)),
            f"solve-inconsistent/{regime}",
            {"kind": "inconsistent", "row": rank, "value": delta},
        ))

        for _ in range(2):
            A, _, _ = deficient(rng, n, rank, regime)
            cases.append(Case(
                "fundamental_subspaces", exact.render(A), f"fundamentals/{regime}",
                {"A": A, "rank": rank},
            ))
    return cases


# ---- eigen-small -----------------------------------------------------------------

# Blocks of J: (EIG, lam) a 1x1 eigenvalue, (JORDAN, lam, s) a Jordan block
# of size s, (QUAD, t, d) the companion matrix of the irreducible x^2 - t x + d.
# Every slot is 6x6 and is drawn twice per seed: the operations' costs then
# form one continuous band, so the latency quantiles do not jump between
# groups of unlike operations from one seed to the next.  The last slot's
# primitive char poly has a 35-bit constant term, so the divisor search in
# rational_roots takes 19-42% of its operations' time (1-3% on the others).
EIG, JORDAN, QUAD = "e", "j", "q"
EIGEN_SLOTS = (
    ("diagonalizable", ((EIG, Q(3)), (EIG, Q(-2)), (EIG, Q(-2)), (EIG, Q(1, 3)), (EIG, Q(1)),
                        (EIG, Q(5, 2)))),
    ("diagonalizable", ((EIG, Q(2)), (EIG, Q(2)), (EIG, Q(2)), (EIG, Q(-1)), (EIG, Q(1, 2)),
                        (EIG, Q(-3, 2)))),
    ("diagonalizable", ((EIG, Q(5)), (EIG, Q(-3)), (EIG, Q(2, 3)), (EIG, Q(1)), (EIG, Q(-1, 2)),
                        (EIG, Q(7, 2)))),
    ("defective", ((JORDAN, Q(1, 2), 2), (EIG, Q(3)), (EIG, Q(3)), (EIG, Q(-1)), (EIG, Q(2)))),
    ("defective", ((JORDAN, Q(-1), 3), (EIG, Q(2)), (EIG, Q(1, 3)), (EIG, Q(4)))),
    ("defective", ((JORDAN, Q(2, 3), 2), (EIG, Q(-2)), (EIG, Q(-2)), (EIG, Q(5)), (EIG, Q(-3, 2)))),
    ("not-split", ((QUAD, Q(-1), Q(1)), (EIG, Q(2)), (EIG, Q(-1, 2)), (EIG, Q(3)), (EIG, Q(1)))),
    ("not-split", ((QUAD, Q(3), Q(1)), (EIG, Q(2)), (EIG, Q(-1)), (EIG, Q(1, 3)), (EIG, Q(-2)))),
    ("not-split", ((QUAD, Q(1), Q(-3001)), (EIG, Q(43, 2)), (EIG, Q(-47)), (EIG, Q(53, 3)),
                   (EIG, Q(-59, 4)))),
)
EIGEN_DRAWS = 2
EIGEN_POWER = 6


def jordan_matrix(blocks):
    n = sum(1 if b[0] == EIG else (b[2] if b[0] == JORDAN else 2) for b in blocks)
    J = [[Q(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        if b[0] == EIG:
            J[at][at] = b[1]
            at += 1
        elif b[0] == JORDAN:
            for i in range(b[2]):
                J[at + i][at + i] = b[1]
                if i:
                    J[at + i - 1][at + i] = Q(1)
            at += b[2]
        else:
            _, t, d = b
            J[at][at + 1] = -d
            J[at + 1][at] = Q(1)
            J[at + 1][at + 1] = t
            at += 2
    return J


def spectral_facts(blocks) -> dict:
    """Everything the eigen answers must report, read off the blocks."""
    alg: dict[Fraction, int] = {}
    geom: dict[Fraction, int] = {}
    char = [Q(1)]
    quads = []
    for b in blocks:
        if b[0] == QUAD:
            quads.append([b[2], -b[1], Q(1)])
            char = exact.poly_mul(char, quads[-1])
            continue
        lam, size = b[1], (1 if b[0] == EIG else b[2])
        alg[lam] = alg.get(lam, 0) + size
        geom[lam] = geom.get(lam, 0) + 1
        for _ in range(size):
            char = exact.poly_mul(char, [lam, Q(-1)])
    roots = tuple(sorted(alg.items(), reverse=True))
    split = not quads
    deficient = next(
        ((lam, m, geom[lam]) for lam, m in roots if geom[lam] < m), None
    )
    return {
        "char": char,
        "roots": roots,
        "geom": geom,
        "split": split,
        "quad": quads[0] if quads else None,
        "diagonalizable": (deficient is None) if split else None,
        "deficient": deficient if split else None,
    }


def _unimodular(rng, n):
    pm = (Q(-1), Q(1))
    return exact.matmul(
        _unit_lower(rng, n, pm),
        [[Q(1) if i == j else (rng.choice(pm) if j > i else Q(0)) for j in range(n)]
         for i in range(n)],
    )


def similar(rng, blocks):
    """``P J P^-1`` with no zero entry, so every cofactor expansion does the
    same number of terms whatever the seed."""
    J = jordan_matrix(blocks)
    while True:
        P = _unimodular(rng, len(J))
        A = exact.matmul(exact.matmul(P, J), exact.inverse(P))
        if all(x != 0 for row in A for x in row):
            return A


def eigen_cases(seed: int) -> list[Case]:
    rng = random.Random(f"eigen-small/{seed}")
    cases = []
    for slot, (kind, blocks) in enumerate(EIGEN_SLOTS * EIGEN_DRAWS):
        A = similar(rng, blocks)
        n = len(A)
        facts = dict(spectral_facts(blocks), A=A)
        text = exact.render(A)
        where = f"{kind}/slot{slot}"
        cases.append(Case("eigen_summary", text, f"eigen_summary/{where}", facts))
        cases.append(Case("diagonalize", text, f"diagonalize/{where}", facts))
        power = exact.identity(n)
        for _ in range(EIGEN_POWER):
            power = exact.matmul(power, A)
        cases.append(Case(
            "matrix_power", text, f"matrix_power/{where}", {"power": power},
            args=(EIGEN_POWER,),
        ))
    return cases


# ---- cli-oneshot -------------------------------------------------------------------

CLI_TRACE_N = 8


def _spanning_family(rng, count, length, rank, regime):
    """``count`` vectors of the given rank: ``rank`` independent ones, then combinations."""
    pool = REGIMES[regime]["off"]
    while True:
        base = [_vector(rng, length, pool) for _ in range(rank)]
        if exact.rank(base) == rank:
            break
    extra = []
    for _ in range(count - rank):
        coeffs = _vector(rng, rank, pool)
        extra.append([sum((c * v[t] for c, v in zip(coeffs, base)), Q(0)) for t in range(length)])
    return base + extra


def cli_cases(seed: int) -> list[Case]:
    """One ``python -m qlinalg`` invocation per case, every verb plain and JSON."""
    rng = random.Random(f"cli-oneshot/{seed}")
    cases = []
    for fmt, regime in (((), "int"), (("--format", "json"), "pq")):
        A, d = nonsingular(rng, 5, regime)
        cases.append(Case("det", exact.render(A), "det", {"det": d}, fmt))

    A, _ = nonsingular(rng, 4, "int")
    x = _vector(rng, 4, REGIMES["int"]["off"])
    cases.append(Case("solve", exact.render_augmented(A, exact.matvec(A, x)), "solve",
                      {"x": x}))
    A, _, _ = deficient(rng, 5, 3, "pq")
    b = exact.matvec(A, _vector(rng, 5, REGIMES["pq"]["off"]))
    cases.append(Case("solve", exact.render_augmented(A, b), "solve",
                      {"A": A, "b": b, "rank": 3}, ("--format", "json")))

    for fmt, regime in (((), "pq"), (("--format", "json"), "int")):
        A, _ = nonsingular(rng, 4, regime)
        cases.append(Case("inverse", exact.render(A), "inverse", {"A": A}, fmt))

    for fmt, blocks in (
        ((), ((JORDAN, Q(1), 2), (EIG, Q(-2)), (EIG, Q(3, 2)))),
        (("--format", "json"), ((QUAD, Q(0), Q(-2)), (EIG, Q(1)), (EIG, Q(-1, 3)))),
    ):
        A = similar(rng, blocks)
        cases.append(Case("eigen", exact.render(A), "eigen",
                          dict(spectral_facts(blocks), A=A), fmt))

    for fmt, regime in (((), "int"), (("--format", "json"), "pq")):
        A, _, _ = deficient(rng, 5, 3, regime)
        cases.append(Case("fundamentals", exact.render(A), "fundamentals",
                          {"A": A, "rank": 3}, fmt))

    for fmt, regime, shape in (((), "int", (4, 5, 3)), (("--format", "json"), "pq", (3, 4, 3))):
        vectors = _spanning_family(rng, *shape, regime)
        cases.append(Case("gram-schmidt", exact.render(vectors), "gram-schmidt",
                          {"vectors": vectors, "rank": shape[2]}, fmt))

    n = CLI_TRACE_N
    A, _ = nonsingular(rng, n, "int")
    x = _vector(rng, n, REGIMES["int"]["off"])
    b = exact.matvec(A, x)
    cases.append(Case("solve", exact.render_augmented(A, b), "solve --trace",
                      {"x": x, "augmented": [row + [v] for row, v in zip(A, b)]},
                      ("--trace",)))
    A, _, _ = deficient(rng, n, n - 2, "pq")
    cases.append(Case("rref", exact.render(A), "rref --trace", {"A": A, "rank": n - 2},
                      ("--trace",)))
    for case in cases:
        fmt = "json" if "json" in case.args else "plain"
        if "--trace" not in case.args:
            case.label = f"{case.label} {fmt}"
    return cases
