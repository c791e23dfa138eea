"""Answer checks made apart from qlinalg.

Each check compares a result with what its input's construction guarantees
(see ``inputs.py``), using the benchmark's own arithmetic in ``exact.py``.
Library results are read by attribute name and CLI results from the printed
text, so nothing here imports the package under test.  A check returns True
or False; output it cannot read counts as False.
"""

from __future__ import annotations

import json

import exact
from exact import Q

UNREADABLE = (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError)


def _kind(obj) -> str:
    return type(obj).__name__


def _proportional(p, q) -> bool:
    """Is the coefficient list p a nonzero multiple of q?"""
    p, q = list(p), list(q)
    if len(p) != len(q) or not q or p[-1] == 0:
        return False
    c = p[-1] / q[-1]
    return all(a == c * b for a, b in zip(p, q))


def _eigenvectors_ok(A, lam, basis, dim) -> bool:
    if len(basis) != dim:
        return False
    if dim and exact.rank(basis) != dim:
        return False
    return all(exact.matvec(A, v) == [lam * x for x in v] for v in basis)


def _null_basis_ok(A, basis, nullity) -> bool:
    n = len(A[0])
    if len(basis) != nullity or any(len(v) != n for v in basis):
        return False
    if exact.rank(basis) != nullity:
        return False
    return all(all(x == 0 for x in exact.matvec(A, v)) for v in basis)


def _fundamentals_ok(A, rank, row, column, null) -> bool:
    """Row space = (null space)^perp and column basis = r independent columns of A."""
    n = len(A[0])
    if not _null_basis_ok(A, null, n - rank):
        return False
    if len(row) != rank or exact.rank(row) != rank:
        return False
    if any(exact.dot(r, v) != 0 for r in row for v in null):
        return False
    columns = [list(c) for c in zip(*A)]
    if len(column) != rank or any(list(c) not in columns for c in column):
        return False
    return exact.rank(column) == rank


def _infinite_ok(A, b, rank, leading, free, constants, coefficients) -> bool:
    n = len(A[0])
    if len(leading) != rank or sorted(list(leading) + list(free)) != list(range(n)):
        return False

    def point(values):
        x = [Q(0)] * n
        for f, v in zip(free, values):
            x[f] = v
        for r, var in enumerate(leading):
            x[var] = constants[r] + sum(
                (c * v for c, v in zip(coefficients[r], values)), Q(0)
            )
        return x

    zero = [Q(0)] * len(free)
    x0 = point(zero)
    if exact.matvec(A, x0) != list(b):
        return False
    for t in range(len(free)):
        unit = list(zero)
        unit[t] = Q(1)
        step = [p - q for p, q in zip(point(unit), x0)]
        if any(exact.matvec(A, step)):
            return False
    return True


def _diagonal_entries(facts):
    return [lam for lam, m in facts["roots"] for _ in range(m)]


# ---- library results ------------------------------------------------------------


def check_library(case, result) -> bool:
    try:
        return _LIBRARY[case.op](case.expect, result)
    except UNREADABLE:
        return False


def _det(e, r):
    return r == e["det"]


def _inverse(e, r):
    return exact.matmul(e["A"], r.entries) == exact.identity(len(e["A"]))


def _solve(e, r):
    if e["kind"] == "unique":
        return _kind(r) == "Unique" and list(r.values) == e["x"]
    if e["kind"] == "inconsistent":
        return _kind(r) == "Inconsistent" and (r.row, r.value) == (e["row"], e["value"])
    return _kind(r) == "Infinite" and _infinite_ok(
        e["A"], e["b"], e["rank"], r.leading, r.free, r.constants, r.coefficients
    )


def _fundamentals(e, r):
    n = len(e["A"][0])
    return (r.rank, r.nullity) == (e["rank"], n - e["rank"]) and _fundamentals_ok(
        e["A"], e["rank"], r.row.basis, r.column.basis, r.null.basis
    )


def _eigen_summary(e, r):
    if list(r.char.coefficients) != e["char"] or r.split != e["split"]:
        return False
    if not e["split"] and not _proportional(r.residual.coefficients, e["quad"]):
        return False
    if tuple(r.roots) != e["roots"] or len(r.spaces) != len(e["roots"]):
        return False
    for (lam, _), (lam2, space) in zip(e["roots"], r.spaces):
        if lam2 != lam or not _eigenvectors_ok(e["A"], lam, space.basis, e["geom"][lam]):
            return False
    return r.diagonalizable == e["diagonalizable"] and r.deficient == e["deficient"]


def _diagonalize(e, r):
    if not e["split"]:
        return (
            _kind(r) == "NotSplit"
            and tuple(r.found) == e["roots"]
            and _proportional(r.residual.coefficients, e["quad"])
        )
    if not e["diagonalizable"]:
        return _kind(r) == "NotDiagonalizable" and (
            r.eigenvalue, r.algebraic, r.geometric
        ) == e["deficient"]
    if _kind(r) != "Diagonalizable":
        return False
    A, L, D = e["A"], [list(row) for row in r.L.entries], [list(row) for row in r.D.entries]
    n = len(A)
    diag = _diagonal_entries(e)
    if D != [[diag[i] if i == j else Q(0) for j in range(n)] for i in range(n)]:
        return False
    return exact.matmul(A, L) == exact.matmul(L, D) and exact.rank(L) == n


def _matrix_power(e, r):
    return [list(row) for row in r.entries] == e["power"]


_LIBRARY = {
    "det": _det,
    "inverse_gauss_jordan": _inverse,
    "solve": _solve,
    "fundamental_subspaces": _fundamentals,
    "eigen_summary": _eigen_summary,
    "diagonalize": _diagonalize,
    "matrix_power": _matrix_power,
}


# ---- CLI output -------------------------------------------------------------------


def check_cli(case, stdout: str) -> bool:
    try:
        fmt = "json" if "json" in case.args else "plain"
        if "--trace" in case.args:
            return _TRACED[case.op](case.expect, stdout.splitlines())
        if fmt == "json":
            return _CLI_JSON[case.op](case.expect, json.loads(stdout))
        return _CLI_PLAIN[case.op](case.expect, stdout.splitlines())
    except UNREADABLE:
        return False


def _qv(values):
    return [Q(x) for x in values]


def _plain_unique(line):
    head, _, body = line.partition(": ")
    if head != "unique":
        raise ValueError(line)
    return [Q(pair.split(" = ")[1]) for pair in body.split(", ")]


def _cli_det_plain(e, lines):
    return len(lines) == 1 and Q(lines[0]) == e["det"]


def _cli_det_json(e, doc):
    return Q(doc["value"]) == e["det"]


def _cli_solve_plain(e, lines):
    return len(lines) == 1 and _plain_unique(lines[0]) == e["x"]


def _cli_solve_json(e, doc):
    res = doc["result"]
    if res["kind"] != "infinite":
        return False
    index = lambda name: int(name[1:]) - 1  # noqa: E731
    free = [index(v) for v in res["free"]]
    leading = [index(v) for v in res["leading"]]
    eqs = [res["equations"][v] for v in res["leading"]]
    constants = [Q(q["constant"]) for q in eqs]
    coefficients = [[Q(q["coefficients"][v]) for v in res["free"]] for q in eqs]
    return _infinite_ok(e["A"], e["b"], e["rank"], leading, free, constants, coefficients)


def _cli_inverse_plain(e, lines):
    return exact.matmul(e["A"], exact.parse_block(lines)) == exact.identity(len(e["A"]))


def _cli_inverse_json(e, doc):
    X = [_qv(row) for row in doc["matrix"]]
    return doc["invertible"] is True and exact.matmul(e["A"], X) == exact.identity(len(e["A"]))


def _eigen_report_ok(e, eigen):
    """``eigen``: (value, algebraic, geometric, basis) tuples in printed order."""
    if [(lam, alg) for lam, alg, _, _ in eigen] != list(e["roots"]):
        return False
    return all(
        geom == e["geom"][lam] and _eigenvectors_ok(e["A"], lam, basis, geom)
        for lam, _, geom, basis in eigen
    )


def _cli_eigen_plain(e, lines):
    eigen = []
    verdict = None
    for line in lines[1:]:
        if line.startswith("eigenvalue "):
            lam, _, rest = line[len("eigenvalue "):].partition(" (algebraic ")
            alg, _, geom = rest.rstrip(")").partition(", geometric ")
            eigen.append((Q(lam), int(alg), int(geom), []))
        elif line.startswith("  ("):
            eigen[-1][3].append(exact.parse_vector(line))
        elif line.startswith("diagonalizable: "):
            verdict = line[len("diagonalizable: "):].startswith("yes")
        elif line.startswith("unfactored residual"):
            verdict = None
    if not lines[0].startswith("characteristic polynomial: "):
        return False
    return verdict == e["diagonalizable"] and _eigen_report_ok(e, eigen)


def _cli_eigen_json(e, doc):
    if _qv(doc["char_poly"]["coefficients"]) != e["char"] or doc["split"] != e["split"]:
        return False
    if not e["split"]:
        if not _proportional(_qv(doc["residual"]["coefficients"]), e["quad"]):
            return False
    elif doc["diagonalizable"] != e["diagonalizable"]:
        return False
    eigen = [
        (Q(x["value"]), x["algebraic"], x["geometric"], [_qv(v) for v in x["basis"]])
        for x in doc["eigenvalues"]
    ]
    return _eigen_report_ok(e, eigen)


def _cli_fundamentals_plain(e, lines):
    rank = int(lines[0].removeprefix("rank: "))
    nullity = int(lines[1].removeprefix("nullity: "))
    spaces: dict[str, list] = {}
    current = None
    for line in lines[2:]:
        if line.endswith(" basis:"):
            current = spaces.setdefault(line[: -len(" basis:")], [])
        elif line != "  (none)":
            current.append(exact.parse_vector(line))
    n = len(e["A"][0])
    return (rank, nullity) == (e["rank"], n - e["rank"]) and _fundamentals_ok(
        e["A"], rank, spaces["row space"], spaces["column space"], spaces["null space"]
    )


def _cli_fundamentals_json(e, doc):
    n = len(e["A"][0])
    basis = lambda key: [_qv(v) for v in doc[key]["basis"]]  # noqa: E731
    return (doc["rank"], doc["nullity"]) == (e["rank"], n - e["rank"]) and _fundamentals_ok(
        e["A"], doc["rank"], basis("row"), basis("column"), basis("null")
    )


def _orthogonal_basis_ok(e, ws, norms):
    dot = exact.dot
    if len(ws) != e["rank"] or norms != [dot(w, w) for w in ws]:
        return False
    if any(dot(ws[i], ws[j]) != 0 for i in range(len(ws)) for j in range(i)):
        return False
    for v in e["vectors"]:
        rest = list(v)
        for w, n2 in zip(ws, norms):
            c = dot(v, w) / n2
            rest = [x - c * y for x, y in zip(rest, w)]
        if any(rest):
            return False
    return True


def _cli_gram_schmidt_plain(e, lines):
    ws, norms = [], []
    for line in lines:
        vec, _, rest = line.partition(" = ")[2].partition(", |W")
        ws.append(exact.parse_vector(vec))
        norms.append(Q(rest.partition(" = ")[2].partition(",")[0]))
    return _orthogonal_basis_ok(e, ws, norms)


def _cli_gram_schmidt_json(e, doc):
    return _orthogonal_basis_ok(
        e, [_qv(w) for w in doc["vectors"]], _qv(doc["squared_norms"])
    )


def _replay(start, op_lines):
    """Apply each printed op; every printed E must be that op applied to I."""
    cur = start
    n = len(start)
    for line in op_lines:
        op_text, _, e_text = line.partition(" :: E = ")
        op = exact.parse_row_op(op_text)
        if exact.parse_inline(e_text) != exact.apply_row_op(exact.identity(n), op):
            return None
        cur = exact.apply_row_op(cur, op)
    return cur


def _is_rref(m, rank) -> bool:
    lead = []
    for i, row in enumerate(m):
        nz = [j for j, x in enumerate(row) if x != 0]
        if nz:
            lead.append((i, nz[0]))
    if [i for i, _ in lead] != list(range(rank)):
        return False
    cols = [j for _, j in lead]
    if cols != sorted(set(cols)):
        return False
    return all(
        m[i][j] == 1 and all(m[k][j] == 0 for k in range(len(m)) if k != i)
        for i, j in lead
    )


def _traced_solve(e, lines):
    ops = [line for line in lines if " :: E = " in line]
    if len(ops) != len(lines) - 1:
        return False
    x = _plain_unique(lines[-1])
    final = _replay(e["augmented"], ops)
    n = len(x)
    expect = [[Q(int(i == j)) for j in range(n)] + [x[i]] for i in range(n)]
    return final == expect and x == e["x"]


def _traced_rref(e, lines):
    ops = [line for line in lines if " :: E = " in line]
    printed = exact.parse_block(lines[len(ops):])
    final = _replay(e["A"], ops)
    return final == printed and _is_rref(printed, e["rank"])


_CLI_PLAIN = {
    "det": _cli_det_plain,
    "solve": _cli_solve_plain,
    "inverse": _cli_inverse_plain,
    "eigen": _cli_eigen_plain,
    "fundamentals": _cli_fundamentals_plain,
    "gram-schmidt": _cli_gram_schmidt_plain,
}

_CLI_JSON = {
    "det": _cli_det_json,
    "solve": _cli_solve_json,
    "inverse": _cli_inverse_json,
    "eigen": _cli_eigen_json,
    "fundamentals": _cli_fundamentals_json,
    "gram-schmidt": _cli_gram_schmidt_json,
}

_TRACED = {"solve": _traced_solve, "rref": _traced_rref}
