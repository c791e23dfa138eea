"""Command-line front end.

Every matrix argument is taken literally, or read from a file when the
argument names one ('-' reads stdin).  Rows split on ';' or newlines, entries
on whitespace, and a system marks its constants column with '|'::

    qlinalg solve "3 2 | 5 ; -2 1 | -6"
    qlinalg det "1 0 2; 3 1 -1; 1 2 4"

Scalars are integers, p/q fractions, or terminating decimals.  Indices on
the command line (and in output) are 1-based.

Exit status: 0 for any computed answer (including answer-like negatives such
as "not invertible"), 1 when the values make the request impossible
(singular Cramer coefficient, negative power of a singular matrix, dependent
points, ...), 2 for unusable input or bad usage.  The status of an answer or
an "error:" line is decided before it is printed: a reader that closes stdout
or stderr early stops the output, not the status, and nothing else is printed.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction
from math import lcm

from .determinant import (
    adjoint,
    cofactor_matrix,
    cramer_solve,
    det,
    det_cofactor,
    det_with_effects,
    inverse_entry,
)
from .eigen import (
    Diagonalizable,
    NotSplit,
    diagonalize,
    eigen_summary,
    matrix_power,
)
from .elimination import (
    FORMS,
    Inconsistent,
    Trace,
    Unique,
    elementary_matrix,
    inverse_gauss_jordan,
    reduce,
    render_row_op,
    solve,
    solve_with_trace,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LinAlgError,
    NotInvertible,
    UsageError,
    _Impossible,
)
from .matrix import (
    Matrix,
    _split_rows,
    as_vector,
    parse_matrix_text,
    render_block,
    render_inline,
    split_augmented,
    sym_skew_decompose,
)
from .orthogonal import dot, gram_schmidt
from .scalars import format_scalar
from .spaces import (
    LinearForm,
    NotSubspace,
    Subspace,
    basis_of_span,
    extend_to_basis,
    fundamental_subspaces,
    span_contains,
    subspace_from_forms,
)
from .transform import NotLinear, from_basis_images, from_forms, from_matrix

# n! products: n = 8 answers in under a second, n = 10 takes nearly a minute.
_COFACTOR_MAX_N = 8

# Bits of A^k's entries, as |k| * log2(n * max|numerator| * common denominator);
# printing one costs time quadratic in them, so each entry has a limit, and so
# has the whole answer.  An 8x8 of -9..9 at both limits: 1.5 s.
_POWER_MAX_BITS = 100_000
_POWER_MAX_OUTPUT_BITS = 64 * _POWER_MAX_BITS

_CLI_FORMS = {form.replace("_", "-"): form for form in FORMS}

# argparse's own negative numbers plus -p/q, so a lone negative fraction such
# as `det -1/2` is read as a matrix rather than an unknown option.
_NEGATIVE_SCALAR = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")


# ---- argument reading -------------------------------------------------------


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    try:
        if os.path.isfile(arg):
            with open(arg, encoding="utf-8") as f:
                return f.read()
    except UnicodeDecodeError:
        raise UsageError(f"file {arg!r} is not UTF-8 text") from None
    except OSError:
        pass
    return arg


def _plain_matrix(arg: str) -> Matrix:
    m, bar = parse_matrix_text(_read_text(arg))
    if bar is not None:
        raise UsageError("this verb takes a plain matrix; remove the '|'")
    return m


def _augmented(arg: str) -> tuple[Matrix, Matrix]:
    m, bar = parse_matrix_text(_read_text(arg))
    if bar is None:
        raise UsageError(
            "mark the constants column with '|', e.g. \"3 2 | 5 ; -2 1 | -6\""
        )
    a, b = split_augmented(m, bar)
    if b.cols != 1:
        raise UsageError("exactly one constants column may follow the '|'")
    return a, b


def _vector_rows(arg: str) -> list[tuple]:
    m = _plain_matrix(arg)
    return [m.row(i) for i in range(m.rows)]


def _one_vector(arg: str) -> tuple:
    m = _plain_matrix(arg)
    try:
        return as_vector(m)
    except DimensionMismatch:
        raise UsageError("expected a single vector (one row or one column)") from None


def _linear_map(arg: str):
    """Maps come as point->image pairs, coordinate formulas, or a matrix."""
    text = _read_text(arg)
    if "->" in text:
        pairs = []
        for row in _split_rows(text):
            sides = row.split("->")
            if len(sides) != 2:
                raise UsageError(f"expected one '->' per pair, got {row!r}")
            pairs.append((as_vector(sides[0]), as_vector(sides[1])))
        return from_basis_images(pairs)
    if re.search(r"[A-Za-z]", text):
        return from_forms(_split_rows(text))
    return from_matrix(Matrix.parse(text))


def _parse_entry(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", text)
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise UsageError("--entry takes 1-based indices like --entry 2,4")
    return int(m.group(1)) - 1, int(m.group(2)) - 1


# ---- rendering ----------------------------------------------------------------
#
# Each helper renders one kind of result as (plain lines, JSON payload).
# Payloads carry library values as they are; ``main`` adds the verb and turns
# every Fraction into its exact "p/q" string through ``_exact``.


def _exact(value) -> str:
    if isinstance(value, Fraction):
        return format_scalar(value)
    raise TypeError(f"{type(value).__name__} has no exact JSON form")


def _fmt_vec(v) -> str:
    return "(" + ", ".join(format_scalar(x) for x in v) + ")"


def _var(j: int) -> str:
    return f"x{j + 1}"


def _assignments(values) -> str:
    return ", ".join(f"{_var(i)} = {format_scalar(v)}" for i, v in enumerate(values))


def _block_lines(m: Matrix) -> list[str]:
    return render_block(m).splitlines()


def _scalar_result(value: Fraction, **extra):
    return [format_scalar(value)], {**extra, "value": value}


def _matrix_result(m: Matrix, **extra):
    return _block_lines(m), {**extra, "matrix": m.entries}


_NOT_INVERTIBLE = (["not invertible (det = 0)"], {"invertible": False})


def _jsub(s: Subspace) -> dict:
    return {"ambient": s.ambient, "dimension": s.dimension, "basis": s.basis}


def _space_result(space: Subspace, *head: str, **extra):
    lines = [*head, f"dimension: {space.dimension}"]
    if space.is_zero:
        lines.append("(zero subspace)")
    else:
        lines.extend(_fmt_vec(v) for v in space.basis)
    return lines, {**extra, **_jsub(space)}


def _constant_verdict(line: str, flag: str, verdict):
    """NotLinear and NotSubspace: a coordinate formula with a nonzero constant."""
    return [line], {
        flag: False,
        "coordinate": verdict.coordinate + 1,
        "constant": verdict.constant,
    }


def _not_linear(verdict: NotLinear):
    return _constant_verdict(f"not linear: {verdict}", "linear", verdict)


def _traced(show: bool, trace: Trace, result):
    """Put the row operations, each with its elementary matrix, before a result."""
    if not show:
        return result
    n = trace.start.rows
    steps = [(render_row_op(op), elementary_matrix(op, n)) for op in trace]
    lines, payload = result
    return (
        [f"{op} :: E = {render_inline(e)}" for op, e in steps] + lines,
        {**payload, "trace": [{"op": op, "elementary": e.entries} for op, e in steps]},
    )


def _solution_result(sol):
    if isinstance(sol, Unique):
        return [f"unique: {_assignments(sol.values)}"], {
            "result": {"kind": "unique", "values": sol.values}
        }
    if isinstance(sol, Inconsistent):
        return [
            f"inconsistent (row {sol.row + 1}: 0 = {format_scalar(sol.value)})"
        ], {"result": {"kind": "inconsistent", "row": sol.row + 1, "value": sol.value}}
    lines = [
        "infinite solutions",
        "free: " + ", ".join(_var(f) for f in sol.free),
    ]
    equations = {}
    for r, var in enumerate(sol.leading):
        terms = tuple((_var(f), c) for f, c in zip(sol.free, sol.coefficients[r]))
        lines.append(f"{_var(var)} = {LinearForm(sol.constants[r], terms)}")
        equations[_var(var)] = {
            "constant": sol.constants[r],
            "coefficients": dict(terms),
        }
    return lines, {
        "result": {
            "kind": "infinite",
            "free": [_var(f) for f in sol.free],
            "leading": [_var(v) for v in sol.leading],
            "equations": equations,
        }
    }


def _poly(p) -> dict:
    return {"coefficients": p.coefficients, "text": p.render()}


# ---- verb handlers ---------------------------------------------------------------


def _cmd_solve(args):
    system = _augmented(args.system)
    if not args.trace:
        return _solution_result(solve(*system))
    sol, trace = solve_with_trace(*system)
    return _traced(True, trace, _solution_result(sol))


def _cmd_rref(args):
    result, trace = reduce(_plain_matrix(args.matrix), "completely_reduced")
    return _traced(args.trace, trace, _matrix_result(result))


def _cmd_reduce(args):
    result, trace = reduce(_plain_matrix(args.matrix), _CLI_FORMS[args.form])
    return _traced(args.trace, trace, _matrix_result(result, form=args.form))


def _cmd_inverse(args):
    m = _plain_matrix(args.matrix)
    try:
        inv = inverse_gauss_jordan(m)
    except NotInvertible:
        return _NOT_INVERTIBLE
    return _matrix_result(inv, invertible=True)


def _cmd_det(args):
    m = _plain_matrix(args.matrix)
    if args.method == "cofactor":
        if args.trace:
            raise UsageError("--trace goes with --method rowred")
        if m.rows > _COFACTOR_MAX_N:
            raise UsageError(
                f"--method cofactor takes at most {_COFACTOR_MAX_N} rows "
                f"(n! work); use --method rowred for this {m.rows}x{m.cols} input"
            )
        return _scalar_result(det_cofactor(m), method="cofactor")
    if not args.trace:
        return _scalar_result(det(m), method="rowred")
    value, log, _ = det_with_effects(m)
    _, payload = _scalar_result(value, method="rowred")
    steps = [(render_row_op(op), f) for op, f in log.steps]
    lines = [f"{op} :: factor {format_scalar(f)}" for op, f in steps]
    lines.append(f"det = {format_scalar(value)}")
    payload["effects"] = [{"op": op, "factor": f} for op, f in steps]
    return lines, payload


def _cmd_cofactor(args):
    return _matrix_result(cofactor_matrix(_plain_matrix(args.matrix)))


def _cmd_cramer(args):
    values = cramer_solve(*_augmented(args.system))
    return [_assignments(values)], {"values": values}


def _cmd_adjoint(args):
    return _matrix_result(adjoint(_plain_matrix(args.matrix)))


def _cmd_inv_entry(args):
    m = _plain_matrix(args.matrix)
    i, k = _parse_entry(args.entry)
    try:
        value = inverse_entry(m, i, k)
    except NotInvertible:
        return _NOT_INVERTIBLE
    except IndexOutOfRange:
        n = m.rows
        raise IndexOutOfRange(
            f"entry ({i + 1}, {k + 1}) outside a {n}x{n} matrix"
        ) from None
    return _scalar_result(value, entry=[i + 1, k + 1])


def _cmd_basis(args):
    return _space_result(basis_of_span(_vector_rows(args.vectors)))


def _cmd_span_member(args):
    space = basis_of_span(_vector_rows(args.generators))
    coeffs = span_contains(space, _one_vector(args.vector))
    if coeffs is None:
        return ["member: no"], {"member": False, "basis": space.basis}
    rendered = ", ".join(format_scalar(c) for c in coeffs) or "(empty)"
    return [f"member: yes (coefficients: {rendered})"], {
        "member": True,
        "coefficients": coeffs,
        "basis": space.basis,
    }


def _cmd_extend_basis(args):
    space = extend_to_basis(_vector_rows(args.vectors))
    return [_fmt_vec(v) for v in space.basis], _jsub(space)


def _cmd_subspace(args):
    forms = _split_rows(_read_text(args.forms))
    params = (
        [p.strip() for p in args.params.split(",") if p.strip()]
        if args.params
        else None
    )
    result = subspace_from_forms(forms, params)
    if isinstance(result, NotSubspace):
        return _constant_verdict(f"subspace: no ({result})", "subspace", result)
    return _space_result(result, "subspace: yes", subspace=True)


def _cmd_fundamentals(args):
    f = fundamental_subspaces(_plain_matrix(args.matrix))
    lines = [f"rank: {f.rank}", f"nullity: {f.nullity}"]
    for label, space in (
        ("row space basis", f.row),
        ("column space basis", f.column),
        ("null space basis", f.null),
    ):
        lines.append(f"{label}:")
        if space.is_zero:
            lines.append("  (none)")
        else:
            lines.extend(f"  {_fmt_vec(v)}" for v in space.basis)
    return lines, {
        "rank": f.rank,
        "nullity": f.nullity,
        "row": _jsub(f.row),
        "column": _jsub(f.column),
        "null": _jsub(f.null),
    }


def _cmd_transform(args):
    obj = _linear_map(args.map)
    if isinstance(obj, NotLinear):
        return _not_linear(obj)
    lines = ["standard matrix:", *_block_lines(obj.matrix)]
    payload = {"linear": True, "matrix": obj.matrix.entries}
    if args.apply is not None:
        v = _one_vector(args.apply)
        image = obj.apply(v)
        lines.append(f"T{_fmt_vec(v)} = {_fmt_vec(image)}")
        payload.update(input=v, image=image)
    return lines, payload


def _cmd_kernel(args):
    obj = _linear_map(args.map)
    return _not_linear(obj) if isinstance(obj, NotLinear) else _space_result(obj.kernel())


def _cmd_range(args):
    obj = _linear_map(args.map)
    return _not_linear(obj) if isinstance(obj, NotLinear) else _space_result(obj.range())


def _cmd_eigen(args):
    summary = eigen_summary(_plain_matrix(args.matrix))
    lines = [f"characteristic polynomial: {summary.char.render()}"]
    eigenvalues = []
    for (lam, alg), (_, space) in zip(summary.roots, summary.spaces):
        lines.append(
            f"eigenvalue {format_scalar(lam)} "
            f"(algebraic {alg}, geometric {space.dimension})"
        )
        lines.extend(f"  {_fmt_vec(v)}" for v in space.basis)
        eigenvalues.append(
            {
                "value": lam,
                "algebraic": alg,
                "geometric": space.dimension,
                "basis": space.basis,
            }
        )
    payload = {
        "char_poly": _poly(summary.char),
        "split": summary.split,
        "eigenvalues": eigenvalues,
    }
    if not summary.split:
        if not summary.roots:
            lines.insert(1, "rational eigenvalues: none")
        lines.append(f"unfactored residual: {summary.residual.render()}")
        payload["residual"] = _poly(summary.residual)
        return lines, payload
    payload["diagonalizable"] = summary.diagonalizable
    if summary.diagonalizable:
        lines.append("diagonalizable: yes")
    else:
        lam, alg, geom = summary.deficient
        lines.append(
            f"diagonalizable: no (eigenvalue {format_scalar(lam)} "
            f"has geometric {geom} < algebraic {alg})"
        )
        payload["deficient"] = {"value": lam, "algebraic": alg, "geometric": geom}
    return lines, payload


def _cmd_diagonalize(args):
    m = _plain_matrix(args.matrix)
    verdict = diagonalize(m)
    if isinstance(verdict, NotSplit):
        residual = verdict.residual.render()
        return [
            "eigenvalues do not all lie in Q",
            f"unfactored residual: {residual}",
        ], {"diagonalizable": None, "residual": residual}
    if not isinstance(verdict, Diagonalizable):
        line = (
            f"not diagonalizable: eigenvalue {format_scalar(verdict.eigenvalue)} "
            f"has geometric multiplicity {verdict.geometric} "
            f"< algebraic multiplicity {verdict.algebraic}"
        )
        return [line], {
            "diagonalizable": False,
            "eigenvalue": verdict.eigenvalue,
            "algebraic": verdict.algebraic,
            "geometric": verdict.geometric,
        }
    check = "yes" if verdict.reconstruct() == m else "no"
    lines = ["L =", *_block_lines(verdict.L), "D =", *_block_lines(verdict.D)]
    lines.append(f"check L D L^-1 = A: {check}")
    return lines, {
        "diagonalizable": True,
        "L": verdict.L.entries,
        "D": verdict.D.entries,
    }


def _cmd_power(args):
    m = _plain_matrix(args.matrix)
    entries = [x for row in m.entries for x in row]
    bound = m.rows * max(abs(x.numerator) for x in entries)
    bound *= lcm(*(x.denominator for x in entries))
    bits = abs(args.power) * (bound.bit_length() - 1)
    if bits > _POWER_MAX_BITS:
        raise UsageError(
            f"--power {args.power} would build entries of about {bits} bits, "
            f"past the limit of {_POWER_MAX_BITS}"
        )
    if m.rows * m.cols * bits > _POWER_MAX_OUTPUT_BITS:
        raise UsageError(
            f"--power {args.power} would print {m.rows * m.cols} entries of about "
            f"{bits} bits, past the limit of {_POWER_MAX_OUTPUT_BITS} bits in all"
        )
    result = matrix_power(m, args.power)
    return _matrix_result(result, k=args.power)


def _cmd_dot(args):
    return _scalar_result(dot(_one_vector(args.u), _one_vector(args.v)))


def _cmd_gram_schmidt(args):
    result = gram_schmidt(_vector_rows(args.vectors))
    lines = []
    for idx, (w, n2, proj) in enumerate(
        zip(result.vectors, result.squared_norms, result.projections), start=1
    ):
        line = f"W{idx} = {_fmt_vec(w)}, |W{idx}|^2 = {format_scalar(n2)}"
        if proj:
            line += ", projections: " + ", ".join(format_scalar(c) for c in proj)
        lines.append(line)
    return lines, {
        "vectors": result.vectors,
        "squared_norms": result.squared_norms,
        "projections": result.projections,
        "source": result.source,
    }


def _cmd_decompose_sym(args):
    b, c = sym_skew_decompose(_plain_matrix(args.matrix))
    lines = [
        "B = A + A^T (symmetric):",
        *_block_lines(b),
        "C = A - A^T (skew-symmetric):",
        *_block_lines(c),
    ]
    return lines, {"B": b.entries, "C": c.entries}


def _cmd_transpose(args):
    return _matrix_result(_plain_matrix(args.matrix).transpose())


def _cmd_mul(args):
    return _matrix_result(_plain_matrix(args.a) @ _plain_matrix(args.b))


# ---- parser ---------------------------------------------------------------------


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for every verb or, when ``verb`` names one, for that verb
    alone: a run uses one subparser, and building all 25 takes about three
    times as long as building one.  The table is read at call time, so a
    handler replaced on this module is the one the parser dispatches to."""
    matrix, trace = ("matrix", {}), ("--trace", {"action": "store_true"})
    verbs = {
        "solve": (_cmd_solve, "solve a linear system given as an augmented matrix",
                  ("system", {"help": "augmented matrix with '|' before the constants"}),
                  ("--trace", {"action": "store_true", "help": "print every row operation"})),
        "rref": (_cmd_rref, "completely reduce a matrix", matrix, trace),
        "reduce": (_cmd_reduce, "reduce a matrix to a chosen form", matrix,
                   ("--form", {"choices": tuple(_CLI_FORMS), "default": "completely-reduced"}),
                   trace),
        "inverse": (_cmd_inverse, "invert via Gauss-Jordan on [A | I]", matrix),
        "det": (_cmd_det, "determinant", matrix,
                ("--method", {"choices": ("rowred", "cofactor"), "default": "rowred"}),
                ("--trace", {"action": "store_true", "help": "show per-op det factors"})),
        "cofactor": (_cmd_cofactor, "matrix of signed minors", matrix),
        "cramer": (_cmd_cramer, "solve a square system by Cramer's rule",
                   ("system", {"help": "augmented matrix with '|'"})),
        "adjoint": (_cmd_adjoint, "transpose of the cofactor matrix", matrix),
        "inv-entry": (_cmd_inv_entry, "one entry of the inverse, via a single minor", matrix,
                      ("--entry", {"required": True, "help": "1-based i,k (row, column)"})),
        "basis": (_cmd_basis, "canonical basis of the span of the given rows",
                  ("vectors", {"help": "one generator per row"})),
        "span-member": (_cmd_span_member, "is a vector in the span?",
                        ("generators", {"help": "one generator per row"}), ("vector", {})),
        "extend-basis": (_cmd_extend_basis, "extend an independent set to a full basis",
                         ("vectors", {})),
        "subspace": (_cmd_subspace, "is a coordinate-formula set a subspace?",
                     ("forms", {"help": "one formula per row, e.g. 'a; -2a+b; -a'"}),
                     ("--params", {"help": "comma-separated parameter order"})),
        "fundamentals": (_cmd_fundamentals, "row, column, and null spaces with rank", matrix),
        "transform": (_cmd_transform, "standard matrix of a linear map",
                      ("map", {"help":
                               "coordinate formulas, 'point -> image' pairs, or a matrix"}),
                      ("--apply", {"help": "vector to push through the map"})),
        "kernel": (_cmd_kernel, "all vectors a map sends to zero", ("map", {})),
        "range": (_cmd_range, "all values a map takes", ("map", {})),
        "eigen": (_cmd_eigen, "characteristic polynomial, eigenvalues, eigenspaces", matrix),
        "diagonalize": (_cmd_diagonalize, "factor A as L D L^-1 when possible", matrix),
        "power": (_cmd_power, "integer matrix power (negative needs invertible)", matrix,
                  ("--power", {"required": True, "type": int, "metavar": "k"})),
        "dot": (_cmd_dot, "dot product of two vectors", ("u", {}), ("v", {})),
        "gram-schmidt": (_cmd_gram_schmidt, "orthogonalize the span of the rows", ("vectors", {})),
        "decompose-sym": (_cmd_decompose_sym, "split A into symmetric and skew parts", matrix),
        "transpose": (_cmd_transpose, "transpose", matrix),
        "mul": (_cmd_mul, "matrix product", ("a", {}), ("b", {})),
    }
    parser = argparse.ArgumentParser(
        prog="qlinalg",
        description="Exact rational linear algebra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name, (func, help_text, *arguments) in verbs.items():
        if verb in verbs and name != verb:
            continue
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_SCALAR
        p.add_argument(
            "--format",
            choices=("plain", "json"),
            default="plain",
            help="output style (default plain)",
        )
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact answers may run to any length
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        lines, payload = args.func(args)
    except LinAlgError as exc:
        code = 1 if isinstance(exc, _Impossible) else 2
        out, lines = sys.stderr, [f"error: {exc}"]
    else:
        code, out = 0, sys.stdout
        if args.format == "json":
            import json  # plain runs never pay for it

            lines = [json.dumps({"verb": args.verb, **payload}, indent=2, default=_exact)]
    _write(out, lines)
    return code


def _write(out, lines=()) -> None:
    """Print ``lines`` to ``out`` and flush it."""
    try:
        for line in lines:
            print(line, file=out)
        out.flush()
    except BrokenPipeError:  # the reader left; the flush at shutdown writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


def run() -> int:
    """The process entry of ``python -m qlinalg`` and the ``qlinalg`` script;
    in-process callers use ``main``, which never freezes.

    argparse's SystemExit (a usage error, ``--help``) leaves its message in
    the stream's buffer, so both streams are flushed here, where a broken
    pipe cannot turn the status into 120 at shutdown.  ``gc.freeze()`` comes
    last.  It spares the full collections of interpreter shutdown, about a
    tenth of a one-shot run, over objects that the exiting process frees
    anyway.
    """
    try:
        return main()
    except SystemExit:
        _write(sys.stdout)
        _write(sys.stderr)
        raise
    finally:
        gc.freeze()
