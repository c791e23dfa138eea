"""Every module under src/qlinalg uses every name it imports, every
module-level private name is used by some module of the package, and no
module computes with floats.  The public names are pinned, importing the
CLI loads no module it does not need, and importing compiles no pattern that
only a coordinate formula uses."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qlinalg

PACKAGE = Path(qlinalg.__file__).parent
GOLDEN = Path(__file__).parent / "golden"


def test_public_names_are_pinned():
    public = (GOLDEN / "public_names.txt").read_text().split()
    assert sorted(qlinalg.__all__) == public
    module_attributes = [
        "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
        "__name__", "__package__", "__path__", "__spec__", "__version__",
    ]
    names = [
        name
        for name in dir(qlinalg)
        if not isinstance(getattr(qlinalg, name), types.ModuleType)
    ]
    assert names == sorted(public + module_attributes)


def test_no_private_name_is_pinned_as_public():
    # Matrix._of, the library's own constructor, skips the checks a user's
    # matrix gets, so it must never become a public name
    public = (GOLDEN / "public_names.txt").read_text().split()
    assert [name for name in public if name.startswith("_")] == []
    assert "_of" not in public


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses pulls in inspect, which pulls in ast, dis and tokenize: import
    # time every one-shot run would pay for nothing an answer uses.  -S keeps
    # site (and whatever its .pth files import) out of the count.  json is
    # imported only when --format json output is written.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
    code = f"import qlinalg.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_the_scalar_patterns_are_compiled_at_import():
    # every command line needs this one (argparse takes a compiled matcher);
    # scalars are read with string methods, and the coordinate-formula grammar
    # stays as pattern strings, compiled by re on the first formula read and
    # cached there
    compiled = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name, value in vars(importlib.import_module(f"qlinalg.{path.stem}")).items()
        if isinstance(value, re.Pattern)
    )
    assert compiled == ["cli._NEGATIVE_SCALAR"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport json\nfrom re import A, B\nB()\n"
    assert _unused_imports(source) == ["json (line 2)", "A (line 3)"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _dead_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module
    references (a definition's mention of itself does not count)."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = _defined_names(node)
            defined += [(module, name) for name in own if _is_private(name)]
            used |= _referenced_names(node) - set(own)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_no_module_keeps_a_private_name_nothing_uses():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _dead_privates(sources) == []


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_LIMIT: int = 3\n"
            "_UNUSED = 1\n"
            "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
            "def _helper():\n    return 0\n"
            "class _Kept:\n    pass\n"
            "def f():\n    return _helper()\n"
        ),
        "b.py": "from .a import _Kept\n",
    }
    assert _dead_privates(sources) == ["a.py: _UNUSED", "a.py: _walk"]


# The record fields of an elimination run; callers read pivots, free, order and minor().
_RUN_RECORD = {"sign", "last", "scales", "chosen"}


def _run_record_uses(source: str) -> list[str]:
    """Every read or write of a run's record fields, in source order."""
    found = sorted(
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in _RUN_RECORD
    )
    return [f".{attr} (line {line})" for line, _, attr in found]


def test_only_the_engine_touches_a_runs_record():
    uses = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "elimination.py"
        and (found := _run_record_uses(path.read_text(encoding="utf-8")))
    }
    assert uses == {}


def test_the_check_sees_a_run_record_use():
    source = (
        "run = _FractionFree(a)\n"
        "d = Fraction(run.sign * run.last, prod(run.scales))\n"
        "row, prev = run.chosen[0]\n"
        "run.sign = 1\n"
        "x = run.minor(), run.free, run.pivots, sign, last\n"
    )
    assert _run_record_uses(source) == [
        ".sign (line 2)", ".last (line 2)", ".scales (line 2)", ".chosen (line 3)",
        ".sign (line 4)",
    ]


# math functions whose value is an int for int arguments; every other math name
# (sqrt, log, pi, fsum, ...) gives a float.
_INT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}


# Classes and functions that compute on cleared-denominator ints.
_INTEGER_KERNELS = {
    "_FractionFree",  # elimination.py
    "__matmul__", "__pow__", "_integer_image", "_int_product",  # matrix.py
    "char_poly", "_char_poly", "_adjugate_column", "_eigenspace",  # eigen.py
    "_cleared", "_ratio",  # scalars.py
    "_primitive", "_pseudo_rem", "_exact_div", "_divide_root", "_derivative_gcd",
    "_balanced_digits", "_squarefree_part", "_value", "_value_mod",
    "_simple_roots_mod_prime", "_distinct_rational_roots", "_rescaled",  # poly.py
}


def test_every_integer_kernel_is_defined():
    """A kernel name that the package no longer defines would guard nothing."""
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert _INTEGER_KERNELS - defined == set()


def _float_uses(source: str) -> list[str]:
    """Float literals, ``float(...)`` calls, float-valued math names, and,
    anywhere inside an integer kernel (a class's methods included), true
    division or a ``Fraction`` built from anything but ``Fraction(num, den)``
    or ``_ratio(num, den)``: its values are ints, which ``/`` would turn into
    floats."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float()"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in _INT_MATH]
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "math"
            and node.attr not in _INT_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif (
            isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name in _INTEGER_KERNELS
        ):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Div):
                    found.append((sub.lineno, f"/ in {node.name}"))
                elif (
                    isinstance(sub, ast.Call)
                    and (name := getattr(sub.func, "id", None)) in ("Fraction", "_ratio")
                    and len(sub.args) != 2
                ):
                    found.append((sub.lineno, f"{name}(x) in {node.name}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_no_module_computes_with_floats():
    floats = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _float_uses(path.read_text(encoding="utf-8")))
    }
    assert floats == {}


def test_the_check_sees_a_float():
    source = (
        "import math\nfrom math import gcd, sqrt\n"
        "x = 0.5 + float('2') + math.log(2) + math.lcm(2, 3)\n"
        "class _FractionFree:\n"
        "    def step(self, a, b):\n"
        "        a /= b\n"
        "        return a // b, a / b\n"
        "    def ops(self, rows):\n"
        "        return [Fraction(x) / d for x, d in rows], [Fraction(x, d) for x, d in rows]\n"
        "def ratio(a, b):\n    return a / b, Fraction(a)\n"
        "class Matrix:\n"
        "    def __matmul__(self, other):\n"
        "        return Fraction(sum(self) / other)\n"
        "def char_poly(a):\n    return [Fraction(c, d) for c, d in a], Fraction(a[0])\n"
        "def _pseudo_rem(a, b):\n    return a[-1] / b[-1]\n"
        "def _exact_div(a, b):\n    return a[-1] // b[-1]\n"
        "def _eigenspace(w, wf):\n    return [_ratio(x, wf) for x in w], _ratio(wf)\n"
    )
    assert _float_uses(source) == [
        "math.sqrt (line 2)",
        "float() (line 3)",
        "literal 0.5 (line 3)",
        "math.log (line 3)",
        "/ in _FractionFree (line 6)",
        "/ in _FractionFree (line 7)",
        "/ in _FractionFree (line 9)",
        "Fraction(x) in _FractionFree (line 9)",
        "/ in __matmul__ (line 14)",
        "Fraction(x) in __matmul__ (line 14)",
        "Fraction(x) in char_poly (line 16)",
        "/ in _pseudo_rem (line 18)",
        "_ratio(x) in _eigenspace (line 22)",
    ]


def _is_int_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _boundary_crossings(source: str) -> list[str]:
    """Every ``Fraction(n, d)`` with a computed argument, which
    ``scalars._ratio`` builds instead, and every ``as_integer_ratio()`` call,
    where ``_cleared`` reads a ``Fraction``'s two slots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if (
            getattr(node.func, "id", None) == "Fraction"
            and len(node.args) == 2
            and not all(map(_is_int_literal, node.args))
        ):
            found.append((node.lineno, "Fraction(n, d)"))
        elif getattr(node.func, "attr", None) == "as_integer_ratio":
            found.append((node.lineno, "as_integer_ratio()"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_every_result_crosses_into_fraction_through_one_constructor():
    crossings = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _boundary_crossings(path.read_text(encoding="utf-8")))
    }
    assert crossings == {}


def test_the_check_sees_a_computed_fraction():
    source = (
        "zero, half, one = Fraction(0, 1), Fraction(-1, 2), Fraction(1)\n"
        "q = Fraction(n, d) + Fraction(x, 1) + _ratio(n, d) + Fraction(x)\n"
        "pairs = [x.as_integer_ratio() for x in row]\n"
        "r = Fraction(2, 3 * d)\n"
    )
    assert _boundary_crossings(source) == [
        "Fraction(n, d) (line 2)",
        "Fraction(n, d) (line 2)",
        "as_integer_ratio() (line 3)",
        "Fraction(n, d) (line 4)",
    ]
