"""Every module under src/qlinalg uses every name it imports, every
module-level private name is used by some module of the package, no record
field has a default, and no module computes with floats.  The public names
and the methods of the public classes are pinned, every public class and
function is defined in the package, every public class is a record, an
error, an enumeration or a value type, importing the CLI loads no
module it does not need, and importing compiles no pattern that only a
coordinate formula uses.  No function calls itself."""

import ast
import enum
import importlib
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from math import gcd
from pathlib import Path

import qlinalg
from qlinalg.errors import _Record

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


def _foreign_exports(namespace: dict, names) -> list[str]:
    """Public classes and functions defined outside the package: a
    re-exported ``Fraction`` or ``gcd`` would be a second name for a concept
    the standard library already names."""
    kinds = (type, types.FunctionType, types.BuiltinFunctionType)
    return [
        f"{name} ({value.__module__})"
        for name in names
        if isinstance(value := namespace[name], kinds)
        and not value.__module__.startswith("qlinalg.")
    ]


def test_every_public_class_and_function_is_defined_in_the_package():
    assert _foreign_exports(vars(qlinalg), qlinalg.__all__) == []


def test_the_check_sees_a_reexported_name():
    planted = dict(vars(qlinalg), Q=Fraction, gcd=gcd)
    names = [*qlinalg.__all__, "Q", "gcd"]
    assert _foreign_exports(planted, names) == ["Q (fractions)", "gcd (math)"]


def _classes_off_the_pattern(namespace: dict, names) -> list[str]:
    """Public classes that are none of a frozen result record, an error, an
    enumeration, or one of the two value types: a class of its own kind
    would carry its own equality, hashing, mutability and repr."""
    kinds = (_Record, qlinalg.LinAlgError, enum.Enum, qlinalg.Matrix, qlinalg.Polynomial)
    return [
        name
        for name in names
        if isinstance(value := namespace[name], type) and not issubclass(value, kinds)
    ]


def test_every_public_class_follows_one_pattern():
    assert _classes_off_the_pattern(vars(qlinalg), qlinalg.__all__) == []


def test_the_check_sees_a_plain_class():
    class Pair:
        __slots__ = ("first", "second")

    class Tagged(qlinalg.Combination):
        pass

    planted = dict(vars(qlinalg), Pair=Pair, Tagged=Tagged, Shade=qlinalg.SymmetryClass)
    names = [*qlinalg.__all__, "Pair", "Tagged", "Shade"]
    assert _classes_off_the_pattern(planted, names) == ["Pair"]


def _public_methods() -> list[str]:
    """``Class.name`` for every function, property, classmethod and
    staticmethod defined in the body of a public class of the package,
    dunders included and other ``_`` names left out.  A function the class
    machinery puts there (``enum`` gives each Enum a ``__new__``) is left out
    by its module."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    found = []
    for name in qlinalg.__all__:
        cls = getattr(qlinalg, name)
        if not (isinstance(cls, type) and cls.__module__.startswith("qlinalg.")):
            continue
        for attr, value in vars(cls).items():
            if not isinstance(value, kinds):
                continue
            if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                continue
            func = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
            if func.__module__.startswith("qlinalg."):
                found.append(f"{name}.{attr}")
    return sorted(found)


def test_public_methods_are_pinned():
    # module-level names are pinned above; this pins what each public class
    # defines, so adding or removing a method changes a golden too
    assert _public_methods() == (GOLDEN / "public_methods.txt").read_text().split()


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
    # imported only when --format json output is written.  Annotations need no
    # typing: they stay strings, and the union aliases are ``A | B``.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing")
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


def _record_defaults(sources: dict[str, str]) -> list[str]:
    """Annotated fields given a value in a ``_Record`` subclass (one named
    in any of the modules counts): the record base takes no defaults, so
    such a value would only look like one."""
    classes = [
        (module, node)
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]
    records, grown = {"_Record"}, True
    while grown:
        found = {node.name for _, node in classes
                 if any(getattr(base, "id", None) in records for base in node.bases)}
        grown = not found <= records
        records |= found
    return [
        f"{module}: {node.name}.{stmt.target.id} (line {stmt.lineno})"
        for module, node in classes
        if node.name in records - {"_Record"}
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
    ]


def test_no_record_field_has_a_default():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _record_defaults(sources) == []


def test_the_check_sees_a_record_default():
    sources = {
        "a.py": (
            "class _Record:\n    _fields: tuple = ()\n"
            "class Report(_Record):\n    ok: bool\n    pair: tuple | None = None\n"
            "class Plain:\n    limit: int = 3\n"
        ),
        "b.py": (
            "from .a import Report\n"
            "class Detailed(Report):\n    note: str = ''\n    extra = 1\n"
        ),
    }
    assert _record_defaults(sources) == [
        "a.py: Report.pair (line 5)", "b.py: Detailed.note (line 3)",
    ]


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
    "_primitive", "_exact_div", "_divide_root", "_balanced_digits", "_squarefree_part",
    "_value", "_value_mod", "_simple_roots_mod_prime", "_distinct_rational_roots",
    "_rational_roots", "_rescaled",  # poly.py
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


def test_every_private_function_of_poly_is_an_integer_kernel():
    """poly.py computes on primitive integer coefficients throughout, so a
    new private function there is checked for floats like the rest."""
    tree = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    private = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    assert private and private - _INTEGER_KERNELS == set()


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
        "def _value_mod(a, b):\n    return a[-1] / b[-1]\n"
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
        "/ in _value_mod (line 18)",
        "_ratio(x) in _eigenspace (line 22)",
    ]


def _self_calls(source: str) -> list[str]:
    """Every function that calls itself by name: a function as ``f(...)``, a
    method as ``self.f(...)``, ``cls.f(...)`` or ``Class.f(...)``.  Each
    algorithm is a loop over a sweep, not a recursion whose depth and cost grow
    with n; a method calling a module function of its own name is not a self-call."""
    tree = ast.parse(source)
    owner = {
        id(f): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for f in cls.body if isinstance(f, ast.FunctionDef)
    }
    found = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = owner.get(id(f))
        for call in ast.walk(f):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if cls is None:
                hit = isinstance(fn, ast.Name) and fn.id == f.name
            else:
                hit = (
                    isinstance(fn, ast.Attribute) and fn.attr == f.name
                    and getattr(fn.value, "id", None) in ("self", "cls", cls)
                )
            if hit:
                found.append((call.lineno, f.name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_no_function_calls_itself():
    recursive = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _self_calls(path.read_text(encoding="utf-8")))
    }
    assert recursive == {}


def test_the_check_sees_a_recursion():
    source = (
        "def _expansion(grid, i):\n"
        "    return [sum(_expansion(grid[1:], 0)) for a in grid[i]]\n"
        "def det(a):\n    return _expansion(a, 0)\n"
        "class Polynomial:\n"
        "    def derivative(self, k):\n"
        "        return self.derivative(k - 1) if k else self\n"
        "    @classmethod\n"
        "    def zero(cls, n):\n"
        "        return Polynomial.zero(n - 1), cls.zero(n - 1)\n"
        "    def det(self):\n"
        "        return det(self)\n"
        "def outer(n):\n"
        "    def walk(k):\n"
        "        return walk(k - 1) if k else 0\n"
        "    return walk(n)\n"
    )
    assert _self_calls(source) == [
        "_expansion (line 2)",
        "derivative (line 7)",
        "zero (line 10)",
        "zero (line 10)",
        "walk (line 15)",
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
