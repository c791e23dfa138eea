"""Every module under src/qlinalg uses every name it imports."""

import ast
from pathlib import Path

import qlinalg

PACKAGE = Path(qlinalg.__file__).parent


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
