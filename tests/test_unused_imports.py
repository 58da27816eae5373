"""No module of the package imports a name it never uses.

No linter runs in this suite, so this walks the source with ast, as
test_module_state does.  An import kept on purpose (bench/tracing.py wraps
some functions by name in the namespace of a module that does not call
them) carries ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vsllt"


def _used_names(tree) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line} {name}"
        for path in modules
        for line, name in _unused_imports(path.read_text())
    ]
    assert found == []


def test_the_check_sees_each_kind_of_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, prod\n"
        "from operator import (\n"
        "    add,\n"
        "    and_,\n"
        ")\n"
        "from json import dumps  # noqa: F401\n"
        "from fractions import Fraction\n"
        "from typing import Any\n"
        "def f(x: 'Fraction') -> 'list[Any]':\n"
        "    import sys\n"
        "    return prod(add(x, 1) for _ in os.sep)\n"
    )
    assert _unused_imports(source) == [(3, "osp"), (4, "comb"), (5, "and_"), (13, "sys")]
