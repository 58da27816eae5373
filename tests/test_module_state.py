"""No module of the package keeps a mutable container at module level.

Memoized values live in functools.cache on the function that computes them,
so a module-level dict, list or set is a sign of hand-rolled memo state (or
of any other shared mutable state) coming back.  No linter runs in this
suite, so this walks the source with ast instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vsllt"

CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_container(value) -> bool:
    if isinstance(value, CONTAINER_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in CONTAINER_CALLS
    return False


def _module_level_containers(tree):
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _is_container(node.value):
                yield node.lineno


def test_no_module_level_mutable_containers():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _module_level_containers(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_check_sees_each_kind_of_container():
    source = "A = {}\nB: list = []\nC = set()\nD = {k: 1 for k in ()}\nE = (1, 2)\nF = dict(x=1)\n"
    assert list(_module_level_containers(ast.parse(source))) == [1, 2, 3, 4, 6]
