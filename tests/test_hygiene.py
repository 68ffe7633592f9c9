"""Source hygiene checks that need only the standard library."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "retroq"


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, in import order; __future__ imports excepted."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in imported if name not in used]


def test_the_scan_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os\n"
    src += "from .algebra import dagger, tensor\nx = dagger(os)\n"
    assert unused_imports(src) == [("tensor", 3)]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
