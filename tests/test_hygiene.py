"""Source hygiene checks that need only the standard library."""

import ast
import pathlib
import re

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


ROOT = SRC.parents[1]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def public_definitions(source: str) -> list:
    """(name, first line, last line) of each public module-level function, class or
    assigned name, and of each public method of a module-level class."""
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno, node.end_lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m.lineno, m.end_lineno) for m in node.body if isinstance(m, ast.FunctionDef)]
    return [d for d in out if not d[0].startswith("_")]


def dead_names(modules: dict, others: dict) -> list:
    """(module, name) of each public definition whose name occurs in no text
    outside the lines of its own definition; modules and others map paths to text."""
    seen = {}
    for path, text in {**modules, **others}.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in set(WORD.findall(line)):
                seen.setdefault(word, []).append((path, lineno))
    return [
        (path, name)
        for path, source in modules.items()
        for name, first, last in public_definitions(source)
        if all(p == path and first <= ln <= last for p, ln in seen[name])
    ]


def test_the_scan_sees_a_dead_name():
    mod = "X = 1\n\n\nclass A:\n    def go(self):\n        return A\n\n\ndef unused():\n    return X\n"
    assert dead_names({"m.py": mod}, {"t.py": "from m import X, A\n"}) == [("m.py", "go"), ("m.py", "unused")]


def test_every_public_name_has_a_reader():
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = {str(p.relative_to(ROOT)): p.read_text()
              for p in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py"), ROOT / "README.md"])}
    assert dead_names(modules, others) == []
