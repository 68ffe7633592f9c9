"""Source hygiene checks that need only the standard library."""

import ast
import os
import pathlib
import re
import subprocess
import sys

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


def names_read(node) -> set:
    """Every bare name and attribute name that occurs in an AST subtree."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def attributes_read(node) -> set:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_counting_oracle_stays_a_second_route():
    """The enumeration oracle checks the record kernel only while it shares
    none of its code: it never names the record step, the backward passes
    or the ABL product, and no module but _accel reads a record step's
    branches."""
    snippet = ast.parse("branches = _accel.record_step(m, dt).branches")
    assert names_read(snippet) == {"branches", "_accel", "record_step", "m", "dt"}
    assert attributes_read(snippet) == {"record_step", "branches"}
    oracle = {"_counting_ops", "_counting_sandwich", "CountingEnumeration", "enumerate_counting"}
    tree = ast.parse((SRC / "trajectories.py").read_text())
    found = {n.name: names_read(n) for n in tree.body if getattr(n, "name", None) in oracle}
    assert set(found) == oracle
    kernel = {"_accel", "record_step", "RecordStep", "_backward", "backward_counting", "abl_distribution", "BoundaryPair"}
    assert {name: names & kernel for name, names in found.items()} == dict.fromkeys(oracle, set())
    readers = [p.name for p in sorted(SRC.glob("*.py")) if "branches" in attributes_read(ast.parse(p.read_text()))]
    assert readers == ["_accel.py"]


def test_only_the_cli_and_pqs_summary_csv_write_files():
    """Scenarios return their tables and the CLI writes every file; the one
    other writer is trajectories.pqs_summary_csv."""
    assert names_read(ast.parse("os.makedirs(d)\nwith open(p) as fh: pass")) >= {"makedirs", "open"}
    writers = [p.name for p in sorted(SRC.glob("*.py"))
               if names_read(ast.parse(p.read_text())) & {"open", "makedirs"}]
    assert writers == ["cli.py", "trajectories.py"]


def kernel_callers(source: str) -> list:
    """Module-level functions that name _accel.homodyne_paths or _accel.counting_paths."""
    entries = {"homodyne_paths", "counting_paths"}
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, ast.Attribute) and n.attr in entries
                    and isinstance(n.value, ast.Name) and n.value.id == "_accel"
                    for n in ast.walk(node))]


def test_one_forward_body_calls_the_record_kernels():
    """simulate_*, replay_* and ensemble_* of both modes share one body; a mode
    twin that calls its kernel entry itself has grown its own copy of it."""
    twins = "def a():\n    return _accel.homodyne_paths(s)\n\n\ndef b():\n    k = _accel.counting_paths\n"
    assert kernel_callers(twins + "\n\ndef c():\n    return homodyne_paths\n") == ["a", "b"]
    assert kernel_callers((SRC / "trajectories.py").read_text()) == ["_filter"]


GRID_CALLS = {"allclose", "diff", "rint", "argmin"}


def grid_decisions(source: str) -> list:
    """(line, name) of each np.allclose, np.diff, np.rint or np.argmin call with an argument that names `times`."""
    return [(node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in GRID_CALLS
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and any("times" in names_read(arg) for arg in [*node.args, *(k.value for k in node.keywords)])]


def test_the_scan_sees_a_grid_decision():
    src = "d = np.diff(rec.times)\nk = np.argmin(abs(times - t))\nok = np.allclose(h, b=self.times)\n"
    src += "same = np.allclose(h, h[0])\nr = np.rint(x)\nn = len(times)\n"
    assert grid_decisions(src) == [(1, "diff"), (2, "argmin"), (3, "allclose")]


def test_only_dynamics_decides_the_time_grid():
    """Uniformity, lookup and same-grid checks on times go through the
    helpers of dynamics, so records, pairs and sample times share its one
    tolerance; a module that tests times itself has grown a second policy."""
    found = {p.name: grid_decisions(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "dynamics.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def eigh_calls(source: str) -> list:
    """Lines of each call of a function named eigh or eigvalsh, such as np.linalg.eigh."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and {"eigh", "eigvalsh"} & {getattr(node.func, "attr", None), getattr(node.func, "id", None)}]


def spectral_rebuilds(source: str) -> list:
    """(enclosing definition, line) of each V diag(·) V† written as (v * …) @ dagger(v), the same v twice."""
    hits = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
                and isinstance(node.right, ast.Call) and len(node.right.args) == 1
                and "dagger" in (getattr(node.right.func, "attr", None), getattr(node.right.func, "id", None))
                and ast.dump(node.left.left) == ast.dump(node.right.args[0])):
            hits.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return hits


def test_the_scan_sees_eigh_calls_and_rebuilds():
    src = "w, v = np.linalg.eigh(a)\nu = eigh(a)\nn = np.linalg.eigvalsh(a)\n\n\ndef f(v, w):\n"
    src += "    return (v * w) @ dagger(v)\n\n\nclass S:\n    def rebuild(self, w):\n"
    src += "        return (self.v * w[..., None, :]) @ al.dagger(self.v)\n"
    src += "\n\nx = (u * w) @ dagger(v)\ny = v * w @ dagger(v)\nz = (v + w) @ dagger(v)\n"
    assert eigh_calls(src) == [1, 2, 3]
    assert spectral_rebuilds(src) == [("f", 7), ("S.rebuild", 12), ("", 16)]  # * and @ bind alike


def test_only_algebra_decomposes_and_only_spectrum_rebuilds():
    """Every eigenproblem is solved by algebra.eigenvalues or
    algebra.eigensystem, which take the closed form for 2×2 stacks, so a
    module that calls eigh or eigvalsh itself pays LAPACK's per-matrix cost
    there;
    and V diag(·) V† is written once, as Spectrum.rebuild, not by hand in
    each module that needs an operator back from its spectrum."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [name for name, text in sources.items() if eigh_calls(text)] == ["algebra.py"]
    solvers = [node.name for node in ast.parse(sources["algebra.py"]).body
               if isinstance(node, ast.FunctionDef) and eigh_calls(ast.unparse(node))]
    assert solvers == ["eigenvalues", "eigensystem"]
    rebuilds = [(name, where) for name, text in sources.items() for where, _ in spectral_rebuilds(text)]
    assert rebuilds == [("algebra.py", "Spectrum.rebuild")]


def trace_pairings(source: str) -> list:
    """(enclosing definition, line) of each Tr[A B] written out: an einsum of two
    operands whose last two indices are swapped and summed away, such as
    "...ij,...ji", or np.trace(A @ B)."""
    hits = []

    def pairs_by_einsum(node):
        spec = node.args[0].value if node.args and isinstance(node.args[0], ast.Constant) else ""
        inputs, _, out = str(spec).replace(" ", "").partition("->")
        ops = [op.replace("...", "")[-2:] for op in inputs.split(",")]
        return (len(ops) == 2 and all(len(op) == 2 for op in ops) and ops[0] == ops[1][::-1]
                and ops[0][0] != ops[0][1] and not set(ops[0]) & set(out))

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            by_trace = (name == "trace" and node.args and isinstance(node.args[0], ast.BinOp)
                        and isinstance(node.args[0].op, ast.MatMult))
            if by_trace or (name == "einsum" and pairs_by_einsum(node)):
                hits.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return hits


def test_the_scan_sees_trace_pairings():
    src = 'a = np.einsum("...ij,...ji->...", x, y).real\n'
    src += 'b = np.einsum("kij,kji->k", bwd.mats, fwd.mats).real\n'
    src += 'c = np.einsum("ij,kji->k", xc, states.mats[:-1]).real\n'
    src += 'd = float(np.trace(asoperator(e) @ rho).real)\n'
    src += 'e = einsum("ij, ji", x, y)\n\n\ndef f(v, x):\n'
    src += '    return np.einsum("...jki,...jk->...i", v, x).real\n'
    src += 'g = np.einsum("ij,ji->ij", x, y)\nh = np.einsum("ikjk->ij", s)\n'
    src += 'i = np.einsum("...ki,...i->...k", p, w)\nj = np.trace(x) @ y\nk = np.einsum(spec, x, y)\n'
    assert trace_pairings(src) == [("", 1), ("", 2), ("", 3), ("", 4), ("", 5)]


def test_only_pairing_takes_the_trace_of_a_product():
    """Re Tr[A B] is algebra.pairing, which sums the trace entrywise and
    rejects an imaginary part: a module that writes its own einsum or
    np.trace(A @ B) has grown a second spelling of the paper's pairing."""
    found = [(p.name, where) for p in sorted(SRC.glob("*.py")) for where, _ in trace_pairings(p.read_text())]
    assert found == [("algebra.py", "pairing")]


def heisenberg_maps(source: str) -> list:
    """(enclosing definition, line) of each Heisenberg map S† written out: a
    conjugate taken of a superoperator (an expression that reads .superop or
    .superops), or apply_superop given a conjugated operand."""
    hits = []

    def conjugated(node):  # the operand of a conj call, x.conj() or np.conj(x); None for any other node
        if isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "conj":
            return node.args[0] if node.args else node.func.value
        return None

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        operand = conjugated(node)
        if operand is not None and {"superop", "superops"} & attributes_read(operand):
            hits.append((where, node.lineno))
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "apply_superop" and node.args
                and any(conjugated(n) is not None for n in ast.walk(node.args[0]))):
            hits.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(set(hits), key=lambda h: h[1])


def test_only_instrument_adjoint_pulls_an_effect_back():
    """The Heisenberg map X -> S†(X) of a superoperator is algebra.apply_adjoint:
    Instrument.adjoint, Channel.adjoint, LindbladGenerator.adjoint and the
    backward chain sweep call it, and the POVM and the effective effects are
    Instrument.adjoint applied to I and to E, not a conjugated stack of their
    own. The scan sees the spellings apply_adjoint replaced."""
    src = "class I:\n    def adjoint(self, m, x):\n        return apply_superop(self.superops[m].conj().T, x)\n"
    src += "e = np.eye(2).reshape(-1) @ ins.superops.conj()\nc = st.instrument.superop.conj().T\n"
    src += "def adjoint(self, x):\n    return apply_superop(np.conj(s).T, x)\nf = x @ np.conj(gen.superop)\n"
    src += "b = (op @ basis.conj().T).real\ng = apply_adjoint(st.instrument.superop, e)\nh = apply_superop(s, x)\n"
    assert heisenberg_maps(src) == [("I.adjoint", 3), ("", 4), ("", 5), ("adjoint", 7), ("", 8)]
    found = [(p.name, where) for p in sorted(SRC.glob("*.py")) for where, _ in heisenberg_maps(p.read_text())]
    assert found == []


def defect_comparisons(source: str) -> list:
    """Lines of each comparison with a hermiticity_defect(...) call as an operand."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
            and any(isinstance(x, ast.Call)
                    and "hermiticity_defect" in (getattr(x.func, "attr", None), getattr(x.func, "id", None))
                    for x in [node.left, *node.comparators])]


def test_the_scan_sees_a_hermiticity_defect_comparison():
    src = "if hermiticity_defect(m) > tol:\n    pass\nok = al.hermiticity_defect(e) < 1e-12\n"
    src += "d = hermiticity_defect(m)\nbad = d > tol\nx = 1e-9 >= al.hermiticity_defect(a) > 0\n"
    assert defect_comparisons(src) == [1, 3, 6]


def test_one_hermiticity_check():
    """Operators are checked Hermitian by algebra._require_hermitian alone,
    whose tolerance scales with the largest entry; a module that compares
    hermiticity_defect with a fixed tolerance has grown a second check."""
    found = {p.name: defect_comparisons(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def numpy_random(source: str) -> list:
    """Lines that name np.random."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
                   and node.attr == "random" and getattr(node.value, "id", None) == "np"})


def noise_and_dispatch(source: str) -> list:
    """Lines that name np.random or a Generator, or call isinstance."""
    hits = set(numpy_random(source))
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        called = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        if name == "Generator" or called:
            hits.add(node.lineno)
    return sorted(hits)


def test_the_scan_sees_noise_and_dispatch():
    src = "g = np.random.default_rng(0)\nx = rng.random(3)\ndef f(noise: Generator):\n    pass\n"
    src += "y = np.random.Generator(np.random.Philox(1))\nif isinstance(x, Uniforms):\n    pass\nz = x.random\n"
    assert noise_and_dispatch(src) == [1, 3, 5, 6]


def test_the_kernels_draw_no_noise():
    """_accel holds the record steps and the kernels that apply them, linear
    maps only: the caller draws the noise and hands over arrays or row-sliced
    sources alike, so the kernels name no generator and dispatch on no type."""
    assert noise_and_dispatch((SRC / "_accel.py").read_text()) == []


def test_the_scan_sees_numpy_random():
    src = "g = np.random.default_rng(0)\nx = rng.random(3)\ny = np.random.Generator(\n    np.random.Philox(1))\n"
    assert numpy_random(src) == [1, 3, 4]


def test_one_module_builds_generators():
    """Every random generator comes from trajectories._philox, under one seed
    rule; a module that names np.random builds its own and can round a seed."""
    found = {p.name: numpy_random(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert [name for name, hits in found.items() if hits] == ["trajectories.py"]


def scipy_names(source: str) -> list:
    """Lines that import scipy or name it in an identifier, an attribute or a string."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            names = [node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")]
        if any(re.search(r"\bscipy\b", n) for n in names):
            hits.append(node.lineno)
    return sorted(set(hits))


def test_the_scan_sees_scipy():
    src = "import scipy.linalg\nfrom scipy import linalg\nimport numpy as np\nx = np.linalg.norm(a)\n"
    src += "m = importlib.import_module('scipy')\ny = scipy_like + sp.scipy\ndef f():\n    \"\"\"exp by scipy.\"\"\"\n"
    assert scipy_names(src) == [1, 2, 5, 6, 8]


def src_env() -> dict:
    """The environment of a fresh interpreter that imports retroq from this tree's src."""
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_no_retroq_module_loads_scipy():
    """numpy is retroq's one runtime dependency: no file under src/retroq
    names scipy, and a fresh interpreter that imports every module has no
    scipy module loaded."""
    found = {p.name: scipy_names(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
    names = [p.stem for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    assert "scenarios" in names and "cli" in names
    probe = "import sys\n"
    probe += "".join(f"import retroq.{name}\n" for name in names)
    probe += "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_pairing_drift_and_the_catalog_run_with_scipy_blocked(tmp_path):
    """With scipy's import blocked, dynamics.pairing_drift returns its
    reference drift and verify-all passes: retroq runs on numpy alone."""
    probe = "import sys\nsys.modules['scipy'] = None\n"
    probe += "import numpy as np\nfrom retroq import cli, dynamics as dyn\nfrom retroq.algebra import SM, SZ\n"
    probe += "gen = dyn.LindbladGenerator(SZ, (dyn.Bath('decay', (SM,)),))\n"
    probe += "print(dyn.pairing_drift(gen, np.diag([0.0, 1.0]), np.diag([0.3, 0.6]), 0.0, 1.0, 1e-3))\n"
    probe += "sys.exit(cli.main(['verify-all', '--out', sys.argv[1]]))\n"
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", probe, str(tmp_path)],
                         env=src_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert 0.0 <= float(lines[0]) < 1e-8
    assert lines[-1].startswith("verify-all: PASS")
