"""Module boundaries of the package source."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fracmv"
PERFBENCH = TESTS.parent / "perfbench"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # shared code is reached through public names only, so each private
    # helper has exactly one module that may change it
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _all_names(tree):
    """The strings of a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _unused_imports(path):
    """Names a module imports but never uses; `# noqa: F401` lines excepted."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all_names(tree))  # names re-exported through __all__
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_exist(path):
    # a name left in __all__ after its definition was deleted breaks
    # `from fracmv.x import *` and misleads readers
    module = importlib.import_module(
        "fracmv" if path.stem == "__init__" else f"fracmv.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _references(tree, skip=None):
    """Names read as ``Name`` or ``Attribute`` nodes outside ``skip``'s subtree."""
    stack, out = [tree], set()
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_public_names_reached_outside_tests(path):
    # a public name that only tests use is a test oracle and belongs in
    # tests/oracles.py; each name must be read somewhere in the package
    # outside its own definition, or by the benchmark
    others = {p: ast.parse(p.read_text(), filename=str(p))
              for p in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
              if p != path}
    reached = set().union(*(_references(tree) for tree in others.values()))
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = [name for name in _all_names(tree) if name not in reached
              and name not in _references(tree, skip=defs.get(name))]
    assert unused == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_gauss_rules_built_in_quadrature_only(path):
    # every Gauss-Legendre and Gauss-Jacobi rule comes from quadrature.py's
    # own Golub-Welsch rule, which maps and caches them in one place
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert names.isdisjoint({"roots_jacobi", "leggauss"})


def test_cli_import_loads_no_scipy():
    # every command starts a fresh interpreter, and importing scipy took
    # about two thirds of the package's start-up; scipy is a test oracle only
    code = ("import fracmv.cli; import sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_commands_load_only_what_they_use(tmp_path):
    # numpy.ma cost 15.5-17 ms of each process's start-up; np.unique and
    # np.median import it, and no command needs either.  numpy.random cost
    # 8.7 ms and 2.6 MB, and OpenSSL's _hashlib 3.6 MB more, which only the
    # table digest needs, so `extension`, which reads no table, loads none.
    # numpy.polynomial's nine modules served only numpy's leggauss, and
    # numpy.fft only the n = 2 field's ring modes.  The tables have the
    # default grid, since a coarse one fails kernel verify's unit_mass
    table, table2 = tmp_path / "table.txt", tmp_path / "table2.txt"
    code = ("import sys; from fracmv.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(code, *(m in sys.modules for m in ('numpy.ma', 'numpy.random', "
            "'numpy.polynomial', 'numpy.fft', '_hashlib')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    read = ["--table", str(table), "--out", str(tmp_path)]
    for argv, digest in (
            (["kernel", "build", "--n", "1", "--a", "0.0", "--table", str(table)], True),
            (["kernel", "verify", *read], True), (["mvp", *read], True),
            (["extension", "--n", "1", "--a", "0.0", "--out", str(tmp_path)], False),
            (["regularity", *read], True),
            (["kernel", "build", "--n", "2", "--a", "0.0", "--table", str(table2)], True),
            (["mvp", "--table", str(table2), "--out", str(tmp_path)], True)):
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == f"0 False False False False {digest}", argv
