"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liouville"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by imports that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} {name}"
                                 for line, name in unused)


def test_scan_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


def unreferenced_privates(sources: dict) -> list:
    """(module, line, name) of each private module-level function, class or
    constant that no line of ``sources`` references.

    ``sources`` maps module names to their text.  A reference is a read of
    the name, an attribute of that name or an import of it, in any module;
    a docstring that mentions it is none.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_no_unreferenced_privates():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unused = unreferenced_privates(sources)
    assert not unused, ", ".join(f"{module}.py:{line} {name}"
                                 for module, line, name in unused)


def test_scan_sees_an_unreferenced_private():
    sources = {
        "a": ("_USED = 1\n_SPARE = 8\n_A, (_B, _C) = 1, (2, 3)\n"
              "def _orphan(x):\n    \"\"\"Not _SPARE.\"\"\"\n    return x\n"
              "class _Kept:\n    pass\n"
              "def _recurse(n):\n    return _recurse(n - 1) + _USED + _A\n"),
        "b": "from a import _Kept\nimport a\nprint(a._B)\n",
    }
    assert unreferenced_privates(sources) == [
        ("a", 2, "_SPARE"), ("a", 3, "_C"), ("a", 4, "_orphan")]


def unused_parameters(source: str) -> list:
    """(line, "function.parameter") for each parameter its body never reads.

    ``self`` and ``cls`` are exempt; a read inside a nested function or
    lambda counts for the enclosing one.
    """
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unused.extend((p.lineno, f"{name}.{p.arg}") for p in params
                      if p.arg not in ("self", "cls") and p.arg not in read)
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    unused = unused_parameters(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} {name}"
                                 for line, name in unused)


def test_scan_sees_an_unused_parameter():
    source = ("def f(a, b, *args, c, **kw):\n    return a + c\n"
              "class K:\n    def m(self, x, cls):\n"
              "        return lambda y: x\n")
    assert unused_parameters(source) == [
        (1, "f.args"), (1, "f.b"), (1, "f.kw"), (5, "<lambda>.y")]


def scipy_imports(source: str) -> list:
    """Lines of the imports that reach SciPy, at any depth in the module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_at_runtime(path):
    assert scipy_imports(path.read_text()) == [], path.name


def test_scan_sees_a_scipy_import():
    source = ("import numpy\ndef f():\n    from scipy.interpolate import x\n"
              "    import scipy.linalg as la\n")
    assert scipy_imports(source) == [3, 4]
