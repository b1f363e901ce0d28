"""The repository's lints, run as tier-1 tests.

One index parses every .py file under src/kasteleyn, tests and bench once;
each rule reads it and lists its offenders as "path:line: ...".  Each rule is
also run on a small source that breaks it, so a rule that stops flagging
anything fails here too.
"""

import ast
import pathlib
from textwrap import dedent

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = "src/kasteleyn/"
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def build_index():
    """{posix path relative to the repository: parsed module} of every source file."""
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), str(path))
            for top in (LIBRARY, "tests", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))}


def _library(index):
    return [(path, tree) for path, tree in index.items() if path.startswith(LIBRARY)]


def dependency_offenders(pyproject):
    """The package runs on the standard library alone."""
    deps = pyproject["project"]["dependencies"]
    return [f"pyproject.toml: [project].dependencies must be empty, found {deps}"] if deps else []


def unused_imports(index):
    """An import of a library module (not the package's __init__) whose name
    the module never reads."""
    bad = []
    for path, tree in _library(index):
        if path.endswith("/__init__.py"):
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    bad.append(f"{path}:{node.lineno}: {name} is imported but never used")
    return bad


def noop_ifs(index):
    """An `if` without `else` whose body is only `pass`."""
    return [f"{path}:{node.lineno}: if statement whose body is only pass"
            for path, tree in _library(index) for node in ast.walk(tree)
            if isinstance(node, ast.If) and not node.orelse
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)]


def unreferenced_private(index):
    """A private module-level function, or private method of a module-level
    class, whose name the library never reads as a name or an attribute."""
    defs, used = [], set()
    for path, tree in _library(index):
        for body in [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]:
            defs += [(f"{path}:{node.lineno}: {node.name}", node.name) for node in body
                     if isinstance(node, _FUNCS)
                     and node.name.startswith("_") and not node.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} is defined but never referenced" for where, name in defs
            if name not in used]


def unreferenced_public(index):
    """A public module-level function or class of the library that nothing in
    the index reads as a name or an attribute, and a public method of a
    library class that nothing reads as an attribute (`x.name`): a local
    variable of the same name does not reference a method."""
    defs, names, attrs = [], set(), set()
    for path, tree in _library(index):
        for top in tree.body:
            if isinstance(top, (*_FUNCS, ast.ClassDef)) and not top.name.startswith("_"):
                defs.append((f"{path}:{top.lineno}: {top.name}", top.name, False))
            if isinstance(top, ast.ClassDef):
                defs += [(f"{path}:{node.lineno}: {top.name}.{node.name}", node.name, True)
                         for node in top.body
                         if isinstance(node, _FUNCS) and not node.name.startswith("_")]
    for tree in index.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [f"{where} is public but never referenced" for where, name, method in defs
            if name not in attrs and (method or name not in names)]


@pytest.fixture(scope="module")
def index():
    return build_index()


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")       # Python 3.11 and later
    bad = dependency_offenders(tomllib.loads((ROOT / "pyproject.toml").read_text()))
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("rule", [unused_imports, noop_ifs, unreferenced_private,
                                  unreferenced_public])
def test_library_passes(index, rule):
    bad = rule(index)
    assert not bad, "\n".join(bad)


def test_dependency_rule_flags_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads('[project]\ndependencies = ["numpy"]\n')
    assert dependency_offenders(pyproject) == [
        "pyproject.toml: [project].dependencies must be empty, found ['numpy']"]


@pytest.mark.parametrize("rule, source, flagged", [
    (unused_imports, """
        import os
        import sys
        print(sys.argv)
        """, ["src/kasteleyn/fake.py:2: os is imported but never used"]),
    (noop_ifs, """
        if x:
            pass
        if y:
            pass
        else:
            z()
        """, ["src/kasteleyn/fake.py:2: if statement whose body is only pass"]),
    (unreferenced_private, """
        def _unused():
            return 1

        def _used():
            return 2

        print(_used())
        """, ["src/kasteleyn/fake.py:2: _unused is defined but never referenced"]),
    # `area` is read only as a local name, which does not reference Box.area
    (unreferenced_public, """
        class Box:
            def area(self):
                return 1

        def total(boxes):
            area = 0
            for box in boxes:
                area += 1
            return area

        total([Box()])
        """, ["src/kasteleyn/fake.py:3: Box.area is public but never referenced"]),
])
def test_rule_flags_its_violation(rule, source, flagged):
    assert rule({LIBRARY + "fake.py": ast.parse(dedent(source))}) == flagged
