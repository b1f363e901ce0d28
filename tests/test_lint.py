"""The repository's lints, run as tier-1 tests.

One index parses every .py file under src/kasteleyn, tests and bench once;
each rule reads it and lists its offenders as "path:line: ...".  Each rule is
also run on a small source that breaks it, so a rule that stops flagging
anything fails here too.  README "Library use" is the registry of public
definitions that only tests call, and its example block runs here, as does
the command block of README "CLI".
"""

import ast
import json
import pathlib
import re
import shlex
from textwrap import dedent

import pytest

from kasteleyn import cli

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
    class (see `_methods`), whose name the library never reads as a name or
    an attribute.  A binding is not a read: only names and attributes
    loaded count."""
    defs, used = [], set()
    for path, tree in _library(index):
        members = [(node.lineno, node.name) for node in tree.body if isinstance(node, _FUNCS)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += _methods(cls)
        defs += [(f"{path}:{line}: {name}", name) for line, name in members
                 if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return [f"{where} is defined but never referenced" for where, name in defs
            if name not in used]


def readme_section(title):
    """The text of README's section `## title`."""
    return (ROOT / "README.md").read_text().split(f"\n## {title}\n")[1].split("\n## ")[0]


def library_use():
    """The text of README's "Library use" section."""
    return readme_section("Library use")


def documented_names(text):
    """The names `text` writes in single backquotes: `name` or `Class.name`."""
    return set(re.findall(r"(?<!`)`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`(?!`)", text))


def _methods(cls):
    """(line, name) of each method in a class body: a `def`, or a name bound
    as `name = staticmethod(f)` or `name = classmethod(f)`."""
    for node in cls.body:
        if isinstance(node, _FUNCS):
            yield node.lineno, node.name
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
              and node.value.func.id in ("staticmethod", "classmethod")):
            yield node.lineno, node.targets[0].id


def unreferenced_public(index, documented=None):
    """A public module-level function or class of the library that neither
    the library nor bench/ reads as a name or an attribute, or a public
    method or property of a library class (a `def`, or a name bound to
    `staticmethod(f)` or `classmethod(f)`) that neither reads as an
    attribute (`x.name`: a local variable of the same name does not
    reference a method), unless README "Library use" (or `documented`)
    names it, a method as `Class.name`.  A reference from tests/ alone
    does not count."""
    if documented is None:
        documented = documented_names(library_use())
    defs, names, attrs = [], set(), set()
    for path, tree in _library(index):
        for top in tree.body:
            if isinstance(top, (*_FUNCS, ast.ClassDef)) and not top.name.startswith("_"):
                defs.append((f"{path}:{top.lineno}", top.name, top.name, names))
            if isinstance(top, ast.ClassDef):
                defs += [(f"{path}:{line}", f"{top.name}.{name}", name, attrs)
                         for line, name in _methods(top) if not name.startswith("_")]
    for path, tree in index.items():
        if path.startswith("tests/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return [f"{where}: {qualname} is public, but neither the library nor bench/ reads it "
            "and README \"Library use\" does not name it"
            for where, qualname, name, read in defs
            if name not in read and qualname not in documented]


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


def test_library_use_example():
    # the fenced block of README "Library use" runs, and its bare
    # expressions give the values its comments state
    block = library_use().split("```python\n")[1].split("```")[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert values == [20, "Z/2 + Z/10",
                      ["1 + q^2", "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + q^5 + q^6"]]


def test_cli_example(capsys):
    # each `kasteleyn ...` line of the README "CLI" block runs through
    # `cli.main` and exits 0, and a `# -> ` comment under it holds: a JSON
    # object (`...` standing for the other keys) is a part of the output,
    # any other text a line of it
    block = readme_section("CLI").split("```sh\n")[1].split("```")[0]
    runs = 0
    for line in block.splitlines():
        if line.startswith("kasteleyn "):
            argv = shlex.split(line.split("#")[0])[1:]
            capsys.readouterr()
            assert cli.main(argv) == 0, line
            out = capsys.readouterr().out
            runs += 1
        elif line.startswith("# -> {"):
            want = json.loads(line[len("# -> "):].replace(", ...}", "}"))
            got = json.loads(out)
            assert {k: got[k] for k in want} == want, argv
        elif line.startswith("# -> "):
            assert line[len("# -> "):] in out.splitlines(), argv
    assert runs == 11


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
    # a member bound by staticmethod is a method too, and its own binding
    # does not read it
    (unreferenced_private, """
        class Box:
            _side = staticmethod(abs)
            _area = staticmethod(len)

        print(Box._area)
        """, ["src/kasteleyn/fake.py:3: _side is defined but never referenced"]),
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
        """, ["src/kasteleyn/fake.py:3: Box.area is public, but neither the library nor "
              'bench/ reads it and README "Library use" does not name it']),
])
def test_rule_flags_its_violation(rule, source, flagged):
    assert rule({LIBRARY + "fake.py": ast.parse(dedent(source))}) == flagged


def test_public_rule_flags_a_definition_only_tests_read():
    index = {LIBRARY + "fake.py": ast.parse(dedent("""
                 def helper():
                     return 1

                 def used():
                     return 2

                 print(used())
                 """)),
             "tests/test_fake.py": ast.parse("from kasteleyn.fake import helper\nhelper()\n")}
    assert unreferenced_public(index, documented=set()) == [
        'src/kasteleyn/fake.py:2: helper is public, but neither the library nor bench/ '
        'reads it and README "Library use" does not name it']
    assert unreferenced_public(index, documented={"helper"}) == []


def test_public_rule_flags_a_method_only_tests_read():
    index = {LIBRARY + "fake.py": ast.parse(dedent("""
                 class Box:
                     def area(self):
                         return 1

                     def volume(self):
                         return 2

                 print(Box().volume())
                 """)),
             "tests/test_fake.py": ast.parse("from kasteleyn.fake import Box\nBox().area()\n")}
    flagged = ['src/kasteleyn/fake.py:3: Box.area is public, but neither the library nor '
               'bench/ reads it and README "Library use" does not name it']
    assert unreferenced_public(index, documented=set()) == flagged
    # the bare method name does not document it; `Class.method` does
    assert unreferenced_public(index, documented={"area"}) == flagged
    assert unreferenced_public(index, documented=documented_names(
        "- A box has an area: `Box.area` (`test_area`).")) == []


def test_public_rule_flags_a_member_bound_by_staticmethod():
    # `side` is data, not a method, and is not checked
    index = {LIBRARY + "fake.py": ast.parse(dedent("""
                 class Box:
                     side = 3
                     area = staticmethod(abs)
                     volume = classmethod(len)

                 print(Box.volume)
                 """)),
             "tests/test_fake.py": ast.parse("from kasteleyn.fake import Box\nBox.area(-1)\n")}
    assert unreferenced_public(index, documented=set()) == [
        'src/kasteleyn/fake.py:4: Box.area is public, but neither the library nor '
        'bench/ reads it and README "Library use" does not name it']
