"""Every top-level definition and method of the package is used somewhere,
and every import is used by the module that makes it.

A function, class or assigned name defined at the top level of a module
under `src/comprelie`, and a method (dunders aside) of a class defined
there, must appear as a code token (not in a comment or a string) on some
line of `src/` or `tests/` outside its own definition and outside every
import statement: a name that is only imported is not used.
A name a module under `src/comprelie` or `tests` imports must occur as a
name in that module's code.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"__version__"}


def name_lines(root: Path) -> dict:
    """name -> set of (path, line) where it occurs as a code token, lines
    of import statements left out."""
    seen = defaultdict(set)
    for path in sorted(root.glob("src/**/*.py")) + sorted(
            root.glob("tests/**/*.py")):
        text = path.read_text()
        imports = {ln for node in ast.walk(ast.parse(text))
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for ln in range(node.lineno, node.end_lineno + 1)}
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME and tok.start[0] not in imports:
                seen[tok.string].add((path, tok.start[0]))
    return seen


def _span(node) -> tuple[int, int]:
    """First and last line of a definition, its decorators included."""
    return (min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", [])]),
            node.end_lineno)


def top_level_definitions(path: Path):
    """(name, first line, last line) of each top-level def, class and
    assigned name, and (Class.method, ...) of each method of a top-level
    class that is not a dunder."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not m.name.startswith("__")):
                    yield f"{node.name}.{m.name}", *_span(m)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, *_span(node)


def unreferenced(root: Path) -> list[str]:
    seen = name_lines(root)
    dead = []
    for path in sorted((root / "src" / "comprelie").glob("*.py")):
        for name, first, last in top_level_definitions(path):
            uses = [(p, ln) for p, ln in seen[name.split(".")[-1]]
                    if p != path or not first <= ln <= last]
            if not uses and name not in ALLOWED:
                dead.append(f"{path.stem}.{name}")
    return dead


def unused_imports(root: Path) -> list[str]:
    """module.name for every name a module of the package or of the tests
    imports but never reads."""
    dead = []
    for path in sorted((root / "src" / "comprelie").glob("*.py")) + sorted(
            (root / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0]
                             for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        dead += [f"{path.stem}.{name}" for name in imported
                 if name not in used]
    return dead


def test_every_top_level_name_is_referenced():
    assert unreferenced(ROOT) == []


def test_the_guard_sees_a_dead_helper(tmp_path):
    pkg = tmp_path / "src" / "comprelie"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "m.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def dead():\n    return dead()  # dead\n\n\n"
        "X = used()\n")
    (tmp_path / "tests" / "test_m.py").write_text(
        "from m import X\n\nassert X == 1\n")
    assert unreferenced(tmp_path) == ["m.dead"]


def test_the_guard_sees_a_dead_method(tmp_path):
    pkg = tmp_path / "src" / "comprelie"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "m.py").write_text(
        "class C:\n"
        "    def __init__(self):\n        self.x = self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    @staticmethod\n"
        "    def dead():\n        return C.dead()  # dead\n\n"
        "    def tested(self):\n        return 2\n")
    (tmp_path / "tests" / "test_m.py").write_text(
        "from m import C\n\n\n"
        "def test_tested():\n    assert C().tested() == 2\n")
    assert unreferenced(tmp_path) == ["m.C.dead"]


def test_the_guard_does_not_count_an_import_as_a_use(tmp_path):
    pkg = tmp_path / "src" / "comprelie"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "m.py").write_text(
        "def called():\n    return 1\n\n\n"
        "def imported():\n    return 2\n")
    (tmp_path / "tests" / "test_m.py").write_text(
        "from m import (\n    called,\n    imported,\n)\n\n\n"
        "def test_called():\n    assert called() == 1\n")
    assert unreferenced(tmp_path) == ["m.imported"]


def test_every_import_is_used():
    assert unused_imports(ROOT) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    pkg = tmp_path / "src" / "comprelie"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import re as regex\n"
        "from .ptree import EMPTY, parse as read, serialize\n\n\n"
        "def f(text: str):\n"
        "    return os.path.join(serialize(read(text)), EMPTY)\n")
    assert unused_imports(tmp_path) == ["m.regex"]


def test_the_guard_sees_an_unused_import_in_the_tests(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "from fractions import Fraction\n"
        "from hypothesis import given, strategies as st\n\n"
        "from comprelie.lincomb import LinComb, unit\n\n\n"
        "@given(st.integers())\n"
        "def test_unit(n):\n"
        "    assert unit(n) == {n: 1}\n")
    assert unused_imports(tmp_path) == ["test_m.Fraction", "test_m.LinComb"]
