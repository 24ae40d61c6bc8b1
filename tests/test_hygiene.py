"""Source hygiene: every imported name is used by the module that imports
it, and every module-level function or class of the package is referred to.

Stdlib ``ast`` scans over the package, the tests and the demos.  The
import scan skips the package ``__init__``: its imports are the public API,
exported through ``__all__``.  An import alone does not refer to a
definition, so a helper that is only exported still counts as dead.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/multiutility", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/multiutility", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = "import os.path\nimport sys as system\nfrom a import b, c as d\n\nos.sep\nd()\n"
    assert unused_imports(source) == ["b", "system"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES)
def test_imports_are_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced_definitions(sources: dict[str, str], package: str = "src/multiutility/") -> list[str]:
    """Module-level functions and classes in ``package`` that no source refers
    to outside their own definition, as ``path:name``."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    counts = Counter(name for tree in trees.values() for name in _references(tree))
    return sorted(
        f"{path}:{node.name}"
        for path, tree in trees.items()
        if path.startswith(package)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and counts[node.name] == Counter(_references(node))[node.name]
    )


def test_scan_finds_unreferenced_definitions():
    sources = {
        "src/multiutility/a.py": (
            "def used():\n    pass\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "class Gone:\n    def used(self):\n        return Gone()\n\n"
            "class Kept:\n    pass\n"
        ),
        "src/multiutility/__init__.py": "from .a import Gone, Kept, used\n__all__ = ['Gone']\n",
        "tests/test_a.py": "import multiutility.a as a\nfrom multiutility.a import used\n\nused()\na.Kept\n",
    }
    assert unreferenced_definitions(sources) == ["src/multiutility/a.py:Gone", "src/multiutility/a.py:recursive"]


def test_every_package_definition_is_referenced():
    sources = {path: (ROOT / path).read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_definitions(sources) == []


def imported_modules(source: str) -> set[str]:
    """Last dotted component of every module an import statement may load."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_only_cones_imports_linprog():
    # the truncation lab certifies by arithmetic alone, so cones builds every LP the program solves
    for source in ("from . import linprog", "from .linprog import ExactLP", "import multiutility.linprog as lp"):
        assert "linprog" in imported_modules(source)
    importers = [
        path
        for path in SOURCES
        if path.startswith("src/multiutility/")
        and "linprog" in imported_modules((ROOT / path).read_text(encoding="utf-8"))
    ]
    assert importers == ["src/multiutility/cones.py"]


def package_imports(source: str) -> list[str]:
    """Every import statement that loads from multiutility, relative imports included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "multiutility"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "multiutility" for a in node.names):
            found.append(ast.unparse(node))
    return found


def test_linprog_imports_nothing_from_the_package():
    # the simplex takes int rows as they are, so it needs no converter of the package
    for source in ("from .measures import as_fraction", "from . import cones", "import multiutility._linalg"):
        assert package_imports(source) == [source]
    assert package_imports("from fractions import Fraction\nimport math") == []
    assert package_imports((ROOT / "src/multiutility/linprog.py").read_text(encoding="utf-8")) == []
