"""Source hygiene: every imported name is used by the module that imports it.

A stdlib ``ast`` scan over the package, the tests and the demos.  The
package ``__init__`` is skipped: its imports are the public API, exported
through ``__all__``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/multiutility", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
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
