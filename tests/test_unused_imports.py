"""Every imported name is read by the module that imports it.

A scan over each module's syntax tree, since no linter runs beside the
suite. A package's __init__.py is exempt: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "udkernels").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that the module never reads."""
    module = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            bound += [(node.lineno, name) for name in names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
            bound += [(node.lineno, name) for name in names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os.path\nimport sys as system\nfrom json import dumps, loads\nsystem.exit(0)"
    assert unused_imports(source) == [(1, "os"), (3, "dumps"), (3, "loads")]
    assert unused_imports("from __future__ import annotations\nfrom x import *\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
