"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quiver_orders"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_source_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    outside = {
        path.name: sorted(_absolute_imports(path) - sys.stdlib_module_names)
        for path in files
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_absolute_imports_are_found():
    names = _absolute_imports(SRC / "cli.py")
    assert {"argparse", "os", "sys", "pathlib", "__future__"} <= names
    # relative imports are the package's own
    assert not names & {"convex_order", "fields", "quiver_orders"}
