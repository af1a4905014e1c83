"""Every public name the package defines has a caller in the package.

A function, class or method that only tests call belongs in `tests/`.  A
top-level name counts as called when it appears in `src/` (as a name, an
attribute or an imported name) outside its own definition and outside
`__init__.py`; a method counts as called only through an attribute
reference, so a local variable that shares its name is no call.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quiver_orders"

# wrapped by the benchmark's layer tracer, which reads their call counts
ALLOWED = {"closure_leq", "kp_leq"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(tree: ast.AST) -> Counter:
    """How often each name is referenced in a tree; an attribute reference
    is counted under its name with a leading dot."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used["." + node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _public_definitions(tree: ast.Module):
    """Top-level public functions and classes, and their public methods, each
    with the keys of `_names_used` that count as a call of it."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node, (node.name, "." + node.name)
            if isinstance(node, ast.ClassDef):
                yield from (
                    (item, ("." + item.name,))
                    for item in node.body
                    if isinstance(item, _DEFS) and not item.name.startswith("_")
                )


def unreferenced_public_names(src: Path) -> list[str]:
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    used: Counter = Counter()
    for tree in trees.values():
        used += _names_used(tree)
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node, keys in _public_definitions(tree)
        if sum(used[k] - _names_used(node)[k] for k in keys) <= 0
        and node.name not in ALLOWED
    )


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names(SRC) == []


def test_an_uncalled_function_and_method_are_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    shadowed = Box().kept()\n    return shadowed\n\n"
        "def unused():\n    return unused()\n\n"
        "class Box:\n"
        "    def kept(self):\n        return 1\n\n"
        "    def dropped(self):\n        return 2\n\n"
        "    def shadowed(self):\n        return self.shadowed()\n\n"
        "    def _private(self):\n        return 3\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n")
    assert unreferenced_public_names(tmp_path) == ["a.py:dropped", "a.py:shadowed", "a.py:unused"]
