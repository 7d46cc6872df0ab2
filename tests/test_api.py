"""The public API holds only what the pipeline uses."""

import ast
from pathlib import Path

import kgdecay

SRC = Path(kgdecay.__file__).parent


def _referenced_names():
    """Every name that a module of the package reads, imports or calls.

    A ``def`` or ``class`` statement defines its name without referencing it,
    so a function that only ``__init__.py`` exports is not counted.
    """
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_by_the_package():
    unused = sorted(set(kgdecay.__all__) - _referenced_names())
    assert not unused, f"exported but unused inside the package: {unused}"
