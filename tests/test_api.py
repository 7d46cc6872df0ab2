"""The public API holds only what the pipeline uses."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; a run must not pay for importing it
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, kgdecay.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
