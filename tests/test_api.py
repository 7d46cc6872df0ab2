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


def _defined_functions():
    """(qualified name, name) of every module-level function and class, and of
    every public method or property of a module-level class, in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                yield f"{path.stem}.{node.name}", node.name
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_name_is_used_by_the_package():
    unused = sorted(set(kgdecay.__all__) - _referenced_names())
    assert not unused, f"exported but unused inside the package: {unused}"


def test_every_function_and_method_is_used_by_the_package():
    # test oracles live with the tests, not in the package, and so do classes
    # that only the tests build
    referenced = _referenced_names()
    unused = sorted(qualified for qualified, name in _defined_functions() if name not in referenced)
    assert not unused, f"defined but unused inside the package: {unused}"


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; a run must not pay for importing it
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, kgdecay.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# A tiny-grid run of every stage: jumps in b, a perturbed mass and every sweep.
TINY_RUN = """[model]
T = 1.0
b = square lo=0.2 hi=1
m0 = 1.0
epsilon = 5e-9
m1 = sin_offset mean=0 amp=1
[run]
stages = threshold contraction epsilon decay
[grids]
threshold_xi_points = 4
threshold_t_points = 4
verify_t_points = 2
verify_xi_points = 4
contraction_t_points = 4
contraction_xi_points = 8
decay_periods = 10
decay_xi_low_points = 8
decay_xi_high_points = 4
"""


def test_run_leaves_numpy_ma_out(tmp_path):
    # under numpy 2 the first np.unique imports numpy.ma, a start-up cost of
    # every run; the package dedupes its sorted times without it
    config = tmp_path / "run.ini"
    config.write_text(TINY_RUN, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import sys; from kgdecay import cli; "
        f"code = cli.main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 False"
