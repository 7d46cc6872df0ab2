"""The public API holds only what the pipeline uses."""

import ast
import inspect
import math
import os
import subprocess
import sys
import types
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


def _package_calls():
    """name -> [(positional count, keyword names)] of every call inside the
    package, the name being the called name or attribute; a starred argument
    counts as every position, a ``**`` argument as every keyword."""
    calls = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((math.inf if starred else len(node.args), keywords))
    return calls


def _public_signatures():
    """(qualified name, called name, parameters as a call passes them) of every
    function in ``kgdecay.__all__``, and of the constructor and public methods
    of every class there."""
    for export in kgdecay.__all__:
        obj = getattr(kgdecay, export)
        if inspect.isfunction(obj):
            yield export, export, list(inspect.signature(obj).parameters.values())
        elif inspect.isclass(obj):
            yield export, export, list(inspect.signature(obj).parameters.values())
            for name, member in vars(obj).items():
                if name.startswith("_") or not isinstance(member, (staticmethod, classmethod, types.FunctionType)):
                    continue
                params = list(inspect.signature(getattr(obj, name)).parameters.values())
                if inspect.isfunction(member):
                    params = params[1:]  # an instance method's call passes self implicitly
                yield f"{export}.{name}", name, params


def test_every_defaulted_parameter_is_set_by_the_package():
    # a default that no call inside the package overrides is a knob only the
    # tests turn; such a setting belongs in a module constant
    calls = _package_calls()
    unset = []
    for qualified, name, params in _public_signatures():
        for pos, param in enumerate(params):
            if param.default is param.empty:
                continue
            positional = param.kind is not param.KEYWORD_ONLY
            if not any(
                (positional and pos < n_pos) or param.name in kws or None in kws
                for n_pos, kws in calls.get(name, ())
            ):
                unset.append(f"{qualified}.{param.name}")
    assert not unset, f"defaulted parameters that no call inside the package sets: {unset}"


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


def test_readme_quick_tour_runs():
    # the tour shows the public API; running it keeps the README in step with it
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].verdict == "Pass"
    assert namespace["cert"].delta1 == math.log(1.0 / namespace["c1"]) / (namespace["k"] * namespace["spec"].T)
