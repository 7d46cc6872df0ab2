"""The benchmark's span tracer stays wired to the package.

``bench/tracer.py`` wraps the kgdecay bindings named in its ``BINDINGS`` and
reads counters off their results; a binding that is gone drops its layer from
the per-layer metrics.  These tests load the tracer module as it is, without
installing it, and check that nothing it reads has gone.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kgdecay import propagate_grid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves(tracer):
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.BINDINGS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_propagation_result_has_the_traced_counters(tracer, spec_sin):
    result = propagate_grid(spec_sin, 0.0, 1.0, [0.0, 3.0], 1e-10)[2]
    for name in ("steps_taken", "rhs_evaluations", "local_error_estimate"):
        assert hasattr(result, name), name
    counts = tracer._propagate_counts({"tol": 1e-10}, (None, None, result))
    assert counts["steps"] > 0 and counts["rhs_evals"] > 0 and 0.0 < counts["err_ratio"] <= 1.0
