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

from kgdecay import find_threshold_N, monodromy_grid, propagate_grid, samples_from_grid

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


def test_grid_and_scan_counters_read_the_row_count(tracer, spec_sin):
    t_grid, xi_grid = [0.0, 0.25, 0.5], [0.0, 1.0, 2.0, 3.0]
    M = monodromy_grid(spec_sin, t_grid, xi_grid)
    assert tracer._grid_counts({}, M) == {"matrices": 12}
    assert tracer._samples_counts({}, samples_from_grid(t_grid, xi_grid, M)) == {"samples": 12}


def test_threshold_counter_reads_the_trace(tracer, spec_sin):
    thr = find_threshold_N(spec_sin, xi_points=16, t_points=16)
    assert tracer._threshold_counts({}, thr) == {"windows": len(thr.trace)} and len(thr.trace) > 0
