"""Self-tests of the benchmark: the traced worker on a tiny-grid config.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import run
import tracer

BENCH_DIR = Path(__file__).resolve().parent

TINY_GRIDS = (
    "[grids]\n"
    "threshold_xi_points = 8\nthreshold_t_points = 8\n"
    "verify_t_points = 4\nverify_xi_points = 4\n"
    "contraction_t_points = 4\ncontraction_xi_points = 8\n"
    "decay_periods = 10\ndecay_xi_low_points = 8\ndecay_xi_high_points = 4\n"
)


def test_traced_run_fills_every_span_and_layer(tmp_path):
    # The perturbed model is the one config on which every layer runs.
    config = tmp_path / "tiny.ini"
    config.write_text(
        run.config_text(run.SIN_B, mass=run.PERTURBED_MASS, grids=TINY_GRIDS), encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "trace", repr(time.monotonic()),
         str(config), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=170, check=True,
    )
    res = json.loads(proc.stdout.splitlines()[-1])

    assert res["exit_code"] == 0
    assert res["missing"] == []
    seen = {s["name"] for s in res["spans"]}
    for _, attr, layer, _ in tracer.BINDINGS:
        assert f"{layer}.{attr}" in seen
    for s in res["spans"]:
        assert s["end"] > s["start"]

    layers = res["layers"]
    assert set(layers) == set(tracer.UNITS)
    for name in ("propagator.steps", "highfreq.frame_profiles", "monodromy.matrices",
                 "monodromy.samples", "perturbation.rescans", "cli.bytes_written"):
        assert layers[name]["value"] > 0
    assert 0.0 < layers["propagator.accept_ratio"]["value"] <= 1.0
    assert 0.0 < layers["propagator.max_err_ratio"]["value"] <= 1.0

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert per_layer == set(tracer.UNITS) | {"trace.run_s", "trace.overhead_s"}


def test_missing_binding_drops_its_layer():
    spans = [{"name": "propagator.propagate_grid", "parent": None, "start": 0.0, "end": 1.0,
              "counts": {"steps": 10, "rhs_evals": 77, "err_ratio": 0.5}}]
    metrics = tracer.layer_metrics(spans, 2.0, 0.5, 100, missing_layers=["highfreq"])
    assert metrics["propagator.rejected"]["value"] == 1
    assert metrics["cli.other_s"]["value"] == 1.0
    assert not any(name.startswith("highfreq.") for name in metrics)


def test_check_run_flags_reference_mismatch():
    ref = run.REFERENCE["workloads"]["sin_default"]
    cert = {
        "verdicts": dict.fromkeys(run.ALL_STAGES, "Pass"),
        "threshold": {"N": ref["N"]},
        "contraction": {"k": ref["k"], "c1": ref["c1"], "delta1": ref["delta1"]},
        "epsilon": {"epsilon_max": ref["epsilon_max"]},
        "decay": {"fitted_rate": ref["fitted_rate"], "certified_rate": ref["delta1"]},
    }
    assert run.check_run("sin_default", 0, 0, cert, run.ALL_STAGES) == []
    cert["contraction"]["c1"] *= 1.001
    assert run.check_run("sin_default", 0, 0, cert, run.ALL_STAGES) == [
        f"c1 = {cert['contraction']['c1']!r}, reference {ref['c1']!r} "
        f"(rel tol {run.REFERENCE['rel_tol']['c1']:g})"
    ]
    assert run.check_run("sin_default", 1, 0, cert, run.ALL_STAGES) == []
    cert["verdicts"]["decay"] = "Fail"
    assert run.check_run("sin_default", 1, 0, cert, run.ALL_STAGES) == ["verdict decay: Fail"]
    assert run.check_run("sin_default", 1, 4, cert, run.ALL_STAGES) == ["exit code 4"]
