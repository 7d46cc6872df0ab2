"""The benchmark's seed-0 certificates on default grids stay within bench/reference.json,
and their certified rates below the spectral rate.

The configs and the check are read from ``bench/run.py`` (``WORKLOADS`` and
``check_run``), so this test and the benchmark judge a run the same way.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from kgdecay import cli, highfreq

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _bench_run():
    spec = importlib.util.spec_from_file_location("kgdecay_bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["square_jumps", "perturbed"])
def test_seed0_certificate_matches_reference(tmp_path, workload):
    bench = _bench_run()
    stages, make_config = bench.WORKLOADS[workload]
    config = tmp_path / "run.ini"
    config.write_text(make_config(0), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config), "--out", str(out)])
    cert_path = out / "certificate.json"
    cert = json.loads(cert_path.read_text(encoding="utf-8")) if cert_path.is_file() else None
    assert bench.check_run(workload, 0, code, cert, stages) == []


@pytest.mark.parametrize("workload", ["sin_default", "square_jumps", "perturbed", "dense_scan"])
def test_seed0_delta1_below_the_spectral_rate(tmp_path, workload):
    # Gelfand: rho(M)^k <= ||M^k|| <= c1 on the contraction grid, so the
    # certified delta1 = log(1/c1) / (kT) is at most -log(rho_max) / T
    config = tmp_path / "run.ini"
    config.write_text(_bench_run().WORKLOADS[workload][1](0), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--stage", "threshold",
                     "--stage", "contraction"]) == 0
    con = json.loads((out / "certificate.json").read_text(encoding="utf-8"))["contraction"]
    assert con["spectral_rate"] == -math.log(con["rho_max"]) / con["T"]
    assert con["delta1"] <= con["spectral_rate"]


@pytest.mark.parametrize("workload, points", [("perturbed", 7_808), ("square_jumps", 10_368)])
def test_seed0_threshold_profile_points(tmp_path, monkeypatch, workload, points):
    # the frame-profile points of the seed-0 search, at most 10 % above the
    # 7,808 and 10,368 measured when profiles started coarse; the fixed counts
    # before took 249,856 and 82,944.  Points, unlike times, do not depend on
    # the host
    profile, total = highfreq.suplarge_quantity, []

    def counted(spec, xi, t_points=highfreq.SUP_T_POINTS, refine=1):
        total.append(refine * highfreq._points_per_period(spec, xi, t_points))
        return profile(spec, xi, t_points, refine)

    monkeypatch.setattr(highfreq, "suplarge_quantity", counted)
    config = tmp_path / "run.ini"
    config.write_text(_bench_run().WORKLOADS[workload][1](0), encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--stage", "threshold"]) == 0
    assert 0 < sum(total) <= 1.1 * points
