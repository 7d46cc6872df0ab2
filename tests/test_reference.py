"""The benchmark's seed-0 certificates on default grids stay within bench/reference.json.

The configs and the check are read from ``bench/run.py`` (``WORKLOADS`` and
``check_run``), so this test and the benchmark judge a run the same way.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from kgdecay import cli

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
