import json

import numpy as np

from kgdecay.cli import EXIT_CONFIG, EXIT_MODEL, load_config, main

FAST_GRIDS = """
[grids]
threshold_xi_points = 32
threshold_t_points = 32
verify_t_points = 16
verify_xi_points = 32
contraction_t_points = 16
contraction_xi_points = 48
decay_periods = 20
decay_xi_low_points = 48
decay_xi_high_points = 12
"""

BASE_CONFIG = (
    """
[model]
T = 1.0
b = constant value=1.0
m0 = 1.0

[run]
stages = threshold contraction epsilon decay
seed = 0
"""
    + FAST_GRIDS
)


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_full_pipeline_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["schema_version"] == 1
        assert cert["contraction"]["delta0"] == 0.5
        for key in ("N", "k", "c1", "delta1", "C"):
            assert key in cert["contraction"]
        assert "epsilon_max" in cert["epsilon"]
        assert cert["decay"]["verdict"] == "Pass"
        assert (out / "threshold_trace.csv").exists()
        assert (out / "monodromy_scan.csv").exists()
        assert (out / "decay.csv").exists()
        assert (out / "summary.txt").exists()

    def test_missing_dependency_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("stages = threshold contraction epsilon decay", "stages = decay")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_stage_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--stage", "threshold"]
        )
        assert code == 0
        cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert cert["stages"] == ["threshold"]
        assert "contraction" not in cert

    def test_malformed_csv_coefficient(self, tmp_path):
        bad = tmp_path / "b.csv"
        bad.write_text("0.0,1.0,extra\n", encoding="utf-8")
        text = BASE_CONFIG.replace(
            "b = constant value=1.0", f"b = custom_csv path={bad} order=1"
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_negative_dissipation_is_model_error(self, tmp_path):
        text = BASE_CONFIG.replace(
            "b = constant value=1.0", "b = sin_offset mean=0.2 amp=1.0"
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_MODEL

    def test_unknown_stage_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("stages = threshold contraction epsilon decay", "stages = warp")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    def test_csv_coefficient_round_trip(self, tmp_path):
        ts = np.arange(16) / 16.0
        vals = 1.0 + 0.25 * np.sin(2 * np.pi * ts)
        csv_path = tmp_path / "b.csv"
        csv_path.write_text(
            "\n".join(f"{t:.17g},{v:.17g}" for t, v in zip(ts, vals)), encoding="utf-8"
        )
        text = BASE_CONFIG.replace(
            "b = constant value=1.0", f"b = custom_csv path={csv_path} order=1"
        )
        cfg = write_config(tmp_path, text)
        config = load_config(cfg)
        assert config.spec.b.samples.size == 16


class TestExitCodes:
    """Config mistakes exit 2 with a one-line message, never as a certificate failure."""

    def run_with(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_non_integer_grid(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("contraction_t_points = 16", "contraction_t_points = abc")
        code, err = self.run_with(tmp_path, capsys, text)
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "contraction_t_points" in err

    def test_tolerance_out_of_range(self, tmp_path, capsys):
        code, err = self.run_with(tmp_path, capsys, BASE_CONFIG + "[tolerances]\npropagate_tol = 0.5\n")
        assert code == EXIT_CONFIG
        assert "propagate_tol" in err

    def test_empty_grid(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("threshold_xi_points = 32", "threshold_xi_points = 0")
        code, err = self.run_with(tmp_path, capsys, text)
        assert code == EXIT_CONFIG
        assert "threshold_xi_points" in err

    def test_square_wave_at_tight_tolerance(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("b = constant value=1.0", "b = square lo=0.2 hi=1")
        code, err = self.run_with(tmp_path, capsys, text + "[tolerances]\npropagate_tol = 1e-13\n")
        assert code == 0, err


class TestDeterminism:
    def test_byte_identical_certificates(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "certificate.json").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_invariance(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        blobs = []
        for name, workers in (("w1", "1"), ("w4", "4")):
            out = tmp_path / name
            code = main(
                ["run", "--config", str(cfg), "--out", str(out), "--workers", workers]
            )
            assert code == 0
            blobs.append((out / "certificate.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_summary_numbers_trace_to_certificate(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cert_values = set()

        def collect(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    collect(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    collect(v)
            else:
                cert_values.add(repr(obj) if isinstance(obj, float) else str(obj))

        collect(json.loads((out / "certificate.json").read_text()))
        for line in (out / "summary.txt").read_text().splitlines():
            if " = " not in line:
                continue
            value = line.split(" = ", 1)[1]
            try:
                float(value)
            except ValueError:
                continue
            assert value in cert_values, f"summary value {value} not in certificate"


class TestWSubcommand:
    def test_zero(self, capsys):
        assert main(["w", "0"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_e(self, capsys):
        assert main(["w", "2.718281828459045"]) == 0
        assert abs(float(capsys.readouterr().out) - 1.0) < 1e-12

    def test_one(self, capsys):
        assert main(["w", "1"]) == 0
        assert capsys.readouterr().out.startswith("0.567143290410")

    def test_negative_rejected(self, capsys):
        assert main(["w", "--", "-1.0"]) == EXIT_CONFIG


class TestPerturbedPipeline:
    def test_perturbed_model_all_stages(self, tmp_path):
        text = (
            """
[model]
T = 1.0
b = constant value=1.0
m0 = 1.0
epsilon = 1e-9
m1 = sin_offset mean=0.0 amp=1.0

[run]
stages = threshold contraction epsilon decay
seed = 1
"""
            + FAST_GRIDS
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["epsilon"]["perturbed_contraction_ok"] is True
        assert cert["epsilon"]["model_within_bound"] is True
        assert cert["decay"]["verdict"] == "Pass"
        assert cert["decay"]["constants"]["rate_name"] == "sigma"
