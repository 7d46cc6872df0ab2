import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay import highfreq, perturbation
from kgdecay.cli import EXIT_CONFIG, EXIT_MODEL, EXIT_NUMERICAL, MODEL_KEYS, load_config, main
from kgdecay.errors import FitError, FrameError, PreconditionError

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


FUZZED_GRIDS = ("threshold_xi_points", "threshold_t_points", "verify_t_points", "verify_xi_points")

TINY_GRIDS = """[grids]
threshold_xi_points = 4
threshold_t_points = 4
verify_t_points = 2
verify_xi_points = 2
contraction_t_points = 2
contraction_xi_points = 4
"""

BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "abc", ""]

# Coefficient declarations, well-formed and malformed.  Every dissipation the
# strategy can declare is negative somewhere or has a mean of at least 0.5:
# a mean near zero pushes the threshold search to frequencies whose profiles
# take gigabytes.
_PARAM = st.one_of(
    st.floats(0.5, 2.0).map(repr), st.floats(-0.5, -0.01).map(repr), st.sampled_from(BAD_NUMBERS[1:])
)
COEFFICIENTS = st.one_of(
    st.builds("constant value={}".format, st.one_of(st.floats(-0.5, -0.01), st.floats(0.5, 2.0))),
    st.builds("sin_offset mean=1 amp={} phase={}".format, st.floats(0.0, 1.5), st.floats(-4.0, 4.0)),
    st.builds("triangle lo={} hi=1".format, st.floats(-0.5, 1.5)),
    st.builds("square lo={} hi=1 duty={}".format, st.floats(0.5, 1.5), st.floats(0.05, 0.95)),
    st.builds("{} {}={}".format, st.sampled_from(["constant", "sin_offset", "square", "bogus"]),
              st.sampled_from(["value", "mean", "lo", "duty", "extra"]), _PARAM),
    st.sampled_from(["", "constant", "constant value", "custom_csv", "custom_csv path=missing.csv order=1"]),
)


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

    def test_unparsable_ini(self, tmp_path, capsys):
        # no section header, a duplicate key, and a literal percent sign
        for text in ("T = 1.0\n", BASE_CONFIG.replace("m0 = 1.0", "m0 = 1.0\nm0 = 2.0"),
                     BASE_CONFIG.replace("value=1.0", "value=1%")):
            code, err = self.run_with(tmp_path, capsys, text)
            assert code == EXIT_CONFIG
            assert err.startswith("config error:")

    @pytest.mark.parametrize("error", [FrameError, PreconditionError, FitError])
    def test_numerical_errors_exit_5(self, tmp_path, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(highfreq, "find_threshold_N", fail)
        code, err = self.run_with(tmp_path, capsys, BASE_CONFIG)
        assert code == EXIT_NUMERICAL
        assert err == "numerical failure: injected\n"

    @settings(max_examples=30, deadline=None)
    @given(
        grids=st.fixed_dictionaries({key: st.integers(1, 6) for key in FUZZED_GRIDS}),
        tolerances=st.fixed_dictionaries(
            {"propagate_tol": st.floats(1e-14, 1e-4), "contraction_margin": st.floats(1e-6, 0.5)}
        ),
        broken=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(FUZZED_GRIDS + ("propagate_tol", "contraction_margin")),
                st.one_of(st.integers(-3, 0), st.floats(), st.sampled_from(["abc", "1.5", "1e3", ""])),
            ),
        ),
    )
    def test_fuzzed_grids_and_tolerances_keep_the_exit_contract(self, grids, tolerances, broken):
        # a threshold-only run on tiny grids, with at most one value out of range or malformed
        values = {**grids, **tolerances}
        if broken is not None:
            values[broken[0]] = broken[1]
        text = BASE_CONFIG.split("[grids]")[0].replace("threshold contraction epsilon decay", "threshold")
        text += "[grids]\n" + "".join(f"{k} = {values[k]}\n" for k in FUZZED_GRIDS)
        text += "[tolerances]\n" + "".join(f"{k} = {values[k]}\n" for k in tolerances)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize(
        "model, run_lines, expected",
        [
            ("m0 = 0\n", "", EXIT_MODEL),
            ("mo = 1\n", "", EXIT_CONFIG),
            ("m0 = 1\nmo = 1\n", "", EXIT_CONFIG),
            ("m0 = 1\n", "seed = 0\n", EXIT_CONFIG),
            ("m0 = 1\n", "workers = 2\n", EXIT_CONFIG),
            ("m0 = 1\nepsilon = -0.5\n", "", EXIT_MODEL),
            ("m0 = 1\nepsilon = -0.5\nm1 = sin_offset mean=0 amp=1\n", "", EXIT_MODEL),
            ("m0 = 1\nepsilon = nan\n", "", EXIT_CONFIG),
            ("m0 = nan\n", "", EXIT_CONFIG),
            ("m0 = inf\n", "", EXIT_CONFIG),
            ("m0 = 1\nb = square lo=0.5 hi=1 duty=nan\n", "", EXIT_CONFIG),
            ("m0 = 1\nb = custom_csv path=missing.csv\n", "", EXIT_CONFIG),
        ],
        ids=["m0-zero", "m0-typo", "extra-key", "seed", "workers", "epsilon-negative",
             "epsilon-negative-m1", "epsilon-nan", "m0-nan", "m0-inf", "duty-nan", "csv-missing"],
    )
    def test_model_and_run_values(self, tmp_path, capsys, monkeypatch, model, run_lines, expected):
        # a threshold and contraction run on tiny grids; b = constant unless declared
        monkeypatch.chdir(tmp_path)
        if "b =" not in model:
            model = "b = constant value=1.0\n" + model
        text = f"[model]\nT = 1.0\n{model}[run]\nstages = threshold contraction\n{run_lines}" + TINY_GRIDS
        code, err = self.run_with(tmp_path, capsys, text)
        assert code == expected, err
        assert err.startswith("config error:" if expected == EXIT_CONFIG else "model assumption violated:")

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.fixed_dictionaries(
            {
                "T": st.one_of(st.floats(0.5, 2.0), st.sampled_from(BAD_NUMBERS)),
                "m0": st.one_of(st.floats(0.0, 3.0), st.sampled_from(BAD_NUMBERS)),
                "b": COEFFICIENTS,
            },
            optional={
                "epsilon": st.one_of(st.floats(0.0, 1e-3), st.sampled_from(BAD_NUMBERS)),
                "m1": COEFFICIENTS,
                "extra": st.sampled_from(["mo", "eps", "seed", "workers"]),
            },
        )
    )
    def test_fuzzed_model_keeps_the_exit_contract(self, model):
        # a threshold-only run on tiny grids with any [model] section
        extra = model.pop("extra", None)
        if extra is not None:
            model[extra] = "1"
        text = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in model.items())
        text += "[run]\nstages = threshold\n" + TINY_GRIDS
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if extra is not None or any(k not in MODEL_KEYS for k in model):
            assert code == EXIT_CONFIG


class TestDeterminism:
    def test_byte_identical_certificates(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "certificate.json").read_bytes())
        assert outs[0] == outs[1]

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


PERTURBED_MODEL = """
[model]
T = 1.0
b = constant value=1.0
m0 = 1.0
epsilon = 1e-9
m1 = sin_offset mean=0.0 amp=1.0
"""


class TestPerturbedPipeline:
    def test_perturbed_model_all_stages(self, tmp_path):
        text = PERTURBED_MODEL + "[run]\nstages = threshold contraction epsilon decay\n" + FAST_GRIDS
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["epsilon"]["perturbed_contraction_ok"] is True
        assert cert["epsilon"]["model_within_bound"] is True
        assert cert["decay"]["verdict"] == "Pass"
        assert cert["decay"]["constants"]["rate_name"] == "sigma"

    def test_one_perturbed_sweep_per_run(self, tmp_path, monkeypatch):
        # the decay stage reuses the epsilon stage's rescan, or runs it once itself
        sweeps = []
        grid = perturbation.monodromy_grid
        monkeypatch.setattr(
            perturbation, "monodromy_grid", lambda *a, **kw: sweeps.append(1) or grid(*a, **kw)
        )
        tiny = FAST_GRIDS.replace("contraction_xi_points = 48", "contraction_xi_points = 8")
        for stages in ("threshold contraction epsilon decay", "threshold contraction decay"):
            sweeps.clear()
            out = tmp_path / stages.replace(" ", "_")
            cfg = write_config(tmp_path, PERTURBED_MODEL + f"[run]\nstages = {stages}\n" + tiny)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert len(sweeps) == 1, stages
        cert = json.loads((tmp_path / "threshold_contraction_epsilon_decay" / "certificate.json").read_text())
        assert cert["decay"]["certificate_used"]["c1"] == cert["epsilon"]["perturbed_contraction_worst"]
