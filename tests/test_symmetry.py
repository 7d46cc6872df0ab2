"""Time rescaling, a symmetry of the equation that needs no oracle.

If u solves u'' + 2b u' + h^2 u = 0, then v(s) = u(lam s) solves the model
with b~(s) = lam b(lam s), xi~ = lam xi, m0~ = lam m0 and period T~ = T / lam,
and its state (h~ v, v') is lam (h u, u'), so every propagator is unchanged:
M~(s, lam xi) = M(lam s, xi).  Frequencies and rates therefore scale by lam,
the admissible amplitude eps_max (a squared mass) by lam^2, and the power k,
c1 and every norm do not change.  For lam a power of two each scaling is
exact in binary, so whole runs must agree bit for bit once scaled back.
"""

import csv
import json
import math

import pytest

from kgdecay import ModelSpec, PeriodicCoefficient, cli, find_threshold_N

MODELS = {
    "sin_offset": lambda lam: f"sin_offset mean={lam!r} amp={0.5 * lam!r}",
    "square": lambda lam: f"square lo={0.2 * lam!r} hi={lam!r}",
}


def run_cli(tmp_path, model, lam):
    """All four stages of the model rescaled by lam, with m0 = 1 and T = 1 at lam = 1."""
    config = tmp_path / f"{model}-{lam!r}.ini"
    config.write_text(
        f"[model]\nT = {1.0 / lam!r}\nb = {MODELS[model](lam)}\nm0 = {lam!r}\n"
        "[run]\nstages = threshold contraction epsilon decay\n",
        encoding="utf-8",
    )
    out = tmp_path / f"{model}-{lam!r}"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def scaled_cell(cell, factor):
    try:
        return float(cell) * factor
    except ValueError:  # a pair class
        return cell


def read_csv(path, scales):
    """Rows of a CSV, each number multiplied by its column's factor in ``scales`` (default 1)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    factors = [scales.get(name, 1.0) for name in header]
    return [[scaled_cell(cell, f) for cell, f in zip(row, factors)] for row in rows]


def certificate_numbers(out, lam):
    """The run's certificate numbers, scaled back to lam = 1."""
    doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    thr, con, dec = doc["threshold"], doc["contraction"], doc["decay"]
    return {
        "N": thr["N"] / lam,
        "tail_xi": thr["tail_xi"] / lam,
        "delta1": con["delta1"] / lam,
        "fitted_rate": dec["fitted_rate"] / lam,
        "epsilon_max": doc["epsilon"]["epsilon_max"] / (lam * lam),
        "k": con["k"],
        "c1": con["c1"],
        "sup_value": thr["sup_value"],
        "monodromy_norm_max": thr["monodromy_norm_max"],
        "rho_max": con["rho_max"],
        "gamma_final": dec["gamma_final"],
        "all_pass": doc["all_pass"],
    }


def artifacts(out, lam):
    """The three CSV artifacts with their N, t and xi columns scaled back to lam = 1."""
    return {
        "threshold_trace.csv": read_csv(out / "threshold_trace.csv", {"N_candidate": 1.0 / lam}),
        "monodromy_scan.csv": read_csv(out / "monodromy_scan.csv", {"t": lam, "xi": 1.0 / lam}),
        "decay.csv": read_csv(out / "decay.csv", {"t": lam}),
    }


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("unscaled")
    return {model: run_cli(tmp, model, 1.0) for model in MODELS}


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_rescaled_run_is_bit_identical(tmp_path, unscaled, model, lam):
    base, out = unscaled[model], run_cli(tmp_path, model, lam)
    assert certificate_numbers(out, lam) == certificate_numbers(base, 1.0)
    got, want = artifacts(out, lam), artifacts(base, 1.0)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("lam", [3.0, 1.7, 0.3])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_threshold_scales_with_the_time_unit(model, lam):
    # not a power of two, so only to rounding; the ladder takes the same windows
    def spec(scale):
        name, *params = MODELS[model](scale).split()
        b = PeriodicCoefficient.from_closed_form(
            name, 1.0 / scale, **{k: float(v) for k, v in (p.split("=") for p in params)}
        )
        return ModelSpec(b, scale)

    base, scaled = find_threshold_N(spec(1.0)), find_threshold_N(spec(lam))
    assert math.isclose(scaled.N / lam, base.N, rel_tol=1e-12, abs_tol=0.0)
    assert len(scaled.trace) == len(base.trace)
