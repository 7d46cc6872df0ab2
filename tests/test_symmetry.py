"""Time rescaling, a symmetry of the equation that needs no oracle.

If u solves u'' + 2b u' + h^2 u = 0, then v(s) = u(lam s) solves the model
with b~(s) = lam b(lam s), xi~ = lam xi, m0~ = lam m0 and period T~ = T / lam,
and its state (h~ v, v') is lam (h u, u'), so every propagator is unchanged:
M~(s, lam xi) = M(lam s, xi).  Frequencies and rates therefore scale by lam,
the admissible amplitude eps_max (a squared mass) by lam^2, and the power k,
c1 and every norm do not change.  For lam a power of two each scaling is
exact in binary, so whole runs must agree bit for bit once scaled back.

A shift of b in time, b~(t) = b(t + s), is a symmetry too: M~(t, xi) =
M(t + s, xi), so the spectrum of each xi does not change, and for s a
multiple of the step of the base-time grid the norms move along the grid.
"""

import csv
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay import ModelSpec, PeriodicCoefficient, cli, find_threshold_N, monodromy_grid, samples_from_grid

MODELS = {
    "sin_offset": lambda lam: f"sin_offset mean={lam!r} amp={0.5 * lam!r}",
    "square": lambda lam: f"square lo={0.2 * lam!r} hi={lam!r}",
    "triangle": lambda lam: f"triangle lo={0.2 * lam!r} hi={lam!r}",
}

# A sampled b: 24 uniform samples over one period, read as custom_csv with
# step (order 0) or linear (order 1) interpolation.  Rescaled, the time
# column is divided by lam and the values are multiplied by it.
SAMPLES = (1.0 + 0.5 * np.sin(2.0 * np.pi * np.arange(24) / 24.0)).tolist()
SAMPLED = {"samples-order0": 0, "samples-order1": 1}

# run -> (b, epsilon at lam = 1, the route that decides the perturbed
# contraction): each b at constant mass, and the benchmark's perturbed mass
# m1 = sin_offset mean=0 amp=1 at an epsilon the closed-form bound decides
# and at one that only the sweep over the grid does.
RUNS = {
    **{model: (model, 0.0, None) for model in (*MODELS, *SAMPLED)},
    "perturbed-bound": ("sin_offset", 5e-9, "bound"),
    "perturbed-sweep": ("sin_offset", 0.115, "sweep"),
}


def declare_b(tmp_path, model, lam):
    """The declaration of b rescaled by lam; a sampled b is written to a CSV file first."""
    if model in MODELS:
        return MODELS[model](lam)
    path = tmp_path / f"{model}-{lam!r}.csv"
    rows = (f"{j / len(SAMPLES) / lam!r},{value * lam!r}\n" for j, value in enumerate(SAMPLES))
    path.write_text("".join(rows), encoding="utf-8")
    return f"custom_csv path={path} order={SAMPLED[model]}"


def run_cli(tmp_path, run, lam, stages="threshold contraction epsilon decay"):
    """The stages of the run rescaled by lam, all four by default, with m0 = 1 and T = 1 at lam = 1.

    The mass perturbation epsilon m1 is a squared mass, so epsilon scales by
    lam^2; m1 keeps its shape over the rescaled period.
    """
    model, epsilon, _ = RUNS[run]
    mass = f"epsilon = {epsilon * lam * lam!r}\nm1 = sin_offset mean=0 amp=1\n" if epsilon else ""
    config = tmp_path / f"{run}-{lam!r}.ini"
    config.write_text(
        f"[model]\nT = {1.0 / lam!r}\nb = {declare_b(tmp_path, model, lam)}\nm0 = {lam!r}\n{mass}"
        f"[run]\nstages = {stages}\n",
        encoding="utf-8",
    )
    out = tmp_path / f"{run}-{lam!r}"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def read_csv(path, scales):
    """Rows of a CSV, each number multiplied by its column's factor in ``scales`` (default 1)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    factors = [scales.get(name, 1.0) for name in header]
    return [[float(cell) * f for cell, f in zip(row, factors)] for row in rows]


def certificate_numbers(out, lam):
    """The run's certificate numbers, scaled back to lam = 1."""
    doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    thr, con, eps, dec = doc["threshold"], doc["contraction"], doc["epsilon"], doc["decay"]
    numbers = {
        "N": thr["N"] / lam,
        "tail_xi": thr["tail_xi"] / lam,
        "delta1": con["delta1"] / lam,
        "certified_rate": dec["certified_rate"] / lam,
        "fitted_rate": dec["fitted_rate"] / lam,
        "epsilon_max": eps["epsilon_max"] / (lam * lam),
        "k": con["k"],
        "c1": con["c1"],
        "sup_value": thr["sup_value"],
        "monodromy_norm_max": thr["monodromy_norm_max"],
        "rho_max": con["rho_max"],
        "gamma_final": dec["gamma_final"],
        "all_pass": doc["all_pass"],
    }
    if "perturbed_route" in eps:
        numbers.update(
            monodromy_norm_max_perturbed=thr["monodromy_norm_max_perturbed"],
            perturbed_contraction_worst=eps["perturbed_contraction_worst"],
            routes=(thr["perturbed_route"], eps["perturbed_route"], dec["perturbed_route"]),
        )
    return numbers


def artifacts(out, lam):
    """The CSV artifacts and the scan's fields, their N, t and xi scaled back to lam = 1."""
    scales = {"t": lam, "xi": 1.0 / lam}
    found = {
        "threshold_trace.csv": read_csv(out / "threshold_trace.csv", {"N_candidate": 1.0 / lam}),
        "monodromy_scan.csv": read_csv(out / "monodromy_scan.csv", scales),
        "decay.csv": read_csv(out / "decay.csv", {"t": lam}),
    }
    with np.load(out / "monodromy_scan.npz", allow_pickle=False) as npz:
        for name in npz.files:
            field = npz[name] * scales[name] if name in scales else npz[name]
            found[f"monodromy_scan.npz:{name}"] = (field.dtype, field.shape, field.tobytes())
    return found


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("unscaled")
    return {run: run_cli(tmp, run, 1.0) for run in RUNS}


@pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("model", sorted(RUNS))
def test_rescaled_run_is_bit_identical(tmp_path, unscaled, model, lam):
    base, out = unscaled[model], run_cli(tmp_path, model, lam)
    numbers = certificate_numbers(out, lam)
    assert numbers == certificate_numbers(base, 1.0)
    if RUNS[model][2] is not None:
        assert numbers["routes"][1] == RUNS[model][2]
    got, want = artifacts(out, lam), artifacts(base, 1.0)
    assert got.keys() == want.keys()
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


@functools.lru_cache(maxsize=None)
def threshold_and_contraction(model, lam):
    """(N / lam, k, c1) of the threshold and contraction stages of ``model`` rescaled by lam."""
    with tempfile.TemporaryDirectory() as tmp:
        out = run_cli(Path(tmp), model, lam, stages="threshold contraction")
        doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    return doc["threshold"]["N"] / lam, doc["contraction"]["k"], doc["contraction"]["c1"]


@settings(max_examples=12, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), lam=st.floats(0.25, 4.0))
def test_certificate_scales_with_any_time_unit(model, lam):
    # for lam not a power of two the scalings round: k is equal, c1 within
    # 1e-9 relative, and N within the search's bracket of 1e-3 N
    N, k, c1 = threshold_and_contraction(model, 1.0)
    N_lam, k_lam, c1_lam = threshold_and_contraction(model, lam)
    assert k_lam == k
    assert math.isclose(c1_lam, c1, rel_tol=1e-9, abs_tol=0.0)
    assert abs(N_lam - N) <= 1e-3 * N


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("shift", [1, 5, 31])
def test_time_shift_keeps_the_spectrum(order, shift):
    # 63 samples on the 64-point base-time grid of [0, T]: rolling them by
    # `shift` cells shifts b by `shift` grid steps
    t_grid, xi_grid = np.linspace(0.0, 1.0, 64), np.linspace(0.0, 14.0, 64)
    u = np.arange(63) / 63
    values = 1.0 + 0.5 * np.sin(2.0 * np.pi * u) + 0.3 * np.cos(6.0 * np.pi * u)

    def scan(samples):
        spec = ModelSpec(PeriodicCoefficient.from_samples(samples, 1.0, order=order), 1.0)
        return samples_from_grid(t_grid, xi_grid, monodromy_grid(spec, t_grid, xi_grid))

    base, shifted = scan(values), scan(np.roll(values, -shift))
    assert np.max(np.abs(shifted.eig - base.eig)) <= 1e-13
    assert np.allclose(shifted.rho, base.rho, rtol=1e-13, atol=0.0)
    assert np.array_equal(shifted.real_pair, base.real_pair)
    assert np.allclose(shifted.norm[: 64 - shift], base.norm[shift:], rtol=1e-13, atol=0.0)
