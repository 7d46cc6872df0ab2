"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.  Expensive artifacts (thresholds, certificates)
are shared through session fixtures; each criterion body is timed against its
stated budget.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kgdecay import (
    ContractionCertificate,
    ModelSpec,
    PeriodicCoefficient,
    epsilon_bound,
    find_threshold_N,
    lambert_w0,
    monodromy_grid,
    propagate_grid,
    sup_norm_curve,
    verify_highfreq_contraction,
    verify_perturbed_contraction,
)
from kgdecay.monodromy import power_norms
from kgdecay.propagator import det2
from kgdecay.cli import main as cli_main

from conftest import const_coeff_propagator, contraction_grids, contraction_k, propagate, svd_norm
from oracles import cumulative, gronwall_difference_bound, peano_baker_truncated, system_matrix
from test_perturbation import bisection_w

# The (t, xi) contraction grid of the ``certificates`` fixture.
CONTRACTION_NT, CONTRACTION_NXI = 64, 256


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:2d}] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num:2d}] {name}: PASS ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s


@pytest.fixture(scope="session")
def specs_m1(profiles):
    return {name: ModelSpec(b, 1.0) for name, b in profiles.items()}


@pytest.fixture(scope="session")
def thresholds(specs_m1):
    return {name: find_threshold_N(spec) for name, spec in specs_m1.items()}


@pytest.fixture(scope="session")
def certificates(specs_m1, thresholds):
    certs = {}
    for name, spec in specs_m1.items():
        N = thresholds[name].N
        k, c1 = contraction_k(spec, N, nt=CONTRACTION_NT, nxi=CONTRACTION_NXI)
        certs[name] = ContractionCertificate(N, k, c1, spec.beta, spec.T)
    return certs


def test_criterion_1_liouville_identity(specs_m1):
    with criterion(1, "Liouville identity", 10.0):
        rng = np.random.default_rng(101)
        for spec in specs_m1.values():
            target = math.exp(-2.0 * spec.beta * spec.T)
            ts = rng.uniform(0.0, spec.T, 50)
            xis = rng.uniform(0.0, 10.0, 50)
            M = monodromy_grid(spec, np.sort(ts), xis)
            dets = det2(M[np.arange(50), np.arange(50)])
            assert np.max(np.abs(dets - target)) <= 1e-8 * target


def test_criterion_2_oracle_equivalence(spec_sin):
    with criterion(2, "Peano-Baker oracle equivalence", 10.0):
        rng = np.random.default_rng(102)
        done = 0
        while done < 10:
            s = float(rng.uniform(0.0, 1.0))
            dt = float(rng.uniform(0.05, 0.33))
            xi = float(rng.uniform(0.0, 2.5))
            A_norm = max(
                svd_norm(system_matrix(spec_sin, tt, xi))
                for tt in np.linspace(s, s + dt, 9)
            )
            if A_norm * dt > 2.0:
                continue
            series = peano_baker_truncated(spec_sin, s, s + dt, xi, 20)
            direct = propagate(spec_sin, s, s + dt, xi, 1e-12)
            assert np.max(np.abs(series - direct)) <= 1e-8
            done += 1


def test_criterion_3_constant_coefficient_analytics():
    with criterion(3, "constant-coefficient analytics", 5.0):
        for b0 in (0.3, 1.0):
            b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=b0)
            spec = ModelSpec(b, 1.0)
            for xi in (0.0, 2.0):
                h = math.hypot(xi, 1.0)
                for t in (0.5, 1.0, 3.0):
                    got = propagate(spec, 0.0, t, xi)
                    ref = const_coeff_propagator(b0, h, t)
                    assert np.max(np.abs(got - ref)) <= 1e-9


def test_criterion_4_highfreq_monodromy_bound(specs_m1, thresholds, certificates, m1_cos):
    with criterion(4, "high-frequency contraction bound", 120.0):
        spec = specs_m1["sin"]
        N = thresholds["sin"].N
        mx, bound, ok = verify_highfreq_contraction(spec, N, nt=64, nxi=128)
        assert ok and mx <= bound + 1e-6
        eps_half = epsilon_bound(certificates["sin"], 1.0).epsilon_max / 2.0
        spec_eps = ModelSpec(spec.b, 1.0, eps_half, m1_cos)
        mx_p, bound_p, ok_p = verify_highfreq_contraction(spec_eps, N, nt=64, nxi=128)
        assert ok_p and mx_p <= bound_p + 1e-6


def test_criterion_5_contraction_power_search(profiles, thresholds):
    with criterion(5, "uniform contraction power", 180.0):
        for name, b in profiles.items():
            N = thresholds[name].N
            for m0 in (0.5, 1.0):
                spec = ModelSpec(b, m0)
                k, c1 = contraction_k(spec, N, nt=64, nxi=256)
                assert k <= 64 and 0.0 < c1 < 1.0
                M2 = monodromy_grid(
                    spec, np.linspace(0.0, spec.T, 128), np.linspace(0.0, N, 512)
                )
                c1_refined = float(np.max(power_norms(M2, k)))
                assert abs(c1_refined - c1) < 1e-3


def test_criterion_6_decay_domination(specs_m1, certificates):
    with criterion(6, "certified decay domination", 180.0):
        for name, spec in specs_m1.items():
            cert = certificates[name]
            rep = sup_norm_curve(spec, cert, t_end=40.0 * spec.T)
            assert rep.verdict == "Pass"
            assert np.all(rep.sup_norm_curve <= rep.bound_curve * 1.001)
            assert rep.fitted_rate >= 0.9 * rep.certified_rate


def test_criterion_7_perturbation_soundness(specs_m1, certificates, m1_cos):
    with criterion(7, "perturbation soundness", 120.0):
        rng = np.random.default_rng(107)
        for name, spec in specs_m1.items():
            cert = certificates[name]
            eb = epsilon_bound(cert, 1.0)
            assert eb.audit_pass
            spec_eps = ModelSpec(spec.b, 1.0, eb.epsilon_max, m1_cos)
            grids = contraction_grids(cert, CONTRACTION_NT, CONTRACTION_NXI)
            ok, worst, _ = verify_perturbed_contraction(spec_eps, cert, *grids)
            assert ok, f"{name}: perturbed contraction failed, worst {worst}"
            # Gronwall domination at 10 random samples per profile
            for _ in range(10):
                eps = float(rng.uniform(0.0, 1.0)) * max(eb.epsilon_max, 1e-8)
                sp = ModelSpec(spec.b, 1.0, eps, m1_cos)
                s = float(rng.uniform(0.0, 1.0))
                t = s + float(rng.uniform(0.1, 2.0))
                xi = float(rng.uniform(0.0, cert.N))
                bound = gronwall_difference_bound(sp, spec, cert, s, t, xi)
                a = propagate(sp, s, t, xi, 1e-11)
                b_ = propagate(spec, s, t, xi, 1e-11)
                assert svd_norm(a - b_) <= bound + 1e-9


def test_criterion_8_lambert_w():
    with criterion(8, "Lambert W identity", 1.0):
        for x in np.logspace(-30, 6, 100):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, x)
        assert abs(lambert_w0(1.0) - bisection_w(1.0)) <= 1e-12


def test_criterion_9_energy_monotonicity(specs_m1):
    with criterion(9, "per-frequency energy monotonicity", 10.0):
        rng = np.random.default_rng(109)
        checkpoints = np.linspace(0.0, 3.0, 241)
        done = 0
        for spec in specs_m1.values():
            for _ in range(7):
                if done >= 20:
                    break
                xi = float(rng.uniform(0.0, 6.0))
                _, segments, _ = propagate_grid(spec, 0.0, 3.0, [xi], 1e-10, checkpoints)
                v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v0 /= np.linalg.norm(v0)
                energy = 0.5 * np.sum(np.abs(cumulative(segments)[:, 0] @ v0) ** 2, axis=1)
                assert np.all(np.diff(energy) <= 1e-8)
                done += 1
        assert done == 20


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism", 600.0):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            """
[model]
T = 1.0
b = sin_offset mean=1.0 amp=0.5
m0 = 1.0

[run]
stages = threshold contraction epsilon decay

[grids]
threshold_xi_points = 64
threshold_t_points = 32
verify_t_points = 16
verify_xi_points = 32
contraction_t_points = 32
contraction_xi_points = 96
decay_periods = 20
decay_xi_low_points = 64
decay_xi_high_points = 16
""",
            encoding="utf-8",
        )
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append((out / "certificate.json").read_bytes())
        assert blobs[0] == blobs[1]
        cert = json.loads(blobs[0])
        assert cert["contraction"]["delta0"] == 0.5
