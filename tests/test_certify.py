import math

import numpy as np
import pytest

from kgdecay import (
    ConstantMass,
    ModelSpec,
    PeriodicCoefficient,
    assemble_certificate,
    decay_constants,
    fit_rate,
    gamma_curve,
    sup_norm_curve,
)
from kgdecay.certify import certified_bound, decay_to_csv
from kgdecay.errors import FitError, ModelAssumptionError

from conftest import certificate, contraction_k, propagate
from oracles import monodromy_at


def gamma_of(spec, t, points_per_period=4096):
    """gamma at one time, the end of its own grid."""
    return float(gamma_curve(spec, [0.0, t], points_per_period)[-1])


@pytest.fixture(scope="module")
def const_cert(spec_const):
    return certificate(spec_const, 6.0, nt=16, nxi=64)


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 30.0, 121)
        assert abs(fit_rate(t, np.exp(-0.3 * t)) - 0.3) < 1e-9

    def test_constant_data(self):
        t = np.linspace(0.0, 10.0, 41)
        assert abs(fit_rate(t, np.full_like(t, 2.5))) < 1e-12

    def test_oscillatory_decay(self):
        t = np.linspace(0.0, 60.0, 241)
        y = np.exp(-0.5 * t) * (2.0 + np.sin(t))
        assert abs(fit_rate(t, y, burn_in=10.0) - 0.5) < 1e-2

    def test_rejects_nonpositive(self):
        t = np.linspace(0.0, 10.0, 41)
        y = np.exp(-t)
        y[5] = 0.0
        with pytest.raises(FitError):
            fit_rate(t, y)

    def test_needs_enough_points(self):
        with pytest.raises(FitError):
            fit_rate([0, 1, 2, 3], [1, 0.9, 0.8, 0.7])


class TestGamma:
    def test_massless_is_one(self, b_sin):
        spec = ModelSpec(b_sin, ConstantMass(0.0))
        for t in (0.0, 1.0, 7.3):
            assert gamma_of(spec, t) == 1.0

    def test_constant_unit_coefficients(self, spec_const):
        for t in (0.5, 1.0, 4.0):
            assert abs(gamma_of(spec_const, t) - math.exp(-t)) < 1e-10

    def test_sampled_profile_against_refinement(self, spec_tri):
        a = gamma_of(spec_tri, 3.3)
        b = gamma_of(spec_tri, 3.3, points_per_period=16384)
        assert abs(a - b) < 1e-8

    def test_monotone_non_increasing(self, spec_sin):
        ts = np.linspace(0.0, 8.0, 33)
        vals = gamma_curve(spec_sin, ts)
        assert np.all(np.diff(vals) <= 1e-10)

    def test_requires_positive_dissipation(self):
        b = PeriodicCoefficient.from_samples([0.0, 1.0, 1.0, 1.0], 1.0, order=0)
        spec = ModelSpec(b, ConstantMass(1.0))
        with pytest.raises(ModelAssumptionError):
            gamma_of(spec, 1.0)


class TestSupNormCurve:
    def test_constant_profile_decays(self, spec_const, const_cert):
        rep = sup_norm_curve(spec_const, const_cert, 25.0, nxi_low=64, nxi_high=16)
        assert rep.verdict == "Pass"
        # at xi = 0 the rate is b0 = 1; the grid sup cannot decay slower than
        # the certified envelope, and at t = 20 sits below e^-10
        j = int(np.argmin(np.abs(rep.time_grid - 20.0)))
        assert rep.sup_norm_curve[j] < math.exp(-10.0)

    def test_period_decomposition_matches_direct(self, spec_sin, const_cert):
        # M(s, xi)^l E(s, 0, xi) against one long integration at l = 8
        xi, s, ell = 2.0, 0.25, 8
        E_s = propagate(spec_sin, 0.0, s, xi, 1e-12)
        M_s = monodromy_at(spec_sin, s, xi, 1e-12)
        composed = np.linalg.matrix_power(M_s, ell) @ E_s
        direct = propagate(spec_sin, 0.0, s + ell * spec_sin.T, xi, 1e-12)
        assert np.max(np.abs(composed - direct)) <= 1e-6 * np.max(np.abs(direct))

    def test_high_band_bounded_by_delta0_envelope(self, spec_sin):
        from kgdecay import find_threshold_N

        thr = find_threshold_N(spec_sin, xi_points=32, t_points=32)
        k, c1 = contraction_k(spec_sin, thr.N, nt=16, nxi=64)
        cert = assemble_certificate(spec_sin, thr.N, k, c1)
        rep = sup_norm_curve(
            spec_sin,
            cert,
            t_end=10.0 * k,
            xi_grid=np.linspace(thr.N, 4.0 * thr.N, 24),
        )
        delta0 = cert.delta0
        envelope = np.exp(-delta0 * (rep.time_grid - spec_sin.T))
        assert np.all(rep.sup_norm_curve <= envelope * (1.0 + 1e-6))

    def test_domination_and_fit(self, spec_sin):
        k, c1 = contraction_k(spec_sin, N=8.0, nt=32, nxi=96)
        cert = assemble_certificate(spec_sin, 8.0, k, c1)
        rep = sup_norm_curve(spec_sin, cert, 30.0, nxi_low=96, nxi_high=24)
        assert rep.verdict == "Pass"
        assert np.all(
            rep.sup_norm_curve <= rep.bound_curve * (1.0 + 1e-3)
        )
        assert rep.fitted_rate >= 0.9 * rep.certified_rate

    def test_requires_long_horizon(self, spec_const, const_cert):
        with pytest.raises(ValueError):
            sup_norm_curve(spec_const, const_cert, 5.0)

    def test_bound_curve_definition(self, const_cert):
        ts = np.array([0.0, 1.0, 5.0])
        delta = min(const_cert.delta0, const_cert.delta1)
        pref = max(
            math.exp(const_cert.delta0 * const_cert.T),
            math.exp(const_cert.delta1 * const_cert.k * const_cert.T),
        )
        expect = pref * np.exp(-delta * (ts - const_cert.k * const_cert.T))
        assert np.allclose(certified_bound(const_cert, ts), expect, rtol=0, atol=0)

    def test_csv_export(self, spec_const, const_cert, tmp_path):
        rep = sup_norm_curve(spec_const, const_cert, 12.0, nxi_low=16, nxi_high=8)
        path = tmp_path / "decay.csv"
        decay_to_csv(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,sup_norm,bound"
        assert len(lines) == 1 + rep.time_grid.size


class TestDecayConstants:
    def test_prefactor_covers_small_frequency_term(self, const_cert):
        out = decay_constants(None, const_cert)
        assert out["prefactor"] >= math.exp(const_cert.delta1 * const_cert.k * const_cert.T)
        assert out["rate_name"] == "delta"
        assert len(out["inequalities"]) == 3

    def test_equal_rates_arithmetic(self, spec_const):
        # delta0 = delta1 when c1 = exp(-beta k T / 2)
        beta = spec_const.beta
        k = 2
        c1 = math.exp(-beta * k * spec_const.T / 2.0)
        cert = assemble_certificate(spec_const, 5.0, k, c1)
        assert abs(cert.delta1 - cert.delta0) < 1e-14
        out = decay_constants(None, cert)
        assert abs(out["prefactor"] - math.exp(cert.delta0 * k * spec_const.T)) < 1e-12

    def test_perturbed_mode_reports_sigma(self, const_cert):
        out = decay_constants(None, const_cert, perturbed=True)
        assert out["rate_name"] == "sigma"
        assert out["proof_implied"]

    def test_pass_verdict_implies_pointwise_inequality(self, spec_const, const_cert):
        rep = sup_norm_curve(spec_const, const_cert, 15.0, nxi_low=24, nxi_high=8)
        if rep.verdict == "Pass":
            bound = rep.certified_prefactor * np.exp(
                -rep.certified_rate * (rep.time_grid - rep.k * rep.T)
            )
            assert np.all(rep.sup_norm_curve <= bound * 1.001)
