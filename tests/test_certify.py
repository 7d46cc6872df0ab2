import math

import numpy as np
import pytest

from kgdecay import (
    ContractionCertificate,
    ModelSpec,
    PeriodicCoefficient,
    decay_constants,
    fit_rate,
    gamma_curve,
    sup_norm_curve,
)
from kgdecay import certify
from kgdecay.certify import DecayReport, certified_bound, decay_to_csv
from kgdecay.errors import FitError, ModelAssumptionError

from conftest import CSV_EDGE_VALUES, certificate, contraction_k, propagate, strongly_damped, svd_norm
from oracles import gamma_curve_long, monodromy_at, reference_csv


def gamma_of(spec, t, points_per_period=4096):
    """gamma at one time, the end of its own grid."""
    return float(gamma_curve(spec, [0.0, t], points_per_period)[-1])


@pytest.fixture(scope="module")
def const_cert(spec_const):
    return certificate(spec_const, 6.0, nt=16, nxi=64)


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 30.0, 121)
        assert abs(fit_rate(t, np.exp(-0.3 * t))[0] - 0.3) < 1e-9

    def test_constant_data(self):
        t = np.linspace(0.0, 10.0, 41)
        assert abs(fit_rate(t, np.full_like(t, 2.5))[0]) < 1e-12

    def test_oscillatory_decay(self):
        t = np.linspace(0.0, 60.0, 241)
        y = np.exp(-0.5 * t) * (2.0 + np.sin(t))
        assert abs(fit_rate(t, y, burn_in=10.0)[0] - 0.5) < 1e-2

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
        spec = ModelSpec(b_sin, 0.0)
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

    @pytest.mark.parametrize("t_end", [10.0, 40.0])
    @pytest.mark.parametrize("form,params", [("square", dict(lo=0.2, hi=1.0, duty=0.5)),
                                             ("sin_offset", dict(mean=1.0, amp=0.5))])
    def test_one_period_pass_matches_the_long_grid(self, form, params, t_end):
        spec = ModelSpec(PeriodicCoefficient.from_closed_form(form, 1.0, **params), 1.0)
        times = np.arange(int(4 * t_end) + 1) * 0.25
        # compared as integrals int_0^t m^2/b: the long pass adds up to 160,000
        # cells, and its own rounding moves gamma by 1.2e-12 relative at t = 40
        got, want = -np.log(gamma_curve(spec, times)), -np.log(gamma_curve_long(spec, times))
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_requires_positive_dissipation(self):
        b = PeriodicCoefficient.from_samples([0.0, 1.0, 1.0, 1.0], 1.0, order=0)
        spec = ModelSpec(b, 1.0)
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

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0, 9.99])
    def test_bad_horizon_rejected(self, spec_const, const_cert, t_end):
        with pytest.raises(ValueError, match=r"^t_end must be finite and at least 10 kT"):
            sup_norm_curve(spec_const, const_cert, t_end)

    @pytest.mark.parametrize("name, value", [("nxi_low", 0), ("nxi_low", -1), ("nxi_high", 0), ("nxi_high", -2)])
    def test_empty_frequency_bands_rejected(self, spec_const, const_cert, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            sup_norm_curve(spec_const, const_cert, 10.0, **{name: value})

    @pytest.mark.parametrize("beta", [15.0, 17.0])
    def test_strong_damping_matches_direct(self, beta):
        # every fifth quarter period, so each base offset is checked
        spec = strongly_damped(beta)
        cert = ContractionCertificate(4.0, 1, 0.5, spec.beta, spec.T)
        xi_grid = np.array([0.0, 0.5, 2.0, 8.0])
        rep = sup_norm_curve(spec, cert, 10.0, xi_grid=xi_grid)
        for t, got in list(zip(rep.time_grid, rep.sup_norm_curve))[::5]:
            direct = max(svd_norm(propagate(spec, 0.0, float(t), xi)) for xi in xi_grid)
            assert abs(got - direct) <= 1e-10 * direct

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_two_band_sweeps_match_one_sweep(self, b_sin, m1_cos, eps, monkeypatch):
        # by default each band gets its own sweep and step sequence; the curve
        # and the fit equal those of one sweep over the same union to rounding
        spec = ModelSpec(b_sin, 1.0, eps, m1_cos)
        cert = ContractionCertificate(8.0, 1, 0.5, spec.beta, spec.T)
        sizes, sweep = [], certify.propagate_grid

        def counted(spec, s, t, xi, *args):
            sizes.append(len(xi))
            return sweep(spec, s, t, xi, *args)

        monkeypatch.setattr(certify, "propagate_grid", counted)
        bands = sup_norm_curve(spec, cert, 12.0, nxi_low=48, nxi_high=16)
        union = np.concatenate([np.linspace(0.0, 8.0, 48), np.linspace(8.0, 32.0, 16)])
        one = sup_norm_curve(spec, cert, 12.0, xi_grid=union)
        assert sizes == [48, 16, 64]
        assert np.allclose(bands.sup_norm_curve, one.sup_norm_curve, rtol=1e-12, atol=0.0)
        assert bands.fitted_rate == pytest.approx(one.fitted_rate, rel=1e-12, abs=0.0)

    def test_high_band_bounded_by_delta0_envelope(self, spec_sin):
        from kgdecay import find_threshold_N

        thr = find_threshold_N(spec_sin, xi_points=32, t_points=32)
        k, c1 = contraction_k(spec_sin, thr.N, nt=16, nxi=64)
        cert = ContractionCertificate(thr.N, k, c1, spec_sin.beta, spec_sin.T)
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
        cert = ContractionCertificate(8.0, k, c1, spec_sin.beta, spec_sin.T)
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

    def test_csv_matches_the_reference_writer(self, tmp_path):
        values = np.array(CSV_EDGE_VALUES)
        rep = DecayReport(
            time_grid=values, sup_norm_curve=values[::-1].copy(), bound_curve=-values, certified_rate=0.1,
            certified_prefactor=1.0, fitted_rate=0.1, fit_residual=0.0, burn_in=0.0, verdict="Pass",
        )
        path = tmp_path / "decay.csv"
        decay_to_csv(path, rep)
        rows = zip(rep.time_grid, rep.sup_norm_curve, rep.bound_curve)
        assert path.read_bytes() == reference_csv(["t", "sup_norm", "bound"], rows).encode()


class TestDecayConstants:
    def test_prefactor_covers_small_frequency_term(self, const_cert):
        out = decay_constants(const_cert)
        assert out["prefactor"] >= math.exp(const_cert.delta1 * const_cert.k * const_cert.T)
        assert out["rate_name"] == "delta"
        assert len(out["inequalities"]) == 3

    def test_equal_rates_arithmetic(self, spec_const):
        # delta0 = delta1 when c1 = exp(-beta k T / 2)
        beta = spec_const.beta
        k = 2
        c1 = math.exp(-beta * k * spec_const.T / 2.0)
        cert = ContractionCertificate(5.0, k, c1, spec_const.beta, spec_const.T)
        assert abs(cert.delta1 - cert.delta0) < 1e-14
        out = decay_constants(cert)
        assert abs(out["prefactor"] - math.exp(cert.delta0 * k * spec_const.T)) < 1e-12

    def test_perturbed_mode_reports_sigma(self, const_cert):
        out = decay_constants(const_cert, perturbed=True)
        assert out["rate_name"] == "sigma"
        assert out["proof_implied"]

    def test_pass_verdict_implies_pointwise_inequality(self, spec_const, const_cert):
        rep = sup_norm_curve(spec_const, const_cert, 15.0, nxi_low=24, nxi_high=8)
        if rep.verdict == "Pass":
            bound = rep.certified_prefactor * np.exp(
                -rep.certified_rate * (rep.time_grid - const_cert.k * const_cert.T)
            )
            assert np.all(rep.sup_norm_curve <= bound * 1.001)
