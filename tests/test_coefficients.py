import math

import numpy as np
import pytest

from kgdecay import ConstantMass, ModelSpec, PerturbedMass, PeriodicCoefficient, propagate_grid
from kgdecay.errors import InvalidCoefficientError, ModelAssumptionError

from conftest import triangle_samples
from oracles import integral


def lambda_primitive(c, t):
    """exp of the running integral of ``c`` from 0 to ``t``."""
    return math.exp(integral(c, t))


class TestMeanValue:
    def test_constant(self):
        c = PeriodicCoefficient.from_closed_form("constant", 2.0, value=1.0)
        assert c.mean == 1.0

    def test_zero_mean_sinusoid(self):
        c = PeriodicCoefficient.from_closed_form("sin_offset", 1.5, mean=1.0, amp=1.0)
        assert abs(c.mean - 1.0) < 1e-10

    def test_sampled_triangle_against_trapezoid_refinement(self):
        c = PeriodicCoefficient.from_samples(triangle_samples(1024), 1.0, order=1)
        # independent oracle: trapezoid rule on 2048 evaluation points
        ts = np.linspace(0.0, 1.0, 2049)
        oracle = np.trapezoid(c.eval(ts), ts)
        assert abs(c.mean - oracle) < 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.5, 2.0, 512)
        c = PeriodicCoefficient.from_samples(vals, 1.0, order=1)
        for shift in rng.integers(1, 512, size=5):
            shifted = PeriodicCoefficient.from_samples(np.roll(vals, int(shift)), 1.0, order=1)
            assert abs(shifted.mean - c.mean) < 1e-10

    def test_shift_invariance_closed_form(self):
        c0 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5)
        c1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5, phase=2.1)
        assert abs(c0.mean - c1.mean) < 1e-10

    def test_non_finite_samples_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            PeriodicCoefficient.from_samples([1.0, np.nan, 1.0], 1.0)
        with pytest.raises(InvalidCoefficientError):
            PeriodicCoefficient.from_samples([1.0, np.inf], 1.0)


class TestPeriodicity:
    def test_bit_exact_modular_reduction(self):
        rng = np.random.default_rng(3)
        c = PeriodicCoefficient.from_samples(rng.uniform(0.1, 1.0, 733), 1.0, order=1)
        # dyadic times make t + T exactly representable
        ts = rng.integers(0, 2**20, size=100) / 2**20
        assert np.all(c.eval(ts + 1.0) == c.eval(ts))

    def test_bit_exact_closed_form(self):
        c = PeriodicCoefficient.from_closed_form("triangle", 1.0, lo=0.2, hi=1.0)
        rng = np.random.default_rng(4)
        ts = rng.integers(0, 2**20, size=100) / 2**20
        assert np.all(c.eval(ts + 1.0) == c.eval(ts))

    def test_step_interpolation(self):
        c = PeriodicCoefficient.from_samples([1.0, 2.0, 4.0, 8.0], 1.0, order=0)
        assert c.eval(0.1) == 1.0
        assert c.eval(0.26) == 2.0
        assert c.eval(0.99) == 8.0

    def test_linear_interpolation_wraps(self):
        c = PeriodicCoefficient.from_samples([0.0, 1.0], 1.0, order=1)
        assert c.eval(0.25) == 0.5
        # last cell interpolates back toward the first sample
        assert c.eval(0.75) == 0.5


class TestLambdaPrimitive:
    def test_constant_b(self):
        c = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        assert abs(lambda_primitive(c, 3.0) - math.exp(3.0)) < 1e-12

    def test_empty_integral(self, b_sin, b_tri):
        for c in (b_sin, b_tri):
            assert lambda_primitive(c, 0.0) == 1.0

    def test_sampled_against_quadrature(self, b_tri):
        # oracle: dense Simpson over [0, 2.5T] of the interpolated profile
        t = 2.5
        n = 200001
        ts = np.linspace(0.0, t, n)
        vals = b_tri.eval(ts)
        h = t / (n - 1)
        simpson = (h / 3.0) * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())
        assert abs(lambda_primitive(b_tri, t) - math.exp(simpson)) < 1e-8 * math.exp(simpson)

    def test_cocycle(self, profiles):
        rng = np.random.default_rng(11)
        for c in profiles.values():
            eBT = math.exp(c.mean * c.period)
            for t in rng.uniform(0.0, 5.0, 10):
                ratio = lambda_primitive(c, t + c.period) / lambda_primitive(c, t)
                assert abs(ratio - eBT) < 1e-8 * eBT


class TestSymbol:
    def test_massless(self, b_const):
        spec = ModelSpec(b_const, ConstantMass(0.0))
        assert spec.symbol(0.3, 2.0) == 2.0

    def test_constant_mass_zero_frequency(self, spec_const):
        assert spec_const.symbol(0.7, 0.0) == 1.0

    def test_perturbed_formula(self, b_const, m1_cos):
        spec = ModelSpec(b_const, PerturbedMass(1.0, 0.5, m1_cos))
        assert abs(spec.symbol(0.0, 1.0) - math.sqrt(2.5)) < 1e-12

    def test_negative_xi_rejected(self, spec_const):
        # the system depends on |xi| only, and the propagator takes xi >= 0
        with pytest.raises(ValueError):
            propagate_grid(spec_const, 0.0, 1.0, [1.0, -1.0])


class TestModelSpec:
    def test_negative_dissipation_rejected(self):
        b = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b, ConstantMass(1.0))

    def test_zero_touching_dissipation_flagged(self):
        b = PeriodicCoefficient.from_samples([0.0, 1.0, 2.0, 1.0], 1.0, order=0)
        spec = ModelSpec(b, ConstantMass(1.0))
        assert not spec.b_strictly_positive

    def test_period_mismatch_rejected(self, b_const):
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 2.0, mean=0.0, amp=1.0)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, PerturbedMass(1.0, 0.1, m1))

    def test_m1_normalization_enforced(self, b_const):
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=0.7)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, PerturbedMass(1.0, 0.1, m1))

    def test_perturbed_positivity_enforced(self, b_const, m1_cos):
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, PerturbedMass(1.0, 1.5, m1_cos))

    def test_perturbed_epsilon_zero_equivalent_to_constant(self, b_const, m1_cos):
        spec = ModelSpec(b_const, PerturbedMass(1.0, 0.0, m1_cos))
        assert spec.m_squared(0.37) == 1.0


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        vals = triangle_samples(64)
        path = tmp_path / "b.csv"
        ts = np.arange(64) / 64.0
        path.write_text(
            "t,value\n" + "\n".join(f"{t:.17g},{v:.17g}" for t, v in zip(ts, vals)),
            encoding="utf-8",
        )
        c = PeriodicCoefficient.from_csv(path, order=1)
        assert c.period == 1.0
        assert np.allclose(c.eval(ts), vals, rtol=0, atol=0)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0,9\n0.5,2.0,9\n", encoding="utf-8")
        with pytest.raises(InvalidCoefficientError):
            PeriodicCoefficient.from_csv(path)

    def test_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("0.0,1.0\n0.3,2.0\n0.9,0.5\n", encoding="utf-8")
        with pytest.raises(InvalidCoefficientError):
            PeriodicCoefficient.from_csv(path)


class TestSquareForm:
    def test_values_and_exact_mean(self):
        c = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.25)
        assert c.eval(0.1) == 1.0
        assert c.eval(0.9) == 0.2
        assert abs(c.mean - (0.25 * 1.0 + 0.75 * 0.2)) < 1e-12

    def test_breakpoints_reported(self):
        c = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.25)
        pts = c.breakpoints_in(0.0, 2.0)
        for expected in (0.25, 1.0, 1.25):
            assert np.min(np.abs(pts - expected)) < 1e-12

    def test_step_samples_report_cell_edges(self):
        c = PeriodicCoefficient.from_samples([1.0, 2.0], 1.0, order=0)
        pts = c.breakpoints_in(0.0, 1.0)
        assert np.allclose(pts, [0.5])


class TestTotalVariation:
    def test_sampled_triangle(self):
        c = PeriodicCoefficient.from_samples(triangle_samples(1024, 0.2, 1.0), 1.0, order=1)
        # up 0.8 and down 0.8 over one period
        assert abs(c.total_variation - 1.6) < 1e-2

    def test_finite_for_closed_forms(self, profiles):
        for c in profiles.values():
            assert np.isfinite(c.total_variation)
