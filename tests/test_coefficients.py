import math
from types import SimpleNamespace

import numpy as np
import pytest

from kgdecay import ModelSpec, PeriodicCoefficient, propagate_grid
from kgdecay.coefficients import FORMS
from kgdecay.errors import InvalidCoefficientError, ModelAssumptionError

from conftest import triangle_samples
from oracles import integral, symbol


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


# Closed forms with their exact mean, sup|c| and total variation over a period.
EXACT_FORMS = [
    ("constant", {"value": 0.7}, 0.7, 0.7, 0.0),
    ("constant", {"value": 0.0}, 0.0, 0.0, 0.0),
    ("sin_offset", {"mean": 1.0, "amp": 0.5, "phase": 0.3}, 1.0, 1.5, 2.0),
    ("sin_offset", {"mean": -0.2, "amp": -1.0, "phase": 2.1}, -0.2, 1.2, 4.0),
    ("triangle", {"lo": 0.2, "hi": 1.0}, 0.6, 1.0, 1.6),
    ("triangle", {"lo": 1.5, "hi": -0.5}, 0.5, 1.5, 4.0),
    ("square", {"lo": 0.2, "hi": 1.0, "duty": 0.01}, 0.208, 1.0, 1.6),
    ("square", {"lo": 0.2, "hi": 1.0, "duty": 0.3337}, 0.3337 + 0.6663 * 0.2, 1.0, 1.6),
    ("square", {"lo": 0.2, "hi": 1.0, "duty": 0.9}, 0.92, 1.0, 1.6),
    ("square", {"lo": -3.0, "hi": 1.0, "duty": 0.0}, -3.0, 3.0, 0.0),
    ("square", {"lo": -3.0, "hi": 1.0, "duty": -0.5}, -3.0, 3.0, 0.0),
    ("square", {"lo": -3.0, "hi": 1.0, "duty": 1.0}, 1.0, 1.0, 0.0),
    ("square", {"lo": -3.0, "hi": 1.0, "duty": 1.7}, 1.0, 1.0, 0.0),
]

FINE_GRID = 2**20


def _fine_grid_sup_and_variation(c):
    """Maximum of |c| and the variation of c over a 2^20-point grid of one period."""
    vals = c.eval(np.arange(FINE_GRID) * (c.period / FINE_GRID))
    return float(np.max(np.abs(vals))), float(np.sum(np.abs(np.roll(vals, -1) - vals)))


def _fine_grid_slope(c):
    """c' as the slope of each cell of the 2^20-point grid, as a coefficient-like
    object that :func:`_fine_grid_sup_and_variation` can read."""
    dt = c.period / FINE_GRID
    return SimpleNamespace(period=c.period, eval=lambda t: (c.eval(t + dt) - c.eval(t)) / dt)


# Smooth closed forms with their exact slope constant D = 2 sup|c'| + 2 V(c') at T = 1.5.
SMOOTH_FORMS = [
    ("constant", {"value": 0.7}, 0.0),
    ("sin_offset", {"mean": 1.0, "amp": 0.5, "phase": 0.3}, 10.0 * 0.5 * 2.0 * math.pi / 1.5),
    ("sin_offset", {"mean": -0.2, "amp": -1.0, "phase": 2.1}, 10.0 * 1.0 * 2.0 * math.pi / 1.5),
    ("triangle", {"lo": 0.2, "hi": 1.0}, 20.0 * 0.8 / 1.5),
    ("triangle", {"lo": 1.5, "hi": -0.5}, 20.0 * 2.0 / 1.5),
]

# Parameters of every registered form, with jumping and non-jumping squares,
# and the end values (c(0+), c(0-)) they give.
FORM_CASES = {
    "constant": [({"value": 0.7}, (0.7, 0.7))],
    "sin_offset": [({"mean": 1.0, "amp": 0.5, "phase": 0.3}, (1.0 + 0.5 * math.sin(0.3),) * 2)],
    "triangle": [({"lo": 0.2, "hi": 1.0}, (0.2, 0.2))],
    "square": [
        ({"lo": 0.2, "hi": 1.0, "duty": 0.3}, (1.0, 0.2)),
        ({"lo": 1.0, "hi": 0.0}, (0.0, 1.0)),
        ({"lo": 0.7, "hi": 0.7}, (0.7, 0.7)),
        ({"lo": 0.2, "hi": 1.0, "duty": 0.0}, (0.2, 0.2)),
        ({"lo": 0.2, "hi": 1.0, "duty": 1.0}, (1.0, 1.0)),
    ],
}


def _coefficients_of(form):
    """The coefficients of a registered form (FORM_CASES) or of 33 samples of
    order 0 or 1 ("samples-0", "samples-1"), all with T = 1.5, each with its
    end values (c(0+), c(0-))."""
    if form.startswith("samples-"):
        x = np.random.default_rng(17).uniform(0.2, 1.5, 33)
        order = int(form[-1])
        return [(PeriodicCoefficient.from_samples(x, 1.5, order=order), (x[0], x[-1] if order == 0 else x[0]))]
    return [(PeriodicCoefficient.from_closed_form(form, 1.5, **params), ends) for params, ends in FORM_CASES[form]]


# Rounding in the grid's slopes sums to about 2e-5 of D over the flat pieces
# of a triangle or linear samples.
SLOPE_GRID_RTOL = 1e-4


def _period_integral(c):
    """int_0^T c by the oracle's quadrature: just below T, so the cached mean is not used."""
    return integral(c, math.nextafter(c.period, 0.0))


class TestExactConstants:
    @pytest.mark.parametrize("name, params, mean, sup, variation", EXACT_FORMS)
    def test_closed_forms(self, name, params, mean, sup, variation):
        c = PeriodicCoefficient.from_closed_form(name, 1.5, **params)
        assert c.mean == pytest.approx(mean, rel=1e-15, abs=1e-15)
        assert (c.sup_abs, c.variation) == pytest.approx((sup, variation), rel=1e-15, abs=0.0)
        assert abs(_period_integral(c) / c.period - c.mean) <= 1e-13
        grid_sup, grid_var = _fine_grid_sup_and_variation(c)
        assert c.sup_abs - 1e-9 <= grid_sup <= c.sup_abs * (1.0 + 1e-15)
        assert c.variation - 1e-9 <= grid_var <= c.variation * (1.0 + 1e-12)

    @pytest.mark.parametrize("order, n", [(0, 64), (1, 128)])
    def test_samples(self, order, n):
        # the fine grid holds every sample and every cell edge
        s = np.random.default_rng(n).uniform(-1.0, 2.0, n)
        c = PeriodicCoefficient.from_samples(s, 1.5, order=order)
        assert c.sup_abs == np.max(np.abs(s))
        assert c.variation == pytest.approx(np.sum(np.abs(np.diff(np.append(s, s[0])))), rel=1e-15)
        assert abs(_period_integral(c) / c.period - c.mean) <= 1e-13
        grid_sup, grid_var = _fine_grid_sup_and_variation(c)
        assert grid_sup == c.sup_abs
        assert grid_var == pytest.approx(c.variation, rel=1e-12)

    @pytest.mark.parametrize("name, params", [form[:2] for form in EXACT_FORMS])
    def test_minimum_against_the_fine_grid(self, name, params):
        c = PeriodicCoefficient.from_closed_form(name, 1.5, **params)
        grid_min = float(np.min(c.eval(np.arange(FINE_GRID) * (c.period / FINE_GRID))))
        assert c.minimum - 1e-15 <= grid_min <= c.minimum + 1e-9

    @pytest.mark.parametrize("order", [0, 1])
    def test_samples_minimum(self, order):
        s = np.random.default_rng(order).uniform(-1.0, 2.0, 96)
        assert PeriodicCoefficient.from_samples(s, 1.0, order=order).minimum == np.min(s)

    @pytest.mark.parametrize("name, params, jumps", [
        ("constant", {"value": 0.7}, False),
        ("sin_offset", {"mean": 1.0, "amp": 0.5}, False),
        ("triangle", {"lo": 0.2, "hi": 1.0}, False),
        ("square", {"lo": 0.2, "hi": 1.0, "duty": 0.3}, True),
        ("square", {"lo": 0.2, "hi": 1.0, "duty": 0.0}, False),
        ("square", {"lo": 0.7, "hi": 0.7}, False),
    ])
    def test_jumps_of_closed_forms(self, name, params, jumps):
        assert PeriodicCoefficient.from_closed_form(name, 1.5, **params).has_jumps is jumps

    @pytest.mark.parametrize("values, order, jumps", [
        ([0.2, 1.0, 0.5], 0, True),
        ([0.2, 1.0, 0.5], 1, False),
        ([0.4, 0.4], 0, False),
        ([0.4], 0, False),
    ])
    def test_jumps_of_samples(self, values, order, jumps):
        assert PeriodicCoefficient.from_samples(values, 1.5, order=order).has_jumps is jumps

    def test_sup_of_a_shifted_sinusoid_is_exact(self):
        # the 4096-point validation grid misses this peak
        c = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0, phase=0.1)
        vals = c.eval(np.arange(4096) / 4096)
        assert np.max(np.abs(vals)) < 1.0 == c.sup_abs

    @pytest.mark.parametrize("name, params, slope_constant", SMOOTH_FORMS)
    def test_slope_constant_of_closed_forms(self, name, params, slope_constant):
        c = PeriodicCoefficient.from_closed_form(name, 1.5, **params)
        assert c.slope_constant == pytest.approx(slope_constant, rel=1e-15, abs=0.0)
        grid_sup, grid_var = _fine_grid_sup_and_variation(_fine_grid_slope(c))
        assert 2.0 * grid_sup + 2.0 * grid_var == pytest.approx(c.slope_constant, rel=SLOPE_GRID_RTOL, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 128])
    def test_slope_constant_of_linear_samples(self, n):
        # slopes s_k = (x_{k+1} - x_k) n / T, both sums taken with wrap-around
        x = np.random.default_rng(n).uniform(-1.0, 2.0, n)
        c = PeriodicCoefficient.from_samples(x, 1.5, order=1)
        s = (np.roll(x, -1) - x) * (n / 1.5)
        assert c.slope_constant == pytest.approx(
            2.0 * np.max(np.abs(s)) + 2.0 * np.sum(np.abs(np.roll(s, -1) - s)), rel=1e-15, abs=0.0
        )
        grid_sup, grid_var = _fine_grid_sup_and_variation(_fine_grid_slope(c))
        assert 2.0 * grid_sup + 2.0 * grid_var == pytest.approx(c.slope_constant, rel=SLOPE_GRID_RTOL, abs=0.0)

    @pytest.mark.parametrize("c, slope_constant", [
        (PeriodicCoefficient.from_closed_form("square", 1.5, lo=0.2, hi=1.0, duty=0.3), math.inf),
        (PeriodicCoefficient.from_closed_form("square", 1.5, lo=1.0, hi=0.0), math.inf),
        (PeriodicCoefficient.from_samples([0.2, 1.0, 0.5], 1.5, order=0), math.inf),
        (PeriodicCoefficient.from_samples([0.4, 0.4, 0.4001], 1.5, order=0), math.inf),
        (PeriodicCoefficient.from_closed_form("square", 1.5, lo=0.7, hi=0.7), 0.0),
        (PeriodicCoefficient.from_closed_form("square", 1.5, lo=0.2, hi=1.0, duty=0.0), 0.0),
        (PeriodicCoefficient.from_closed_form("square", 1.5, lo=0.2, hi=1.0, duty=1.0), 0.0),
        (PeriodicCoefficient.from_samples([0.4, 0.4], 1.5, order=0), 0.0),
        (PeriodicCoefficient.from_samples([0.4], 1.5, order=0), 0.0),
    ], ids=["square", "square-zero-lo", "steps", "steps-tiny-jump", "square-equal", "square-duty-0",
            "square-duty-1", "steps-equal", "one-step"])
    def test_slope_constant_of_jumping_forms(self, c, slope_constant):
        # any jump leaves no finite second-order constant; equal levels are constant
        assert c.slope_constant == slope_constant
        assert c.has_jumps is (slope_constant == math.inf)

    def test_slope_constant_of_overflowing_slopes_is_inf(self):
        # slopes beyond the float range bound nothing, and warn nothing
        c = PeriodicCoefficient.from_samples([0.0, 1e300, 2e300, 1e300], 1e-10, order=1)
        assert c.slope_constant == math.inf

    @pytest.mark.parametrize("form", sorted(FORMS) + ["samples-0", "samples-1"])
    def test_end_values(self, form):
        # c(0+) and c(0-) = c(T-): declared exactly, and read at 0 and just below T
        for c, ends in _coefficients_of(form):
            assert (c.start_value, c.end_value) == ends
            assert c.eval(0.0) == c.start_value
            assert c.eval(math.nextafter(c.period, 0.0)) == pytest.approx(c.end_value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("form", sorted(FORMS) + ["samples-0", "samples-1"])
    def test_jumps_only_between_constant_pieces(self, form):
        # the propagator takes one exponential per piece of a b that jumps,
        # so such a b must be constant between its breakpoints
        for c, _ in _coefficients_of(form):
            if not c.has_jumps:
                continue
            ends = np.concatenate([[0.0], c.breakpoints_in(0.0, 2.0 * c.period), [2.0 * c.period]])
            u = np.linspace(1e-9, 1.0 - 1e-9, 65)[:, None]
            values = c.eval(ends[:-1] + u * np.diff(ends))
            assert np.all(values == values[32])
            assert np.any(values[32, 1:] != values[32, :-1])

    def test_non_finite_constants_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1e308)


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
        spec = ModelSpec(b_const, 0.0)
        assert symbol(spec, 0.3, 2.0) == 2.0

    def test_constant_mass_zero_frequency(self, spec_const):
        assert symbol(spec_const, 0.7, 0.0) == 1.0

    def test_perturbed_formula(self, b_const, m1_cos):
        spec = ModelSpec(b_const, 1.0, 0.5, m1_cos)
        assert abs(symbol(spec, 0.0, 1.0) - math.sqrt(2.5)) < 1e-12

    def test_negative_xi_rejected(self, spec_const):
        # the system depends on |xi| only, and the propagator takes xi >= 0
        with pytest.raises(ValueError):
            propagate_grid(spec_const, 0.0, 1.0, [1.0, -1.0])


class TestModelSpec:
    def test_negative_dissipation_rejected(self):
        b = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b, 1.0)

    def test_negative_dip_between_grid_points_rejected(self):
        # the true minimum is 1 - 1.0000002 = -2e-7, and a 4096-point grid
        # of one period sees only values above 2e-8
        b = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=1.0000002, phase=0.007)
        assert np.min(b.eval(np.arange(4096) / 4096)) > 0.0
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b, 1.0)

    def test_zero_touching_dissipation_flagged(self):
        b = PeriodicCoefficient.from_samples([0.0, 1.0, 2.0, 1.0], 1.0, order=0)
        spec = ModelSpec(b, 1.0)
        assert not spec.b_strictly_positive

    def test_period_mismatch_rejected(self, b_const):
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 2.0, mean=0.0, amp=1.0)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, 1.0, 0.1, m1)

    def test_m1_normalization_enforced(self, b_const):
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=0.7)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, 1.0, 0.1, m1)

    def test_perturbed_positivity_enforced(self, b_const, m1_cos):
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, 1.0, 1.5, m1_cos)

    def test_perturbed_positivity_uses_the_exact_minimum(self, b_const):
        # m1 = -1 only on the last 1e-6 of the period: m0^2 + eps * min(m1) = 0
        m1 = PeriodicCoefficient.from_closed_form("square", 1.0, lo=-1.0, hi=1.0, duty=1.0 - 1e-6)
        with pytest.raises(ModelAssumptionError):
            ModelSpec(b_const, 1.0, 1.0, m1)

    @pytest.mark.parametrize("field, value", [("m0", np.nan), ("m0", np.inf), ("epsilon", np.inf),
                                              ("epsilon", np.nan), ("T", np.nan), ("T", np.inf)])
    def test_non_finite_values_rejected(self, b_const, field, value):
        # m1 >= 1/2 keeps m0^2 + epsilon * m1 positive at epsilon = inf
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.75, amp=0.25)
        with pytest.raises(ModelAssumptionError, match=f"^{field} must be finite"):
            ModelSpec(b_const, **({"m0": 1.0, "epsilon": 0.5, "m1": m1} | {field: value}))

    def test_perturbed_epsilon_zero_equivalent_to_constant(self, b_const, m1_cos):
        spec = ModelSpec(b_const, 1.0, 0.0, m1_cos)
        assert spec.m_squared(0.37) == 1.0

    def test_epsilon_zero_is_the_unperturbed_model(self):
        # m1 is not read at epsilon = 0: its jumps at 0.3 + j add no breakpoint,
        # and the square b keeps its one exact exponential per constant piece
        b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0)
        m1 = PeriodicCoefficient.from_closed_form("square", 1.0, lo=-1.0, hi=1.0, duty=0.3)
        plain, zero = ModelSpec(b, 1.0), ModelSpec(b, 1.0, 0.0, m1)
        assert zero.describe() == plain.describe()
        assert np.array_equal(zero.breakpoints_in(-0.5, 2.0), plain.breakpoints_in(-0.5, 2.0))
        xi, chk = np.linspace(0.0, 20.0, 64), np.linspace(0.0, 1.0, 9)
        runs = [propagate_grid(spec, 0.0, 1.0, xi, checkpoints=chk) for spec in (plain, zero)]
        assert np.array_equal(runs[1][0], runs[0][0]) and np.array_equal(runs[1][1], runs[0][1])
        assert runs[1][2] == runs[0][2]
        assert (runs[1][2].steps_taken, runs[1][2].rhs_evaluations) == (1, 7)


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

