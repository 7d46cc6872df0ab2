import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay import (
    ModelSpec,
    PeriodicCoefficient,
    contraction_search,
    det2,
    eigenvalues_2x2,
    monodromy_grid,
    propagate_grid,
    samples_from_grid,
    spectral_norm_2x2,
)
from kgdecay.errors import IntegrationFailureError
from kgdecay.propagator import _cumulative_simpson_uniform, _expm, _make_factors, _omega, _omega_constant_mass

from conftest import complex_form, const_coeff_propagator, power_iteration_norm, propagate, svd_norm, triangle_samples
from dp5_oracle import dp5_propagate
from oracles import PreconditionError, cumulative, integral, inv2, peano_baker_truncated, symbol, system_matrix


def random_mat2(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


class TestSystemMatrix:
    def test_massless_zero_frequency_structure(self):
        b0 = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.0)
        spec = ModelSpec(b0, 1.0)
        A = system_matrix(spec, 0.4, 0.0)
        assert np.array_equal(A, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_constant_b_massless(self):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        spec = ModelSpec(b, 0.0)
        A = system_matrix(spec, 0.12, 3.0)
        assert np.array_equal(A, np.array([[0, 3], [3, 2j]], dtype=complex))

    def test_trace_is_2ib(self, spec_sin):
        for t in (0.0, 0.3, 0.77):
            A = system_matrix(spec_sin, t, 1.5)
            assert A[0, 0] == 0.0
            assert abs(A[1, 1] - 2j * float(spec_sin.b.eval(t))) == 0.0

    def test_perturbed_entries_match_symbol(self, b_sin, m1_cos):
        spec = ModelSpec(b_sin, 1.0, 0.4, m1_cos)
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.uniform(0, 3)
            xi = rng.uniform(0, 10)
            A = system_matrix(spec, t, xi)
            h = symbol(spec, t, xi)
            assert A[0, 1] == h and A[1, 0] == h


class TestPropagate:
    def test_identity_at_equal_times(self, spec_sin):
        assert np.array_equal(propagate(spec_sin, 0.7, 0.7, 2.0), np.eye(2, dtype=complex))

    def test_zero_system_is_the_identity(self):
        # b = 0, m0 = 0 and xi = 0 make K = 0: sup||K|| = 0 caps no step
        b0 = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.0)
        E, _, _ = propagate_grid(ModelSpec(b0, 0.0), 0.0, 1.0, [0.0])
        assert np.array_equal(E[0], np.eye(2))

    def test_constant_coefficients_closed_form(self):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.5)
        spec = ModelSpec(b, 1.0)
        # scalar roots -0.5 +/- i sqrt(0.75) at xi = 0
        mu = complex(-0.5, math.sqrt(0.75))
        ref = const_coeff_propagator(0.5, 1.0, 1.3)
        got = propagate(spec, 0.0, 1.3, 0.0, 1e-12)
        assert np.max(np.abs(got - ref)) < 1e-9
        ev = eigenvalues_2x2(got)
        assert min(abs(ev[0] - np.exp(mu * 1.3)), abs(ev[1] - np.exp(mu * 1.3))) < 1e-9

    def test_monodromy_determinant(self, spec_sin):
        rng = np.random.default_rng(2)
        beta = spec_sin.beta
        target = math.exp(-2.0 * beta * spec_sin.T)
        for xi in rng.uniform(0.0, 12.0, 20):
            E = propagate(spec_sin, 0.0, spec_sin.T, xi, 1e-10)
            assert abs(det2(E) - target) < 1e-9 * target

    def test_liouville_along_time(self, spec_tri):
        rng = np.random.default_rng(8)
        for _ in range(10):
            t = rng.uniform(0.2, 3.0)
            xi = rng.uniform(0.0, 8.0)
            E = propagate(spec_tri, 0.0, t, xi)
            target = math.exp(-2.0 * integral(spec_tri.b, t))
            assert abs(det2(E) - target) < 1e-8 * target

    def test_flow_composition(self, spec_sin):
        rng = np.random.default_rng(9)
        tol = 1e-10
        for _ in range(5):
            s, r, t = np.sort(rng.uniform(0.0, 2.5, 3))
            xi = rng.uniform(0.0, 6.0)
            Ets = propagate(spec_sin, s, t, xi, tol)
            Etr = propagate(spec_sin, r, t, xi, tol)
            Ers = propagate(spec_sin, s, r, xi, tol)
            assert np.max(np.abs(Ets - Etr @ Ers)) < 10 * tol

    def test_backward_span_rejected(self, spec_sin):
        # the sweep runs forward only; E(s, t) for t < s is not computed
        with pytest.raises(ValueError, match="forward only"):
            propagate_grid(spec_sin, 1.7, 0.3, [2.0])

    def test_checkpoints_record_segments(self, spec_sin):
        tol = 1e-10
        chk = [0.0, 0.5, 0.5, 1.25, 2.0]
        E, segments, _ = propagate_grid(spec_sin, 0.0, 2.0, [3.0], tol, chk)
        assert np.array_equal(segments[0, 0], np.eye(2)) and np.array_equal(segments[2, 0], np.eye(2))
        for prev, time, got in zip([0.0] + chk, chk, complex_form(segments)):
            assert np.max(np.abs(got[0] - propagate(spec_sin, prev, time, 3.0, tol))) < 10 * tol
        assert np.max(np.abs(E - cumulative(segments)[-1])) < 1e-14
        for bad in ([1.0, 0.5], [0.5, 2.5], [-0.1]):
            with pytest.raises(ValueError):
                propagate_grid(spec_sin, 0.0, 2.0, [3.0], tol, bad)

    def test_translation_invariance(self, spec_sin):
        tol = 1e-10
        for (s, t, xi) in ((0.2, 1.1, 0.5), (0.0, 2.0, 4.0)):
            a = propagate(spec_sin, s, t, xi, tol)
            b = propagate(spec_sin, s + 1.0, t + 1.0, xi, tol)
            assert np.max(np.abs(a - b)) < 10 * tol

    def test_energy_monotone_constant_mass(self, spec_sin):
        rng = np.random.default_rng(12)
        checkpoints = np.linspace(0.0, 3.0, 301)
        for _ in range(5):
            xi = rng.uniform(0.0, 5.0)
            _, segments, _ = propagate_grid(spec_sin, 0.0, 3.0, [xi], 1e-10, checkpoints)
            v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            traj = cumulative(segments)[:, 0] @ v0
            energy = 0.5 * np.sum(np.abs(traj) ** 2, axis=1)
            assert np.all(np.diff(energy) <= 1e-8)

    def test_dissipative_norm_bound(self, spec_tri):
        ss = np.linspace(0.0, 1.0, 41)
        _, segments, _ = propagate_grid(spec_tri, 0.0, 1.0, [0.0, 1.0, 7.7], 1e-10, ss)
        norms = spectral_norm_2x2(cumulative(segments))
        assert np.all(norms <= 1.0 + 1e-6)

    @pytest.mark.parametrize("b", [
        PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0),
        PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5),
    ], ids=["square", "sin_offset"])
    def test_empty_grids_rejected(self, b):
        spec = ModelSpec(b, 1.0)
        with pytest.raises(ValueError, match="xi must hold at least one frequency"):
            propagate_grid(spec, 0.0, 1.0, [])
        for t_grid, xi_grid in (([], [1.0]), ([0.0], [])):
            with pytest.raises(ValueError, match="no matrices"):
                contraction_search(monodromy_grid(spec, t_grid, xi_grid))
        with pytest.raises(ValueError, match="t_grid must hold at least one base time"):
            samples_from_grid([], [1.0], monodromy_grid(spec, [], [1.0]))

    def test_tol_validated(self, spec_const):
        with pytest.raises(ValueError):
            propagate_grid(spec_const, 0.0, 1.0, [1.0], tol=1e-3)
        with pytest.raises(ValueError):
            propagate_grid(spec_const, 0.0, 1.0, [1.0], tol=1e-15)

    def test_error_estimate_within_tolerance(self, spec_sin):
        _, _, res = propagate_grid(spec_sin, 0.0, 2.0, [3.0], 1e-10)
        assert 0.0 < res.local_error_estimate <= 1e-10
        # rhs_evaluations is charged seven per attempted step
        assert res.steps_taken > 0 and res.rhs_evaluations >= 7 * res.steps_taken
        assert res.rhs_evaluations % 7 == 0

    def test_step_coefficient_breakpoints(self):
        samples = [0.2, 1.0, 0.4, 0.8]
        b = PeriodicCoefficient.from_samples(samples, 1.0, order=0)
        spec = ModelSpec(b, 1.0)
        E = propagate(spec, 0.0, 1.0, 1.0, 1e-10)
        # piecewise-constant coefficients compose exactly from cell flows
        ref = np.eye(2, dtype=complex)
        for value in samples:
            ref = const_coeff_propagator(value, math.sqrt(2.0), 0.25) @ ref
        assert np.max(np.abs(E - ref)) < 1e-9

    @pytest.mark.parametrize("order", [0, 1])
    def test_checkpoints_within_the_step_floor_of_cell_edges(self, order):
        # the checkpoint 21/63 and the cell edge 11/33 are one ulp apart
        b = PeriodicCoefficient.from_samples(np.random.default_rng(5).uniform(0.2, 1.5, 33), 1.0, order=order)
        spec = ModelSpec(b, 1.0)
        xi = [0.0, 1.0, 5.0, 20.0]
        E, _, _ = propagate_grid(spec, 0.0, 1.0, xi, 1e-10, np.linspace(0.0, 1.0, 64))
        free, _, _ = propagate_grid(spec, 0.0, 1.0, xi, 1e-10)
        assert np.max(np.abs(E - free)) < 1e-9

    @pytest.mark.parametrize("model", ["sin_offset", "square", "samples0", "samples1", "perturbed"])
    def test_batched_segments_match_separate_sweeps(self, model):
        # 1000 frequencies put four pieces in a batch, so the pieces span many
        # batches; the checkpoints hold s and t, a repeat and a one-ulp gap
        rng = np.random.default_rng(41)
        b = {
            "square": PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.3),
            "samples0": PeriodicCoefficient.from_samples(rng.uniform(0.2, 1.5, 33), 1.0, order=0),
            "samples1": PeriodicCoefficient.from_samples(rng.uniform(0.2, 1.5, 33), 1.0, order=1),
        }.get(model, PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5))
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0, phase=np.pi / 2)
        spec = ModelSpec(b, 1.0, 0.4, m1) if model == "perturbed" else ModelSpec(b, 1.0)
        a = 1.0 / 3.0
        chk = np.sort(np.concatenate([np.linspace(0.0, 1.0, 64), [0.5, a, np.nextafter(a, 1.0)]]))
        xi = np.linspace(0.0, 20.0, 1000)
        E, segments, _ = propagate_grid(spec, 0.0, 1.0, xi, 1e-10, chk)
        product = np.broadcast_to(np.eye(2), E.shape)
        for prev, time, got in zip(np.append(0.0, chk), chk, segments):
            ref = propagate_grid(spec, prev, time, xi, 1e-10)[0]
            assert np.max(np.abs(got - ref)) < 1e-12
            product = ref @ product
        assert np.max(np.abs(E - product)) < 1e-12

    def test_rejected_step_below_the_floor_raises(self, monkeypatch):
        # the one-ulp segment between two checkpoints sees a non-finite b, so its
        # single step is rejected: that raises instead of retrying forever.  With
        # 1000 frequencies a batch holds four pieces, and the one-ulp piece is the
        # third of the second batch: the failure names it, not the batch's first
        a, a_next = 1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        monkeypatch.setattr(b, "eval", lambda ts: np.where((ts >= a) & (ts <= a_next), np.nan, 1.0))
        spec = ModelSpec(b, 1.0)
        for xi, grid in (([1.0], []), (np.linspace(0.0, 10.0, 1000), np.linspace(0.0, 1.0, 17))):
            with pytest.raises(IntegrationFailureError) as err:
                propagate_grid(spec, 0.0, 1.0, xi, 1e-10, np.sort(np.append(grid, [a, a_next])))
            assert err.value.t_fail == a

    def test_square_wave_splits_at_jumps(self):
        b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.5)
        spec = ModelSpec(b, 1.0)
        E = propagate(spec, 0.0, 1.0, 1.5, 1e-11)
        h = math.sqrt(1.5**2 + 1.0)
        ref = const_coeff_propagator(0.2, h, 0.5) @ const_coeff_propagator(1.0, h, 0.5)
        assert np.max(np.abs(E - ref)) < 1e-9

    def test_underflow_raises_with_time(self, monkeypatch):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        monkeypatch.setattr(b, "eval", lambda ts: np.where(np.asarray(ts) > 0.5, np.nan, 1.0))
        spec = ModelSpec(b, 1.0)
        with pytest.raises(IntegrationFailureError) as err:
            propagate_grid(spec, 0.0, 1.0, [1.0], 1e-12)
        assert 0.4 < err.value.t_fail < 1.0

    def test_step_cap_below_the_floor_raises(self, spec_sin):
        # at xi = 3e13 the cap dt sup||K|| <= 2 holds every step below the
        # floor of 1e-13: the sweep raises at its start, not after 1e13 steps
        with pytest.raises(IntegrationFailureError, match="step size underflow") as err:
            propagate_grid(spec_sin, 0.0, 1.0, [0.0, 3e13])
        assert err.value.t_fail == 0.0


def _piecewise_constant_cases():
    """(b, cells) with b a square wave of random duty or step samples of 2 to
    40 cells, levels in [0, 0.9] (below h >= m0 = 1), T in [0.5, 2], and its
    cells (level, length) over one period; only those that jump."""
    period = st.floats(0.5, 2.0)
    level = st.floats(0.0, 0.9)

    def square(T, lo, hi, d):
        return PeriodicCoefficient.from_closed_form("square", T, lo=lo, hi=hi, duty=d), [(hi, d * T), (lo, (1.0 - d) * T)]

    def steps(T, values):
        return PeriodicCoefficient.from_samples(values, T, order=0), [(v, T / len(values)) for v in values]

    return st.one_of(
        st.builds(square, period, level, level, st.floats(0.01, 0.99)),
        st.builds(steps, period, st.lists(level, min_size=2, max_size=40)),
    ).filter(lambda case: case[0].has_jumps)


def _sin_specs():
    b = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5)
    m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0, phase=np.pi / 2)
    return {"constant": ModelSpec(b, 1.0), "perturbed": ModelSpec(b, 1.0, 0.4, m1)}


@pytest.fixture(scope="module")
def one_period_dp5():
    """64 frequencies on [0, 140] and the DP5 propagators E(T, 0) at 1e-10 of both _sin_specs masses."""
    xi = np.linspace(0.0, 140.0, 64)
    return xi, {mass: dp5_propagate(spec, 0.0, spec.T, xi, 1e-10) for mass, spec in _sin_specs().items()}


class TestMagnusStepper:
    @pytest.mark.slow
    @pytest.mark.parametrize("mass", ["constant", "perturbed"])
    @pytest.mark.parametrize("band", [(0.0, 14.0), (14.0, 56.0), (56.0, 140.0)])
    def test_realized_error_against_dp5(self, mass, band):
        spec = _sin_specs()[mass]
        xi = np.linspace(*band, 64)
        tol = 1e-10
        got, _, _ = propagate_grid(spec, 0.0, 2.0 * spec.T, xi, tol)
        ref = dp5_propagate(spec, 0.0, 2.0 * spec.T, xi, 1e-13)
        assert np.max(np.abs(complex_form(got) - ref)) <= tol

    @pytest.mark.slow
    @pytest.mark.parametrize("mass", ["constant", "perturbed"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-4])
    def test_realized_error_at_loose_tolerances(self, one_period_dp5, mass, tol):
        # over one period, the span of every pipeline sweep; steps that grow
        # past dt sup||K|| = 2 misjudge their error (3.3 tol at 1e-6, 19 at 1e-4)
        xi, refs = one_period_dp5
        got, _, _ = propagate_grid(_sin_specs()[mass], 0.0, 1.0, xi, tol)
        assert np.max(np.abs(complex_form(got) - refs[mass])) <= tol

    @pytest.mark.slow
    @pytest.mark.parametrize("mass, band, checkpoints", [
        ("perturbed", (14.0, 56.0), np.linspace(0.0, 1.0, 5)),  # a decay band: quarter periods
        ("constant", (14.0, 140.0), np.linspace(0.0, 1.0, 17)),  # the high-frequency check's shape
    ])
    def test_realized_error_per_checkpoint_segment(self, mass, band, checkpoints):
        spec = _sin_specs()[mass]
        xi = np.linspace(*band, 32)
        tol = 1e-10
        _, segments, _ = propagate_grid(spec, 0.0, spec.T, xi, tol, checkpoints)
        for prev, time, got in zip(np.append(0.0, checkpoints), checkpoints, segments):
            ref = dp5_propagate(spec, prev, time, xi, 1e-12)
            assert np.max(np.abs(complex_form(got) - ref)) <= tol

    def test_pipeline_sweeps_take_few_steps(self):
        # the four sweeps of the seed-0 `perturbed` bench run at N = 13.953125:
        # the high-frequency check, the contraction scan and the two decay
        # bands.  They took 94 steps when each step was held to tol / 50
        b = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5)
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0)
        base, perturbed = ModelSpec(b, 1.0), ModelSpec(b, 1.0, 5e-9, m1)
        N, scan, quarters = 13.953125, np.linspace(0.0, 1.0, 64), np.linspace(0.0, 1.0, 5)
        sweeps = [
            (base, np.linspace(N, 10.0 * N, 128), scan),
            (base, np.linspace(0.0, N, 256), scan),
            (perturbed, np.linspace(0.0, N, 256), quarters),
            (perturbed, np.linspace(N, 4.0 * N, 64), quarters),
        ]
        assert sum(propagate_grid(spec, 0.0, 1.0, xi, 1e-10, chk)[2].steps_taken for spec, xi, chk in sweeps) <= 60
        # a b that jumps keeps one exponential step per batch: 1000
        # frequencies put four of the 16 pieces in a batch
        square = ModelSpec(PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0), 1.0)
        _, _, res = propagate_grid(square, 0.0, 1.0, np.linspace(0.0, 20.0, 1000), 1e-10, np.linspace(0.0, 1.0, 17))
        assert res.steps_taken == 4

    @pytest.mark.parametrize("mass", ["constant", "perturbed"])
    @pytest.mark.parametrize("xi", [5.0, 30.0])
    def test_step_is_sixth_order(self, mass, xi):
        # the local error of one step is O(dt^7): halving dt divides it by
        # about 128, where a fourth-order step gives 32
        spec = _sin_specs()[mass]
        factors = _make_factors(spec, np.array([xi * xi]))
        errors = []
        for dt in (0.05, 0.025):
            step = complex_form(factors(np.array([0.0]), np.array([dt]))[:, :, 0, 0, 0])
            errors.append(np.max(np.abs(step - dp5_propagate(spec, 0.0, dt, [xi], 1e-14)[0])))
        assert errors[0] >= 100.0 * errors[1]

    def test_the_two_factor_forms_agree(self):
        # the constant-mass polynomial form equals the general form, with dt h
        # up to 2, on oscillatory steps and on strongly damped ones (b > h),
        # where z = u^2 + v w > 0 takes the cosh branch
        rng = np.random.default_rng(40)
        n = 4000
        h = np.concatenate([rng.uniform(0.0, 50.0, n), rng.uniform(0.0, 2.0, n)])
        b = (rng.uniform(0.0, 3.0, (3, 2 * n)) + np.repeat([0.0, 8.0], n)).reshape(3, 1, 2 * n)
        dts = rng.uniform(0.0, 2.0, 2 * n) / np.maximum(h, 1.0)
        general = np.array(_omega((h, h, h), b, dts))
        polynomial = np.array(_omega_constant_mass(h, b, dts))
        assert np.all(np.abs(polynomial - general) <= 1e-14 * np.max(np.abs(general), axis=0))
        _, u, v, w = general
        assert np.any(u * u + v * w > 0.0) and np.any(u * u + v * w < 0.0)
        # exp amplifies a relative change of Omega by up to about |Omega|
        G, P = _expm(*general), _expm(*polynomial)
        size = 1.0 + np.max(np.abs(general[1:]), axis=0)
        assert np.all(np.abs(P - G) <= 1e-14 * size * np.max(np.abs(G), axis=(0, 1)))

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_square_wave_is_exact_per_piece(self, tol):
        # at 1e-13 an explicit stepper that samples b at the segment end, on
        # the far side of the jump, fails with a step size underflow
        b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0)
        spec = ModelSpec(b, 1.0)
        xi = np.linspace(0.0, 200.0, 64)
        got, _, res = propagate_grid(spec, 0.0, 2.0, xi, tol)
        for j, x in enumerate(xi):
            h = math.sqrt(x * x + 1.0)
            period = const_coeff_propagator(0.2, h, 0.5) @ const_coeff_propagator(1.0, h, 0.5)
            assert np.max(np.abs(complex_form(got[j]) - period @ period)) < 1e-12
        # constant pieces are integrated exactly, so the step size only has
        # to grow to the piece length
        assert res.steps_taken <= 20

    @settings(max_examples=60, deadline=None)
    @given(case=_piecewise_constant_cases(), xi=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=8),
           tol=st.sampled_from([1e-10, 1e-13]))
    def test_jumping_b_takes_one_exponential_per_piece(self, case, xi, tol):
        # a b that jumps is constant on every piece: the sweep is the product
        # of the cell flows, one uncontrolled step for the batch, no error
        b, cells = case
        got, _, res = propagate_grid(ModelSpec(b, 1.0), 0.0, b.period, xi, tol)
        for j, x in enumerate(xi):
            h = math.sqrt(x * x + 1.0)
            ref = np.eye(2, dtype=complex)
            for value, length in cells:
                ref = const_coeff_propagator(value, h, length) @ ref
            assert np.max(np.abs(complex_form(got[j]) - ref)) < 1e-12
        assert res.steps_taken == 1
        assert res.rhs_evaluations == 7 * res.steps_taken
        assert res.local_error_estimate == 0.0

    def test_non_finite_constant_piece_raises_at_its_start(self, monkeypatch):
        b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0)
        monkeypatch.setattr(b, "eval", lambda ts: np.where((ts > 1.0) & (ts < 1.5), np.nan, 1.0))
        spec = ModelSpec(b, 1.0)
        with pytest.raises(IntegrationFailureError) as err:
            propagate_grid(spec, 0.0, 2.0, [1.0, 30.0])
        assert err.value.t_fail == 1.0

    def test_triangle_sample_kinks_are_breakpoints(self):
        b = PeriodicCoefficient.from_samples(triangle_samples(), 1.0, order=1)
        assert np.array_equal(b.breakpoints_in(0.0, 3.0), [0.5, 1.0, 1.5, 2.0, 2.5])
        assert np.array_equal(b.breakpoints_in(-0.25, 0.75), [0.0, 0.5])
        assert b.breakpoints_in(0.1, 0.4).size == 0

    @pytest.mark.parametrize("t_end", [0.3, 0.61, 1.37, 2.0])
    def test_linear_kinks_keep_liouville(self, t_end):
        # every sample is a kink; a step not split at one would carry it
        # between its Gauss nodes, where the error estimate cannot see it
        b = PeriodicCoefficient.from_samples([0.2, 1.0, 0.4, 0.8], 1.0, order=1)
        spec = ModelSpec(b, 1.0)
        xi = np.linspace(0.0, 30.0, 32)
        E, _, _ = propagate_grid(spec, 0.0, t_end, xi, 1e-10)
        target = math.exp(-2.0 * integral(b, t_end))
        assert np.max(np.abs(det2(E) - target)) < 1e-12 * target


class TestPeanoBaker:
    def test_zero_terms_is_identity(self, spec_sin):
        assert np.array_equal(
            peano_baker_truncated(spec_sin, 0.0, 0.4, 1.0, 0), np.eye(2, dtype=complex)
        )

    def test_constant_matrix_matches_exponential(self):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.8)
        spec = ModelSpec(b, 2.0)
        got = peano_baker_truncated(spec, 0.0, 0.5, 1.5, 20)
        ref = const_coeff_propagator(0.8, math.sqrt(1.5**2 + 4.0), 0.5)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_cross_oracle_agreement(self, spec_sin):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = rng.uniform(0.0, 1.0)
            dt = rng.uniform(0.05, 0.6)  # ||A|| |t-s| <= 2 regime
            xi = rng.uniform(0.0, 2.5)
            series = peano_baker_truncated(spec_sin, s, s + dt, xi, 20)
            direct = propagate(spec_sin, s, s + dt, xi, 1e-12)
            assert np.max(np.abs(series - direct)) < 1e-8

    def test_window_precondition(self, spec_const):
        with pytest.raises(PreconditionError):
            peano_baker_truncated(spec_const, 0.0, 4.0, 10.0, 20)
        with pytest.raises(PreconditionError):
            peano_baker_truncated(spec_const, 0.0, 0.5, 1.0, 31)


class TestLinearAlgebra2x2:
    def test_eigenvalues_diagonal(self):
        ev = eigenvalues_2x2(np.diag([2.0 + 0j, -3.0 + 1j]))
        assert {complex(2.0), complex(-3.0, 1.0)} == set(ev)

    def test_eigenvalues_traceless(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # tr 0, det -1
        assert set(eigenvalues_2x2(M)) == {1.0 + 0j, -1.0 + 0j}

    def test_eigenvalue_residuals(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            M = random_mat2(rng, scale=rng.uniform(0.01, 100.0))
            tr, dt = M[0, 0] + M[1, 1], det2(M)
            for lam in eigenvalues_2x2(M):
                assert abs(lam * lam - tr * lam + dt) <= 1e-12 * (1 + abs(lam) ** 2) * (
                    1 + abs(tr) ** 2
                )

    def test_eigenvalue_product_is_det(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            M = random_mat2(rng)
            l1, l2 = eigenvalues_2x2(M)
            d = det2(M)
            assert abs(l1 * l2 - d) <= 1e-12 * max(1.0, abs(d))

    def test_spectral_norm_identity(self):
        assert spectral_norm_2x2(np.eye(2)) == 1.0

    def test_spectral_norm_nilpotent_shift(self):
        M = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert spectral_norm_2x2(M) == 2.0

    def test_spectral_norm_against_power_iteration(self):
        rng = np.random.default_rng(33)
        for i in range(50):
            M = rng.standard_normal((2, 2))
            assert abs(spectral_norm_2x2(M) - power_iteration_norm(M, seed=i)) < 1e-10

    def test_norm_squared_is_top_eigenvalue_of_gram(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            M = rng.standard_normal((2, 2))
            G = M.T @ M
            lam = max(abs(v) for v in eigenvalues_2x2(G))
            assert abs(spectral_norm_2x2(M) ** 2 - lam) <= 1e-12 * max(1.0, lam)

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.builds(lambda m, e: m * 10.0**e,
                                      st.floats(-1.0, 1.0).filter(lambda m: m == 0.0 or abs(m) >= 0.1),
                                      st.integers(-99, 100)), min_size=4, max_size=4))
    def test_spectral_norm_matches_svd_across_scales(self, entries):
        # each entry 0 or of magnitude 1e-100 to 1e100, mixed within a matrix:
        # the Gram entries stay in range, and the norm is numpy's SVD norm to rounding
        M = np.array(entries).reshape(2, 2)
        ref = np.linalg.norm(M, 2)
        assert abs(spectral_norm_2x2(M) - ref) <= 1e-14 * ref

    def test_spectral_norm_broadcasts_over_a_view(self):
        # an entry-first (2, 2, ...) array is measured through a moveaxis view
        rng = np.random.default_rng(36)
        A = rng.standard_normal((2, 2, 4, 5))
        view = np.moveaxis(A, (0, 1), (-2, -1))
        assert not view.flags.c_contiguous
        np.testing.assert_allclose(spectral_norm_2x2(view), svd_norm(view), rtol=1e-14, atol=0.0)

    def test_spectral_norm_refuses_complex_matrices(self):
        with pytest.raises(TypeError, match="real"):
            spectral_norm_2x2(np.eye(2, dtype=complex))
        with pytest.raises(TypeError, match="real"):
            spectral_norm_2x2(complex_form(np.eye(2)[None]))

    def test_inv2(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            M = random_mat2(rng)
            assert np.max(np.abs(M @ inv2(M) - np.eye(2))) < 1e-12 * svd_norm(M) ** 2


class TestCumulativeSimpson:
    def test_polynomial_exact(self):
        # cubic integrated exactly by Simpson
        x = np.linspace(0.0, 2.0, 201)
        y = x**3
        got = _cumulative_simpson_uniform(y, x[1] - x[0])
        assert np.max(np.abs(got - x**4 / 4)) < 1e-12

    def test_descending_grid_signed(self):
        x = np.linspace(1.0, 0.0, 201)
        y = np.ones_like(x)
        got = _cumulative_simpson_uniform(y, x[1] - x[0])
        assert abs(got[-1] + 1.0) < 1e-12
