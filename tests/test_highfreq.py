import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kgdecay import (
    ConstantMass,
    ModelSpec,
    PeriodicCoefficient,
    find_threshold_N,
    spectral_norm_2x2,
    suplarge_quantity,
    verify_highfreq_contraction,
)
from kgdecay import highfreq
from kgdecay.errors import FrameError, PreconditionError
from kgdecay.highfreq import (
    FRAME_DET_GUARD,
    _points_per_period,
    _suplarge_from_profile,
    _window_sup,
    threshold_trace_to_csv,
)
from kgdecay.propagator import _cumulative_simpson_uniform

from oracles import corrector_profile, frame_matrices, frame_matrices_at, frame_ode_residual, n_pm

# The frequencies at which the scalar frame product is checked against the
# complex-matrix route; xi = 2 lies below the frame guard on massless sin_offset.
ORACLE_XIS = (2.0, 5.0, 20.0, 64.0, 100.0, 206.0)


def suplarge_matrix_oracle(spec, xi, t_points=64):
    """The frame product from full complex 2x2 matrices, n+ and n- integrated apart."""
    per = _points_per_period(spec, xi)
    per = t_points * math.ceil(per / t_points)
    _, npl, nmi, b, dt = corrector_profile(spec, xi, 2.0 * spec.T, 2 * per + 1)
    n1, n1_inv, r2, det = frame_matrices(npl, nmi, b)
    if float(np.min(np.abs(det))) < FRAME_DET_GUARD:
        raise FrameError(f"corrector near-singular on [0, 2T] at xi = {xi}")
    r2_cum = _cumulative_simpson_uniform(spectral_norm_2x2(r2), dt)
    idx = np.arange(t_points) * (per // t_points)
    return _suplarge_from_profile(spectral_norm_2x2(n1), spectral_norm_2x2(n1_inv), r2_cum, idx, per)


@pytest.fixture(scope="module")
def spec_square():
    b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0)
    return ModelSpec(b, ConstantMass(1.0))


class TestCorrectorIntegrals:
    def test_zero_at_time_zero(self, spec_sin):
        assert n_pm(spec_sin, 0.0, 3.0) == (0.0, 0.0)

    def test_constant_coefficients_closed_form(self):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.7)
        spec = ModelSpec(b, ConstantMass(1.0))
        for xi, t in ((2.0, 1.3), (5.0, 0.4), (9.0, 2.0)):
            h = math.hypot(xi, 1.0)
            npl, nmi = n_pm(spec, t, xi)
            ref_p = 0.7 * (1.0 - np.exp(-1j * h * t)) / (1j * h)
            ref_m = 0.7 * (1.0 - np.exp(1j * h * t)) / (-1j * h)
            assert abs(npl - ref_p) < 1e-8
            assert abs(nmi - ref_m) < 1e-8
            assert abs(npl) <= 2 * 0.7 / h and abs(nmi) <= 2 * 0.7 / h

    def test_ode_route_oracle(self, spec_sin):
        # independent route: integrate d/dt n = b(t) -/+ i h(t) n from 0
        rng = np.random.default_rng(42)
        for _ in range(10):
            t = rng.uniform(0.3, 2.0)
            xi = rng.uniform(3.0, 12.0)
            npl, nmi = n_pm(spec_sin, float(t), float(xi))
            for sign, target in ((-1.0, npl), (+1.0, nmi)):
                sol = solve_ivp(
                    lambda tt, y: [
                        complex(spec_sin.b.eval(tt))
                        + sign * 1j * complex(spec_sin.symbol(tt, xi)) * y[0]
                    ],
                    (0.0, t),
                    [0.0 + 0.0j],
                    method="DOP853",
                    rtol=1e-12,
                    atol=1e-12,
                )
                assert abs(sol.y[0, -1] - target) < 1e-7

    def test_decay_law_in_frequency(self, spec_sin):
        # bounded-variation decay: sup_t |n+-| * xi stays bounded up to 1e3
        def corrector_sup(x):
            # max over the [0, 2T] grid of |n+| and |n-|
            _, npl, nmi, _, _ = corrector_profile(spec_sin, x, 2.0, 2 * _points_per_period(spec_sin, x) + 1)
            return max(np.max(np.abs(npl)), np.max(np.abs(nmi)))

        xis = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 1000.0])
        sups = np.array([corrector_sup(x) for x in xis])
        scaled = sups * xis
        assert np.all(scaled < 10.0)
        # fitted constant stable under refinement of the quadrature grid
        half = np.array(
            [
                max(
                    abs(n_pm(spec_sin, 1.7, x, per_period=16384)[0]),
                    abs(n_pm(spec_sin, 1.7, x, per_period=16384)[1]),
                )
                for x in xis
            ]
        )
        coarse = np.array(
            [max(abs(v) for v in n_pm(spec_sin, 1.7, x)) for x in xis]
        )
        assert np.max(np.abs(half - coarse)) < 1e-7

    def test_window_checked(self, spec_sin):
        with pytest.raises(PreconditionError):
            n_pm(spec_sin, 2.5 * spec_sin.T, 4.0)


class TestFrames:
    def test_identity_frame_at_zero_correctors(self):
        n1, n1_inv, r2, det = frame_matrices(np.array(0.0j), np.array(0.0j), 1.0)
        assert np.array_equal(n1, np.eye(2, dtype=complex))
        assert np.array_equal(n1_inv, np.eye(2, dtype=complex))
        assert np.all(r2 == 0.0)
        assert det == 1.0

    def test_norm_consistency_bound(self, spec_sin):
        rng = np.random.default_rng(6)
        for _ in range(10):
            t = rng.uniform(0.0, 2.0)
            xi = rng.uniform(6.0, 30.0)
            n1, n1_inv, r2, _ = frame_matrices_at(spec_sin, float(t), float(xi))
            b = float(spec_sin.b.eval(t))
            lhs = spectral_norm_2x2(r2)
            rhs = spectral_norm_2x2(n1_inv) * b * spectral_norm_2x2(np.eye(2) - n1)
            assert lhs <= rhs + 1e-12

    def test_corrector_frame_is_hermitian(self, spec_sin, spec_square, spec_tri):
        # real b and h: the two corrector integrals are complex conjugates
        for spec in (spec_sin, spec_square, spec_tri):
            for xi in (3.0, 20.0, 100.0):
                _, npl, nmi, _, _ = corrector_profile(spec, xi, 2.0 * spec.T, 4097)
                assert np.max(np.abs(nmi - np.conj(npl))) < 1e-14

    def test_hermitian_closed_forms_match_matrices(self):
        # r = |n+| on both sides of the singular circle r = 1
        rng = np.random.default_rng(61)
        r = np.concatenate([rng.uniform(0.0, 0.9, 32), rng.uniform(1.1, 3.0, 32)])
        npl = r * np.exp(2j * np.pi * rng.uniform(size=64))
        b = rng.uniform(-2.0, 2.0, 64)
        n1, n1_inv, r2, det = frame_matrices(npl, np.conj(npl), b)
        closed = (1.0 + r, 1.0 / np.abs(1.0 - r), np.abs(b) * r / np.abs(1.0 - r))
        for value, matrix in zip(closed, (n1, n1_inv, r2)):
            assert np.max(np.abs(value - spectral_norm_2x2(matrix)) / value) < 1e-12
        assert np.max(np.abs(np.abs(1.0 - r * r) - np.abs(det))) < 1e-12

    def test_unit_diagonal_and_inverse(self, spec_sin):
        n1, n1_inv, _, _ = frame_matrices_at(spec_sin, 0.8, 12.0)
        assert n1[0, 0] == 1.0 and n1[1, 1] == 1.0
        assert np.max(np.abs(n1 @ n1_inv - np.eye(2))) < 1e-10

    def test_remainder_shrinks_with_frequency(self, spec_sin):
        sups = []
        for xi in (10.0, 20.0, 40.0, 80.0):
            vals = [
                spectral_norm_2x2(frame_matrices_at(spec_sin, t, xi)[2])
                for t in np.linspace(0.0, 1.0, 9)
            ]
            sups.append(max(vals))
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_singular_frame_raises(self):
        # slow phase keeps n+ n- = |n+|^2 near one, landing inside the guard
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        spec = ModelSpec(b, ConstantMass(0.05))
        assert abs(frame_matrices_at(spec, 1.0, 0.05)[3]) < FRAME_DET_GUARD
        with pytest.raises(FrameError):
            suplarge_quantity(spec, 0.05)

    def test_frame_ode_residual_small(self, spec_sin, spec_tri):
        # the triangle's slope jumps force a denser difference grid
        for spec in (spec_sin, spec_tri):
            for xi in (6.0, 20.0):
                assert frame_ode_residual(spec, xi, per_period=32768) < 1e-4


class TestSupLarge:
    def test_trivial_profile_value_one(self):
        ones = np.ones(17)
        zeros = np.zeros(17)
        idx = np.arange(4) * 2
        assert _suplarge_from_profile(ones, ones, zeros, idx, 8) == 1.0

    def test_tends_to_one_from_above(self, spec_sin):
        # excess over one decays like 1/xi: boundary terms (b(0)+b(t))/xi from
        # each corrector plus the remainder integral, about 6/xi here
        v1 = suplarge_quantity(spec_sin, 1e3)
        v2 = suplarge_quantity(spec_sin, 2e3)
        assert v2 >= 1.0 and v1 >= 1.0
        assert v1 - 1.0 < 1e-2
        assert v2 - 1.0 < 0.6 * (v1 - 1.0)

    def test_decreasing_trend_in_frequency(self, spec_sin):
        N = 14.0
        vals = [suplarge_quantity(spec_sin, x) for x in (N, 2 * N, 4 * N)]
        assert vals[0] > vals[1] > vals[2]

    def test_low_frequency_frame_error(self, spec_sin):
        with pytest.raises(FrameError):
            suplarge_quantity(spec_sin, 0.05)

    def test_matches_complex_matrix_oracle(self, spec_sin, spec_square):
        for spec in (spec_sin, spec_square):
            for m0 in (0.0, 1.0):
                spec_m = ModelSpec(spec.b, ConstantMass(m0))
                for xi in ORACLE_XIS:
                    try:
                        ref = suplarge_matrix_oracle(spec_m, xi)
                    except FrameError:
                        with pytest.raises(FrameError):
                            suplarge_quantity(spec_m, xi)
                        continue
                    assert suplarge_quantity(spec_m, xi) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_frame_error_at_the_same_frequencies(self, spec_sin):
        # the guard triggers at the same low frequencies on both routes
        base = ModelSpec(spec_sin.b, ConstantMass(0.0))
        for xi in (0.5, 1.0, 2.0, 2.5, 3.0):
            outcomes = []
            for fn in (suplarge_matrix_oracle, suplarge_quantity):
                try:
                    fn(base, xi)
                    outcomes.append("value")
                except FrameError:
                    outcomes.append("FrameError")
            assert outcomes[0] == outcomes[1], xi
        with pytest.raises(FrameError):
            suplarge_quantity(base, 2.0)

    def test_constant_mass_is_a_frequency_shift(self, spec_sin, spec_square):
        # the frame product depends on the mass only through sqrt(xi^2 + m0^2),
        # which is not monotone in xi: mass can raise it at a given xi
        raised = 0
        for spec in (spec_sin, spec_square):
            base = ModelSpec(spec.b, ConstantMass(0.0))
            for m0 in (0.5, 1.0, 3.0):
                massive = ModelSpec(spec.b, ConstantMass(m0))
                for xi in (10.0, 17.0, 23.0, 41.0, 60.0):
                    value = suplarge_quantity(massive, xi)
                    shifted = suplarge_quantity(base, math.hypot(xi, m0))
                    assert value == pytest.approx(shifted, rel=1e-14, abs=0.0)
                    raised += value > suplarge_quantity(base, xi)
        assert raised > 0


class TestThresholdSearch:
    def test_constant_profile(self, spec_const):
        thr = find_threshold_N(spec_const, xi_points=64, t_points=32)
        assert thr.sup_value <= thr.target
        assert thr.xi_max_checked == 10.0 * thr.N
        # survives a doubled verification grid
        assert _window_sup(spec_const.constant_mass_version(), thr.N, 128, 64) <= thr.target

    def test_window_scan_stops_at_first_violation(self, spec_sin, monkeypatch):
        # 130 frequencies, one value above the cut at the third
        calls = []

        def fake(spec, xi, t_points):
            calls.append(xi)
            return 5.0 if len(calls) == 3 else 1.0

        monkeypatch.setattr(highfreq, "suplarge_quantity", fake)
        assert _window_sup(spec_sin, 2.0, 130, 8, stop_above=2.0) == 5.0
        assert len(calls) == 3
        calls.clear()
        assert _window_sup(spec_sin, 2.0, 130, 8) == 5.0
        assert len(calls) == 130

    def test_search_decisions_match_matrix_oracle(self, spec_sin, monkeypatch):
        thr = find_threshold_N(spec_sin)
        monkeypatch.setattr(highfreq, "suplarge_quantity", suplarge_matrix_oracle)
        ref = find_threshold_N(spec_sin)
        assert thr.N == ref.N
        assert [(n, ok) for n, _, ok in thr.trace] == [(n, ok) for n, _, ok in ref.trace]
        for (_, sup, _), (_, sup_ref, _) in zip(thr.trace, ref.trace):
            assert sup == pytest.approx(sup_ref, rel=1e-12, abs=0.0)

    def test_mass_independence(self, b_const):
        t1 = find_threshold_N(ModelSpec(b_const, ConstantMass(1.0)), xi_points=64, t_points=32)
        t5 = find_threshold_N(ModelSpec(b_const, ConstantMass(5.0)), xi_points=64, t_points=32)
        assert t1.N == t5.N

    def test_monodromy_bound_holds_above_threshold(self, spec_const):
        thr = find_threshold_N(spec_const, xi_points=64, t_points=32)
        mx, bound, ok = verify_highfreq_contraction(spec_const, thr.N, nt=16, nxi=32)
        assert ok
        assert mx <= bound + 1e-6

    def test_search_range_exhausted(self, spec_const):
        from kgdecay.errors import ThresholdSearchError

        with pytest.raises(ThresholdSearchError):
            find_threshold_N(spec_const, xi_points=16, t_points=32, n_max=2.0)

    def test_trace_csv(self, spec_const, tmp_path):
        thr = find_threshold_N(spec_const, xi_points=32, t_points=32)
        path = tmp_path / "trace.csv"
        threshold_trace_to_csv(path, thr)
        lines = path.read_text().splitlines()
        assert lines[0] == "N_candidate,sup_value,accepted"
        assert len(lines) == 1 + len(thr.trace)
        assert lines[-1].split(",")[2] in ("0", "1")
