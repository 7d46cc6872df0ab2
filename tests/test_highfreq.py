import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from kgdecay import (
    ModelSpec,
    PeriodicCoefficient,
    ThresholdResult,
    find_threshold_N,
    suplarge_quantity,
    verify_highfreq_contraction,
)
from kgdecay import cli, highfreq
from kgdecay.errors import FrameError, ThresholdSearchError
from kgdecay.highfreq import (
    FRAME_DET_GUARD,
    _points_per_period,
    _suplarge_from_profile,
    _tail_bound,
    _tail_constant,
    _tail_xi,
    _window_sup,
    threshold_trace_to_csv,
)
from conftest import CSV_EDGE_VALUES, svd_norm
from oracles import (
    PreconditionError,
    corrector_profile,
    frame_matrices,
    frame_matrices_at,
    frame_ode_residual,
    n_pm,
    oracle_points_per_period,
    piecewise_cumulative,
    reference_csv,
    symbol,
    uniform_nodes,
    window_sup_full_scan,
)

# The frequencies at which the scalar frame product is checked against the
# complex-matrix route; xi = 2 lies below the frame guard on massless sin_offset.
ORACLE_XIS = (2.0, 5.0, 20.0, 64.0, 100.0, 206.0)


def suplarge_matrix_oracle(spec, xi, t_points=64, refine=1):
    """The frame product from full complex 2x2 matrices, n+ and n- integrated
    apart over [0, 2T] on the profile's nodes: one period split at the base
    times and at the breakpoints of b, every piece into the same number of
    intervals, b sampled PIECE_END_OFFSET of a piece inside its ends, and the
    same nodes shifted by T.  Covers b with at most MAX_ALIGNED_PIECES pieces."""
    T = spec.T
    base = [j * (T / t_points) for j in range(t_points)]
    ends = np.array(sorted(set(base) | set(spec.b.breakpoints_in(0.0, T).tolist())) + [T])
    pieces = ends.size - 1
    assert pieces <= highfreq.MAX_ALIGNED_PIECES
    m = refine * _points_per_period(spec, xi, t_points) // pieces
    u = np.linspace(0.0, 1.0, m + 1)[:, None]
    tau = ends[:-1] + u * np.diff(ends)
    u[0], u[-1] = highfreq.PIECE_END_OFFSET, 1.0 - highfreq.PIECE_END_OFFSET
    b = spec.b.eval(ends[:-1] + u * np.diff(ends))
    tau, b = np.hstack([tau, tau + T]), np.hstack([b, b])
    npl, nmi = corrector_profile(spec, xi, tau, b)
    n1, n1_inv, r2, det = frame_matrices(npl, nmi, b)
    if float(np.min(np.abs(det))) < FRAME_DET_GUARD:
        raise FrameError(f"corrector near-singular on [0, 2T] at xi = {xi}")
    r2_cum = piecewise_cumulative(svd_norm(r2), tau)
    norms = svd_norm(n1)[0], svd_norm(n1_inv)[0]
    return _suplarge_from_profile(*norms, r2_cum[0], np.searchsorted(ends, base), pieces)


def _random_samples(order, seed):
    rng = np.random.default_rng(seed)
    return PeriodicCoefficient.from_samples(rng.uniform(0.2, 1.5, 16), 1.0, order=order)


# The phase of b in the perturbed benchmark workload at seed 1.
PHASE_SEED1 = 0.02 * (random.Random(1).random() - 0.5)

# Dissipations on which the pruned window scan must reproduce the full scan.
PRUNING_CASES = {
    "sin_offset": lambda: PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5),
    "square-0.01": lambda: PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.01),
    "square-0.3337": lambda: PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.3337),
    "square-0.9": lambda: PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.9),
    "triangle": lambda: PeriodicCoefficient.from_closed_form("triangle", 1.0, lo=0.2, hi=1.0),
    "samples-0": lambda: _random_samples(0, 11),
    "samples-1": lambda: _random_samples(1, 12),
    "constant": lambda: PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.8),
    "constant-0": lambda: PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.0),
}


def _dissipations():
    """Non-negative dissipations of every representation, with T in [0.5, 2]."""
    unit = st.floats(0.0, 2.0)
    period = st.floats(0.5, 2.0)
    closed = st.one_of(
        st.builds(lambda T, v: ("constant", T, {"value": v}), period, unit),
        st.builds(
            lambda T, a, extra, ph: ("sin_offset", T, {"mean": a + extra, "amp": a, "phase": ph}),
            period, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
        ),
        st.builds(lambda T, lo, hi: ("triangle", T, {"lo": lo, "hi": hi}), period, unit, unit),
        st.builds(
            lambda T, lo, hi, d: ("square", T, {"lo": lo, "hi": hi, "duty": d}),
            period, unit, unit, st.floats(0.01, 0.99),
        ),
    ).map(lambda c: PeriodicCoefficient.from_closed_form(c[0], c[1], **c[2]))
    sampled = st.builds(
        PeriodicCoefficient.from_samples,
        st.lists(unit, min_size=2, max_size=32),
        period,
        st.sampled_from([0, 1]),
    )
    return st.one_of(closed, sampled)


def _broken_dissipations():
    """Dissipations that jump or kink inside a period: square with a random
    duty, step and linear samples, and triangle, with T in [0.5, 2]."""
    level = st.floats(0.0, 2.0)
    period = st.floats(0.5, 2.0)
    return st.one_of(
        st.builds(lambda T, lo, hi, d: PeriodicCoefficient.from_closed_form("square", T, lo=lo, hi=hi, duty=d),
                  period, level, level, st.floats(0.01, 0.99)),
        st.builds(PeriodicCoefficient.from_samples, st.lists(level, min_size=2, max_size=40), period,
                  st.sampled_from([0, 1])),
        st.builds(lambda T, lo, hi: PeriodicCoefficient.from_closed_form("triangle", T, lo=lo, hi=hi),
                  period, level, level),
    )


def _search_dissipations():
    """square, sin_offset, triangle and sampled b with levels in [0.1, 2] and
    T in [0.5, 2], on which a search ends in a few milliseconds."""
    period = st.floats(0.5, 2.0)
    level = st.floats(0.1, 2.0)
    return st.one_of(
        st.builds(lambda T, lo, hi, d: PeriodicCoefficient.from_closed_form("square", T, lo=lo, hi=hi, duty=d),
                  period, level, level, st.floats(0.01, 0.99)),
        st.builds(lambda T, a, extra, ph: PeriodicCoefficient.from_closed_form(
            "sin_offset", T, mean=a + extra, amp=a, phase=ph), period, st.floats(0.0, 1.0), level,
                  st.floats(0.0, 2.0 * math.pi)),
        st.builds(lambda T, lo, hi: PeriodicCoefficient.from_closed_form("triangle", T, lo=lo, hi=hi),
                  period, level, level),
        st.builds(PeriodicCoefficient.from_samples, st.lists(level, min_size=2, max_size=40), period,
                  st.sampled_from([0, 1])),
    )


def _tail_cases():
    """:func:`_dissipations`, with more square waves of random duty and
    sin_offset of random phase, whose end values b(0+), b(0-) vary most."""
    period = st.floats(0.5, 2.0)
    level = st.floats(0.0, 2.0)
    return st.one_of(
        _dissipations(),
        st.builds(lambda T, lo, hi, d: PeriodicCoefficient.from_closed_form("square", T, lo=lo, hi=hi, duty=d),
                  period, level, level, st.floats(0.001, 0.999)),
        st.builds(lambda T, a, extra, ph: PeriodicCoefficient.from_closed_form(
            "sin_offset", T, mean=a + extra, amp=a, phase=ph), period, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(0.0, 2.0 * math.pi)),
    )


def _corrector_sup(spec, xi):
    """max |c+| over [0, 2T] from the oracle, on pieces that end at every
    breakpoint of b, b sampled PIECE_END_OFFSET inside each piece end, with
    at least 256 intervals per unit of phase."""
    T = spec.T
    ends = np.concatenate([[0.0], spec.b.breakpoints_in(0.0, 2.0 * T), [2.0 * T]])
    phase = 2.0 * math.hypot(xi, spec.m0) * T
    m = 2 * math.ceil(max(8192.0, 256.0 * phase) / (2 * (ends.size - 1)))
    u = np.linspace(0.0, 1.0, m + 1)[:, None]
    tau = ends[:-1] + u * np.diff(ends)
    u[0], u[-1] = highfreq.PIECE_END_OFFSET, 1.0 - highfreq.PIECE_END_OFFSET
    n_plus, _ = corrector_profile(spec, xi, tau, spec.b.eval(ends[:-1] + u * np.diff(ends)))
    return float(np.max(np.abs(n_plus)))


def _base_norms(spec, xi, refine):
    """||N1|| at t_j and t_j + T, and ||N1^-1|| at t_j, over the base times t_j of a profile."""
    seen = []

    def keep(n1, n1_inv, r2_cum, idx, per):
        seen.append(np.concatenate([n1[idx], n1[idx + per], n1_inv[idx]]))
        return _suplarge_from_profile(n1, n1_inv, r2_cum, idx, per)

    with mock.patch.object(highfreq, "_suplarge_from_profile", keep):
        suplarge_quantity(spec, xi, refine=refine)
    return seen[0]


@pytest.fixture(scope="module")
def spec_square():
    b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0)
    return ModelSpec(b, 1.0)


class TestCorrectorIntegrals:
    def test_zero_at_time_zero(self, spec_sin):
        assert n_pm(spec_sin, 0.0, 3.0) == (0.0, 0.0)

    def test_constant_coefficients_closed_form(self):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.7)
        spec = ModelSpec(b, 1.0)
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
                        + sign * 1j * complex(symbol(spec_sin, tt, xi)) * y[0]
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
            nodes = uniform_nodes(spec_sin, 2.0, 2 * oracle_points_per_period(spec_sin, x) + 1)
            npl, nmi = corrector_profile(spec_sin, x, *nodes)
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
            lhs = svd_norm(r2)
            rhs = svd_norm(n1_inv) * b * svd_norm(np.eye(2) - n1)
            assert lhs <= rhs + 1e-12

    def test_corrector_frame_is_hermitian(self, spec_sin, spec_square, spec_tri):
        # real b and h: the two corrector integrals are complex conjugates
        for spec in (spec_sin, spec_square, spec_tri):
            for xi in (3.0, 20.0, 100.0):
                npl, nmi = corrector_profile(spec, xi, *uniform_nodes(spec, 2.0 * spec.T, 4097))
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
            assert np.max(np.abs(value - svd_norm(matrix)) / value) < 1e-12
        assert np.max(np.abs(np.abs(1.0 - r * r) - np.abs(det))) < 1e-12

    def test_unit_diagonal_and_inverse(self, spec_sin):
        n1, n1_inv, _, _ = frame_matrices_at(spec_sin, 0.8, 12.0)
        assert n1[0, 0] == 1.0 and n1[1, 1] == 1.0
        assert np.max(np.abs(n1 @ n1_inv - np.eye(2))) < 1e-10

    def test_remainder_shrinks_with_frequency(self, spec_sin):
        sups = []
        for xi in (10.0, 20.0, 40.0, 80.0):
            vals = [
                svd_norm(frame_matrices_at(spec_sin, t, xi)[2])
                for t in np.linspace(0.0, 1.0, 9)
            ]
            sups.append(max(vals))
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_singular_frame_raises(self):
        # slow phase keeps n+ n- = |n+|^2 near one, landing inside the guard
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        spec = ModelSpec(b, 0.05)
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

    @pytest.mark.parametrize("name, value", [("t_points", 0), ("t_points", -1), ("refine", 0), ("refine", -2)])
    def test_empty_profile_grids_rejected(self, spec_sin, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            suplarge_quantity(spec_sin, 5.0, **{name: value})

    def test_perturbed_mass_is_refused(self, b_sin, m1_cos):
        # the profile takes the phase of a constant mass, sqrt(xi^2 + m0^2) t
        with pytest.raises(ValueError, match="constant mass"):
            suplarge_quantity(ModelSpec(b_sin, 1.0, 0.4, m1_cos), 20.0)

    def test_matches_complex_matrix_oracle(self, spec_sin, spec_square):
        for spec in (spec_sin, spec_square):
            for m0 in (0.0, 1.0):
                spec_m = ModelSpec(spec.b, m0)
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
        base = ModelSpec(spec_sin.b, 0.0)
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
            base = ModelSpec(spec.b, 0.0)
            for m0 in (0.5, 1.0, 3.0):
                massive = ModelSpec(spec.b, m0)
                for xi in (10.0, 17.0, 23.0, 41.0, 60.0):
                    value = suplarge_quantity(massive, xi)
                    shifted = suplarge_quantity(base, math.hypot(xi, m0))
                    assert value == pytest.approx(shifted, rel=1e-14, abs=0.0)
                    raised += value > suplarge_quantity(base, xi)
        assert raised > 0


class TestProfileQuadrature:
    @settings(max_examples=40, deadline=None)
    @given(b=_broken_dissipations(), xi=st.floats(14.0, 60.0))
    def test_corrector_converges_at_fourth_order(self, b, xi):
        # pieces end at every jump and kink of b, so c+ keeps Simpson's order:
        # each doubling of the intervals shrinks the change at least 8-fold
        spec = ModelSpec(b, 0.0)
        norms = [_base_norms(spec, xi, refine) for refine in (1, 2, 4)]
        first, second = (float(np.max(np.abs(y - x))) for x, y in zip(norms, norms[1:]))
        assert second <= max(first / 8.0, 1e-13)

    @settings(max_examples=40, deadline=None)
    @given(b=_broken_dissipations(), xi=st.floats(14.0, 60.0))
    def test_frame_product_within_the_kink_bound(self, b, xi):
        # the integrand |b| r / (1 - r) of ||R2||, r = |c+|, has a kink wherever
        # c+ returns to zero, as it does after each phase cycle while b stays
        # constant from t = 0, and nearly so while b varies slowly.  Simpson
        # is second order there: a kink costs about sup|b|^2 h^2, and a window
        # of one period holds at most xi T / (2 pi) + 2 of them.
        spec = ModelSpec(b, 0.0)
        h = b.period / _points_per_period(spec, xi)
        coarse, fine = suplarge_quantity(spec, xi), suplarge_quantity(spec, xi, refine=16)
        kinks = xi * b.period / (2.0 * math.pi) + 2.0
        assert abs(coarse - fine) <= kinks * b.sup_abs**2 * h**2 * fine + 1e-13

    @pytest.mark.parametrize("b", [
        PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0),
        PeriodicCoefficient.from_closed_form("square", 1.0, lo=1.0, hi=1.0),
        PeriodicCoefficient.from_closed_form("triangle", 1.0, lo=0.2, hi=1.0),
        PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5),
        _random_samples(0, 7),
        _random_samples(1, 7),
    ])
    def test_one_count_for_every_b(self, b):
        # at xi = 14 the phase asks for fewer points than the least count, at
        # xi = 2000 for 2 per unit of phase; MAX_REFINE times the count is at
        # least the fixed count max(4096, 64 ceil(h T)) the search used before,
        # where b jumps a quarter of it, so the profile cap binds no later
        spec = ModelSpec(b, 0.0)
        assert _points_per_period(spec, 14.0) == 128
        assert _points_per_period(spec, 2000.0) == 4096
        for xi in np.geomspace(0.1, 1e5, 60):
            phase = math.ceil(float(xi) * b.period)
            assert highfreq.MAX_REFINE * _points_per_period(spec, float(xi)) >= max(4096, 64 * phase)

    def test_many_breakpoints_split_at_base_times(self):
        # splitting 10,000 step samples at every jump would take more than
        # 20,000 intervals per period; the profile splits at the base times
        # alone and takes the count of a b without breakpoints
        rng = np.random.default_rng(3)
        b = PeriodicCoefficient.from_samples(rng.uniform(0.2, 1.5, 10_000), 1.0, order=0)
        spec = ModelSpec(b, 0.0)
        smooth = ModelSpec(PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0), 0.0)
        ends = highfreq._profile_ends(b, 1.0, 64)
        assert np.array_equal(ends, np.arange(65) / 64)
        for xi in (14.0, 200.0, 20000.0):
            assert _points_per_period(spec, xi) == _points_per_period(smooth, xi)
        assert 1.0 < suplarge_quantity(spec, 200.0) < math.inf

    def test_square_frame_product_value(self):
        # massless square at the seed-0 threshold; the uniform 4,096-point
        # rule gave 1.3475231, 1.3474304 at 131,072 points, first order at jumps.
        # 8 times the starting count is the 1,024 points the search took
        # before; at the starting count of 128 the value stays within
        # REFINE_SAFETY times its change per doubling
        b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0)
        spec = ModelSpec(b, 0.0)
        assert _points_per_period(spec, 20.609375) == 128
        assert suplarge_quantity(spec, 20.609375, refine=8) == pytest.approx(1.34742736, rel=0.0, abs=1e-8)
        coarse = suplarge_quantity(spec, 20.609375)
        change = abs(suplarge_quantity(spec, 20.609375, refine=2) - coarse)
        assert abs(coarse - 1.34742736) <= highfreq.REFINE_SAFETY * change < 2.5e-6


class TestTailBound:
    @settings(max_examples=60, deadline=None)
    @given(b=_dissipations(), scale=st.floats(2.0001, 6.0), m0=st.sampled_from([0.0, 0.7, 3.0]))
    def test_profile_below_the_closed_form(self, b, scale, m0):
        # wherever rho = C_b / xi < 1/2, with the endpoint constant
        # C_b = 2 min(b(0+), b(0-)) + 2 V, the discrete frame product stays
        # below P(xi), with or without a constant mass
        c_b = 2.0 * min(b.start_value, b.end_value) + 2.0 * b.variation
        assume(c_b > 0.0)
        spec = ModelSpec(b, m0)
        xi = scale * c_b
        assert _tail_constant(b) == c_b
        assert suplarge_quantity(spec, xi) <= _tail_bound(b, spec.beta * spec.T, xi)

    @settings(max_examples=60, deadline=None)
    @given(b=_dissipations().filter(lambda b: not b.has_jumps), scale=st.floats(1.0001, 4.0),
           m0=st.sampled_from([0.0, 0.7, 3.0]))
    @example(b=PeriodicCoefficient.from_closed_form("constant", 1.0, value=5e-320), scale=2.0, m0=3.0)
    def test_profile_below_the_second_order_bound(self, b, scale, m0):
        # on b without jumps (constant, sin_offset, triangle, linear samples),
        # wherever rho = min(C_b, a + D_b / xi) / xi < 1/2, a = sup|b| + |b(0)|,
        # |c+| stays below rho_2(h) = a / h + D_b / h^2 on [0, 2T], and the
        # frame product below P(xi).  A constant b attains rho_2 where h t = pi,
        # so the quadrature's rounding gets a relative 1e-9, and subnormal
        # levels, which carry few digits, an absolute 1e-300 (the example:
        # max|c+| / rho_2 = 1.0095 for b = 5e-320).
        a, d_b = b.sup_abs + abs(b.start_value), b.slope_constant
        c_b = _tail_constant(b)
        assume(c_b > 0.0)
        # rho = 1/2 at xi = 2 C_b, or where rho_2 = 1/2
        xi = scale * min(2.0 * c_b, a + math.sqrt(a * a + 2.0 * d_b))
        spec = ModelSpec(b, m0)
        h = math.hypot(xi, m0)
        nodes = uniform_nodes(spec, 2.0 * spec.T, 2 * oracle_points_per_period(spec, xi) + 1)
        n_plus, _ = corrector_profile(spec, xi, *nodes)
        assert np.max(np.abs(n_plus)) <= (a + d_b / h) / h * (1.0 + 1e-9) + 1e-300
        assert suplarge_quantity(spec, xi) <= _tail_bound(b, spec.beta * spec.T, xi)

    @settings(max_examples=80, deadline=None)
    @given(b=_tail_cases(), xi=st.floats(0.5, 200.0), m0=st.sampled_from([0.0, 0.7, 3.0]))
    def test_endpoint_constant_bounds_the_corrector(self, b, xi, m0):
        # |c+| h <= C_b on [0, 2T], and C_b is no larger than 2 sup|b| + 2 V;
        # without jumps |c+| <= (sup|b| + |b(0)|) / h + D_b / h^2 too.  A
        # constant b attains both bounds where h t = pi, so the quadrature's
        # rounding gets a relative 1e-9, and subnormal levels, which carry
        # few digits, an absolute 1e-300.
        spec = ModelSpec(b, m0)
        c_b, h = _tail_constant(b), math.hypot(xi, m0)
        top = _corrector_sup(spec, xi)
        assert top * h <= c_b * (1.0 + 1e-9) + 1e-300
        assert c_b <= 2.0 * b.sup_abs + 2.0 * b.variation
        if not b.has_jumps:
            second = (b.sup_abs + abs(b.start_value)) / h + b.slope_constant / (h * h)
            assert top <= second * (1.0 + 1e-9) + 1e-300

    def test_closed_form_decreases_and_never_raises(self):
        # P is inf up to C_b, 5.2 for the square wave and 6 for sin_offset,
        # whose second-order bound reaches one only at 6.99, and decreases above it
        for b, c_b in ((PeriodicCoefficient.from_closed_form("square", 1.0, lo=1.0, hi=1.8), 5.2),
                       (PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5), 6.0)):
            assert _tail_constant(b) == c_b
            vals = [_tail_bound(b, 0.6, float(x)) for x in np.geomspace(1.02 * c_b, 1e6, 200)]
            assert all(p > q for p, q in zip(vals, vals[1:]))
            assert vals[-1] > 1.0
            assert _tail_bound(b, 0.6, c_b) == math.inf
            assert _tail_bound(b, 0.6, 1.0) == math.inf
            assert _tail_bound(b, 1e300, 1.02 * c_b) == math.inf

    def test_tail_frequency_is_the_first_crossing(self, spec_square):
        # b(0+) = 1 and b(0-) = 0.2: C_b = 2 * 0.2 + 2 V, where bounding both
        # end values by sup|b| gave 5.2 and a crossing at 46.67
        thr = find_threshold_N(spec_square)
        accept = thr.target * (1.0 - highfreq.THRESHOLD_ACCEPT_MARGIN)
        beta_t, b = spec_square.beta * spec_square.T, spec_square.b
        assert thr.tail_C_b == _tail_constant(b) == 2.0 * 0.2 + 2.0 * 1.6
        assert _tail_bound(b, beta_t, thr.tail_xi) <= accept
        assert _tail_bound(b, beta_t, math.nextafter(thr.tail_xi, 0.0)) > accept
        assert thr.tail_xi == pytest.approx(32.31, abs=0.01)
        assert thr.tail_xi <= thr.xi_max_checked
        # a level below one is never reached
        assert _tail_xi(b, beta_t, 0.999) == math.inf

    def test_second_order_tail_frequency(self, spec_sin):
        # sin_offset has D_b = 10 |amp| 2 pi / T and b(0) = 1, and the two-term
        # bound (sup|b| + b(0)) / xi + D_b / xi^2 crosses the accept level at
        # 24.32 instead of the 38.49 of C_b / xi alone
        thr = find_threshold_N(spec_sin)
        accept = thr.target * (1.0 - highfreq.THRESHOLD_ACCEPT_MARGIN)
        beta_t, b = spec_sin.beta * spec_sin.T, spec_sin.b
        assert thr.tail_C_b == 2.0 * 1.0 + 2.0 * 2.0
        assert thr.tail_D_b == 10.0 * 0.5 * 2.0 * math.pi
        assert _tail_bound(b, beta_t, thr.tail_xi) <= accept
        assert _tail_bound(b, beta_t, math.nextafter(thr.tail_xi, 0.0)) > accept
        assert thr.tail_xi == pytest.approx(24.323, abs=1e-3)

        def first_order(xi):
            rho = thr.tail_C_b / xi
            return (1.0 + rho) / (1.0 - rho) * math.exp(beta_t * rho / (1.0 - rho)) - accept

        assert brentq(first_order, 1.01 * thr.tail_C_b, 1e3, xtol=1e-12) == pytest.approx(38.490, abs=1e-3)

    def test_tail_frequency_below_C_b(self):
        # 16 rises and falls of a slow linear b: large variation, small slopes.
        # The crossing lies below C_b, where the first-order bound is inf
        b = PeriodicCoefficient.from_samples([0.0, 1.0] * 16, 100.0, order=1)
        level = math.exp(b.mean * 100.0 / 2.0) * (1.0 - highfreq.THRESHOLD_ACCEPT_MARGIN)
        xi = _tail_xi(b, b.mean * 100.0, level)
        assert xi < _tail_constant(b) == 64.0
        assert _tail_bound(b, b.mean * 100.0, xi) <= level
        assert _tail_bound(b, b.mean * 100.0, math.nextafter(xi, 0.0)) > level


class TestThresholdSearch:
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pruned_search_equals_the_full_scan(self, case, monkeypatch):
        spec = ModelSpec(PRUNING_CASES[case](), 1.0)
        try:
            thr = find_threshold_N(spec)
        except ThresholdSearchError as exc:
            thr = str(exc)
        monkeypatch.setattr(highfreq, "_window_sup", window_sup_full_scan)
        try:
            ref = find_threshold_N(spec)
        except ThresholdSearchError as exc:
            ref = str(exc)
        if case == "constant-0":
            assert isinstance(ref, str)
        assert thr == ref

    def test_square_search_profile_count(self, spec_square, monkeypatch):
        # the full scan evaluates 906 frame profiles on this search; the
        # endpoint constant stops the scans after 79, where 2 sup|b| + 2 V
        # took 150
        calls = []
        profile = highfreq.suplarge_quantity

        def counted(*args, **kwargs):
            calls.append(args[1])
            return profile(*args, **kwargs)

        monkeypatch.setattr(highfreq, "suplarge_quantity", counted)
        find_threshold_N(spec_square)
        assert len(calls) <= 90

    def test_sin_offset_search_profile_count(self, spec_sin, monkeypatch):
        # the second-order tail bound stops the scans of a b without jumps
        # early: 59 frame profiles, where C_b / xi alone took 149 and the
        # second-order bound with 2 sup|b| in place of sup|b| + b(0) took 70
        calls = []
        profile = highfreq.suplarge_quantity

        def counted(*args, **kwargs):
            calls.append(args[1])
            return profile(*args, **kwargs)

        monkeypatch.setattr(highfreq, "suplarge_quantity", counted)
        find_threshold_N(spec_sin)
        assert len(calls) <= 65


    def test_constant_profile(self, spec_const):
        thr = find_threshold_N(spec_const, xi_points=64, t_points=32)
        # no grid outlives the search
        assert highfreq._b_profile.cache_info().currsize == highfreq._profile_ends.cache_info().currsize == 0
        assert thr.sup_value <= thr.target
        assert thr.xi_max_checked == 10.0 * thr.N
        # survives a doubled verification grid
        assert _window_sup(spec_const.constant_mass_version(), thr.N, 128, 64)[0] <= thr.target

    def test_window_scan_stops_at_first_violation(self, spec_sin, monkeypatch):
        # 130 frequencies, one value above the cut at the third; the tail bound
        # the scan uses stays above that value on the whole window, so it
        # prunes nothing
        calls = []

        def fake(spec, xi, t_points, refine=1):
            calls.append(xi)
            return 1.9 if len(calls) == 3 else 1.0

        assert _tail_bound(spec_sin.b, spec_sin.beta * spec_sin.T, 20.0) > 1.9
        monkeypatch.setattr(highfreq, "suplarge_quantity", fake)
        assert _window_sup(spec_sin, 2.0, 130, 8, stop_above=1.5) == (1.9, calls[2])
        assert len(calls) == 3
        calls.clear()
        assert _window_sup(spec_sin, 2.0, 130, 8) == (1.9, calls[2])
        assert len(calls) == 130

    def test_window_scan_stops_at_the_tail_bound(self, spec_sin, monkeypatch):
        # the scan ends before the first frequency whose bound P(xi) is no
        # larger than the maximum so far, which the third value sets
        calls = []

        def fake(spec, xi, t_points, refine=1):
            calls.append(xi)
            return 5.0 if len(calls) == 3 else 1.0

        monkeypatch.setattr(highfreq, "suplarge_quantity", fake)
        xis = np.linspace(2.0, 20.0, 130)
        bounds = np.array([_tail_bound(spec_sin.b, spec_sin.beta * spec_sin.T, float(x)) for x in xis])
        first = int(np.argmax(bounds <= 5.0))
        assert 3 < first < 130
        assert _window_sup(spec_sin, 2.0, 130, 8) == (5.0, float(xis[2]))
        assert calls == [float(x) for x in xis[:first]]

    def test_search_decisions_match_matrix_oracle(self, spec_sin, monkeypatch):
        thr = find_threshold_N(spec_sin)
        monkeypatch.setattr(highfreq, "suplarge_quantity", suplarge_matrix_oracle)
        ref = find_threshold_N(spec_sin)
        assert thr.N == ref.N
        assert [(n, ok) for n, _, ok in thr.trace] == [(n, ok) for n, _, ok in ref.trace]
        for (_, sup, _), (_, sup_ref, _) in zip(thr.trace, ref.trace):
            assert sup == pytest.approx(sup_ref, rel=1e-12, abs=0.0)

    def test_mass_independence(self, b_const):
        t1 = find_threshold_N(ModelSpec(b_const, 1.0), xi_points=64, t_points=32)
        t5 = find_threshold_N(ModelSpec(b_const, 5.0), xi_points=64, t_points=32)
        assert t1.N == t5.N

    def test_monodromy_bound_holds_above_threshold(self, spec_const):
        thr = find_threshold_N(spec_const, xi_points=64, t_points=32)
        mx, bound, ok = verify_highfreq_contraction(spec_const, thr.N, nt=16, nxi=32)
        assert ok
        assert mx <= bound + 1e-6

    @pytest.mark.parametrize("name, value", [("xi_points", 0), ("xi_points", -1), ("t_points", 0), ("t_points", -2)])
    def test_empty_search_grids_rejected(self, spec_const, name, value):
        # refused up front: an empty window would pass with sup -inf
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            find_threshold_N(spec_const, **{name: value})

    @pytest.mark.parametrize("name, value", [("nt", 0), ("nt", -1), ("nxi", 0), ("nxi", -3)])
    def test_empty_verify_grids_rejected(self, spec_const, name, value):
        grids = {"nt": 4, "nxi": 8, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            verify_highfreq_contraction(spec_const, 8.0, **grids)

    def test_search_range_exhausted(self, spec_const, monkeypatch):
        from kgdecay.errors import ThresholdSearchError

        # the windows at N = 1, 2, 4 fail and fit in 4096 points per period at
        # MAX_REFINE times the starting count; the window at N = 8 would need 6144
        base = ModelSpec(spec_const.b, 0.0)
        assert highfreq.MAX_REFINE * _points_per_period(base, 40.0, 32) == 4096
        assert highfreq.MAX_REFINE * _points_per_period(base, 80.0, 32) == 6144
        monkeypatch.setattr(highfreq, "MAX_PROFILE_POINTS", 4096)
        with pytest.raises(ThresholdSearchError):
            find_threshold_N(spec_const, xi_points=16, t_points=32)
        assert highfreq._b_profile.cache_info().currsize == highfreq._profile_ends.cache_info().currsize == 0

    @pytest.mark.parametrize("b", [
        "constant value=0.0020011",
        "square lo=0.0020008 hi=0.0020014",
        "sin_offset mean=0.0020011 amp=0.000001",
    ])
    def test_give_up_point(self, b):
        # accept levels 5e-8 above one, which no window below the cap reaches.
        # At T = 1 the window at N = 2048 reaches xi = 20480 and would need
        # more than MAX_PROFILE_POINTS at MAX_REFINE times the starting count,
        # for every b; the fixed counts gave up there too, and at N = 8192
        # where b jumps
        name, *params = b.split()
        coeff = PeriodicCoefficient.from_closed_form(name, 1.0, **{k: float(v) for k, v in (p.split("=") for p in params)})
        with pytest.raises(ThresholdSearchError, match="^no threshold found below N = 2048: "):
            find_threshold_N(ModelSpec(coeff, 1.0))

    @settings(max_examples=20, deadline=None)
    @given(b=_search_dissipations())
    def test_search_equals_the_search_at_the_refinement_cap(self, b):
        # the decisions taken at the count the margins ask for are those of
        # the whole search at MAX_REFINE times the starting count
        spec = ModelSpec(b, 0.0)
        accept = math.exp(spec.beta * spec.T / 2.0) * (1.0 - highfreq.THRESHOLD_ACCEPT_MARGIN)
        try:
            thr = find_threshold_N(spec)
        except ThresholdSearchError as exc:
            with pytest.raises(ThresholdSearchError, match=str(exc)[:20]):
                highfreq._search(spec, accept, 128, 64, highfreq.MAX_REFINE)
            return
        N, _, _, trace = highfreq._search(spec, accept, 128, 64, highfreq.MAX_REFINE)
        assert thr.N == N
        assert [(n, ok) for n, _, ok in thr.trace] == [(n, ok) for n, _, ok in trace]

    def test_unresolved_margin_doubles_the_count(self, tmp_path, monkeypatch):
        # sin_offset shifted by the phase of the perturbed benchmark's seed 1:
        # at the starting count the last rejected window's margin is within
        # REFINE_SAFETY times its sensitivity, so the search runs again at
        # twice the count, where both margins are resolved
        b = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5, phase=PHASE_SEED1)
        spec = ModelSpec(b, 1.0)
        passes = []
        search = highfreq._search

        def recorded(*args):
            passes.append(args[-1])
            return search(*args)

        monkeypatch.setattr(highfreq, "_search", recorded)
        thr = find_threshold_N(spec)
        assert passes == [1, 2] and thr.profile_refine == 2
        assert thr._margins_exceed(highfreq.REFINE_SAFETY)
        base = ModelSpec(b, 0.0)
        accept = thr.target * (1.0 - highfreq.THRESHOLD_ACCEPT_MARGIN)
        _, accepted, rejected, _ = search(base, accept, 128, 64, 1)
        change = highfreq._refinement_change(base, rejected[1], rejected[0], 64, 1)
        assert rejected[0] - accept <= highfreq.REFINE_SAFETY * change
        # the certificate records the multiple
        config = tmp_path / "run.ini"
        config.write_text(f"[model]\nT = 1.0\nb = sin_offset mean=1 amp=0.5 phase={PHASE_SEED1!r}\nm0 = 1.0\n"
                          "[run]\nstages = threshold\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "certificate.json").read_text(encoding="utf-8"))["threshold"]
        assert doc["profile_refine"] == 2 and doc["N"] == thr.N

    def test_unresolved_search_stops_at_the_cap(self):
        # 10,000 step samples of a noisy sinusoid split at the base times
        # alone, so every profile integrates across jumps: the margins stay
        # unresolved up to MAX_REFINE times the starting count, which reports
        # the N that the fixed count max(4096, 64 ceil(h T)) found, and
        # margin_resolved false as that count did
        rng = np.random.default_rng(0)
        u = np.arange(10_000) / 10_000
        b = PeriodicCoefficient.from_samples(1.0 + 0.5 * np.sin(2.0 * np.pi * u) + rng.uniform(-0.2, 0.2, u.size),
                                             1.0, order=0)
        thr = find_threshold_N(ModelSpec(b, 1.0))
        assert thr.N == 13.90625
        assert not thr.margin_resolved
        assert thr.profile_refine == highfreq.MAX_REFINE

    def test_trace_csv(self, spec_const, tmp_path):
        thr = find_threshold_N(spec_const, xi_points=32, t_points=32)
        path = tmp_path / "trace.csv"
        threshold_trace_to_csv(path, thr)
        lines = path.read_text().splitlines()
        assert lines[0] == "N_candidate,sup_value,accepted"
        assert len(lines) == 1 + len(thr.trace)
        assert lines[-1].split(",")[2] in ("0", "1")

    def test_trace_csv_matches_the_reference_writer(self, tmp_path):
        flags = [True, np.False_, np.True_, False] * 2
        trace = tuple(zip(CSV_EDGE_VALUES, CSV_EDGE_VALUES[::-1], flags))
        thr = ThresholdResult(N=1.0, sup_value=1.0, target=1.0, xi_max_checked=8.0, tail_C_b=1.0, tail_D_b=3.0,
                              tail_xi=2.0, accept_margin=0.0, accept_margin_sensitivity=0.0, reject_margin=None,
                              reject_margin_sensitivity=None, profile_refine=1, trace=trace)
        path = tmp_path / "trace.csv"
        threshold_trace_to_csv(path, thr)
        rows = [(cand, sup, int(ok)) for cand, sup, ok in trace]
        assert path.read_bytes() == reference_csv(["N_candidate", "sup_value", "accepted"], rows).encode()
