import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay import (
    ContractionCertificate,
    ModelSpec,
    PeriodicCoefficient,
    epsilon_bound,
    highfreq,
    lambert_w0,
    monodromy_grid,
    perturbation,
    perturbed_certificate,
    spectral_norm_2x2,
    verify_highfreq_contraction,
    verify_perturbed_contraction,
    verify_perturbed_highfreq,
)
from kgdecay.errors import NoContractionError
from kgdecay.monodromy import power_norms
from kgdecay.perturbation import PERTURBED_CONTRACTION_SLACK, difference_bound

from conftest import certificate, contraction_grids, propagate, svd_norm
from oracles import gronwall_difference_bound

# The (t, xi) contraction grid of the ``sin_cert`` fixture.
SIN_GRID = (32, 96)


def bisection_w(x, lo=0.0, hi=None, tol=1e-15):
    """Independent oracle: bisection on w exp(w) = x."""
    if hi is None:
        hi = max(1.0, math.log(1.0 + x) + 1.0)
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def epsilon_threshold_at(xi, cert, m0):
    """The exact per-frequency amplitude at which the budget inequality binds."""
    kT = cert.k * cert.T
    h = math.hypot(xi, m0)
    L = math.log(1.0 / cert.c1)
    return (h / kT) * lambert_w0(cert.c1 * L * math.exp(-(h + 2.0 * cert.beta) * kT))


@pytest.fixture(scope="module")
def sin_cert(spec_sin):
    return certificate(spec_sin, 8.0, *SIN_GRID)


class TestLambertW:
    def test_trivial_values(self):
        assert lambert_w0(0.0) == 0.0
        assert abs(lambert_w0(math.e) - 1.0) < 1e-14

    def test_against_bisection_oracle(self):
        assert abs(lambert_w0(1.0) - bisection_w(1.0)) < 1e-12

    def test_defining_identity_on_log_grid(self):
        for x in np.logspace(-30, 6, 100):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, x)

    def test_strictly_increasing(self):
        xs = np.logspace(-30, 6, 100)
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.1)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))


class TestEpsilonBound:
    def test_degenerate_contraction_gives_zero(self, sin_cert):
        weak = replace(sin_cert, c1=1.0 - 1e-12)
        eb = epsilon_bound(weak, 1.0)
        assert eb.epsilon_max < 1e-12

    def test_audit_passes_strictly(self, sin_cert):
        eb = epsilon_bound(sin_cert, 1.0)
        assert eb.audit_pass
        for entry in eb.audit.values():
            assert entry["log_lhs"] < entry["log_rhs"]

    def test_arithmetic_identity(self, sin_cert):
        eb = epsilon_bound(sin_cert, 1.0)
        kT = sin_cert.k * sin_cert.T
        assert eb.epsilon_max == (1.0 / kT) * lambert_w0(eb.w_argument)

    def test_monotone_decreasing_in_beta(self, sin_cert):
        # sweep beta through otherwise identical certificates
        from dataclasses import replace

        eps = []
        for beta in (0.5, 1.0, 2.0, 4.0):
            cert = replace(sin_cert, beta=beta)
            eps.append(epsilon_bound(cert, 1.0).epsilon_max)
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_binding_frequency_equality(self, sin_cert):
        # at the per-frequency threshold amplitude the inequality binds
        import dataclasses

        rng = np.random.default_rng(23)
        for _ in range(20):
            cert = dataclasses.replace(
                sin_cert,
                c1=float(rng.uniform(0.3, 0.95)),
                k=int(rng.integers(1, 6)),
                N=float(rng.uniform(2.0, 12.0)),
                beta=float(rng.uniform(0.3, 2.0)),
            )
            m0 = float(rng.uniform(0.5, 2.0))
            kT = cert.k * cert.T
            for xi in (0.0, cert.N):
                eps_star = epsilon_threshold_at(xi, cert, m0)
                h = math.hypot(xi, m0)
                ce = eps_star / h
                log_lhs = (
                    math.log(ce / (math.log(1.0 / cert.c1) / kT))
                    + ce * kT
                    + (h + 2.0 * cert.beta) * kT
                    + math.log(1.0 / cert.c1 - 1.0)
                )
                assert abs(log_lhs - math.log(1.0 - cert.c1)) < 1e-8
            # the reported bound is admissible at every frequency in [0, N]
            eb = epsilon_bound(cert, m0)
            for xi in np.linspace(0.0, cert.N, 7):
                assert eb.epsilon_max <= epsilon_threshold_at(float(xi), cert, m0) * (1 + 1e-13)

    def test_vacuous_flag_on_underflow(self, spec_sin, sin_cert):
        import dataclasses

        cert = dataclasses.replace(sin_cert, k=400, N=300.0)
        eb = epsilon_bound(cert, 1.0)
        assert eb.vacuous
        assert eb.epsilon_max == 0.0
        assert eb.audit_pass  # zero amplitude is trivially admissible


class TestGronwallBound:
    def test_zero_amplitude(self, spec_sin, sin_cert, m1_cos):
        spec0 = spec_sin
        spec_eps = ModelSpec(spec_sin.b, 1.0, 0.0, m1_cos)
        val = gronwall_difference_bound(spec_eps, spec0, sin_cert, 0.2, 1.7, 1.0)
        assert val == 0.0
        a = propagate(spec_eps, 0.2, 1.7, 1.0)
        b = propagate(spec0, 0.2, 1.7, 1.0)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_dominates_measured_difference(self, spec_sin, sin_cert, m1_cos):
        rng = np.random.default_rng(29)
        eb = epsilon_bound(sin_cert, 1.0)
        for _ in range(10):
            eps = float(rng.uniform(0.0, 1.0)) * max(eb.epsilon_max, 1e-6)
            spec_eps = ModelSpec(spec_sin.b, 1.0, eps, m1_cos)
            s = float(rng.uniform(0.0, 1.0))
            t = s + float(rng.uniform(0.1, 2.0))
            xi = float(rng.uniform(0.0, sin_cert.N))
            bound = gronwall_difference_bound(spec_eps, spec_sin, sin_cert, s, t, xi)
            a = propagate(spec_eps, s, t, xi, 1e-11)
            b = propagate(spec_sin, s, t, xi, 1e-11)
            measured = svd_norm(a - b)
            assert measured <= bound + 1e-9

    def test_monotone_in_horizon_and_amplitude(self, spec_sin, sin_cert, m1_cos):
        spec1 = ModelSpec(spec_sin.b, 1.0, 1e-4, m1_cos)
        spec2 = ModelSpec(spec_sin.b, 1.0, 2e-4, m1_cos)
        b1 = [gronwall_difference_bound(spec1, spec_sin, sin_cert, 0.0, t, 2.0) for t in (0.5, 1.0, 2.0)]
        assert b1[0] < b1[1] < b1[2]
        b2 = gronwall_difference_bound(spec2, spec_sin, sin_cert, 0.0, 1.0, 2.0)
        assert b2 > b1[1]

    def test_rejects_bad_windows(self, spec_sin, sin_cert, m1_cos):
        spec_eps = ModelSpec(spec_sin.b, 1.0, 1e-4, m1_cos)
        with pytest.raises(ValueError):
            gronwall_difference_bound(spec_eps, spec_sin, sin_cert, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            gronwall_difference_bound(spec_eps, spec_sin, sin_cert, 0.0, 1.0, 100.0)


class TestPerturbedContraction:
    def test_zero_amplitude_reproduces_c1(self, spec_sin, sin_cert, m1_cos):
        spec_eps = ModelSpec(spec_sin.b, 1.0, 0.0, m1_cos)
        ok, worst, _ = verify_perturbed_contraction(spec_eps, sin_cert, *contraction_grids(sin_cert, *SIN_GRID))
        assert ok
        assert abs(worst - sin_cert.c1) < 1e-10

    def test_half_bound_is_contractive(self, spec_sin, sin_cert, m1_cos):
        eb = epsilon_bound(sin_cert, 1.0)
        spec_eps = ModelSpec(spec_sin.b, 1.0, eb.epsilon_max / 2.0, m1_cos)
        ok, worst, _ = verify_perturbed_contraction(spec_eps, sin_cert, *contraction_grids(sin_cert, *SIN_GRID))
        assert ok
        assert worst < 1.0

    def test_huge_amplitude_reports_not_raises(self, spec_sin, sin_cert, m1_cos):
        spec_eps = ModelSpec(spec_sin.b, 2.0, 3.0, m1_cos)
        ok, worst, _ = verify_perturbed_contraction(spec_eps, sin_cert, *contraction_grids(sin_cert, *SIN_GRID))
        assert isinstance(ok, bool) and worst > 0.0

    def test_perturbed_certificate_uses_verified_worst(self, spec_sin, sin_cert, m1_cos):
        eb = epsilon_bound(sin_cert, 1.0)
        spec_eps = ModelSpec(spec_sin.b, 1.0, eb.epsilon_max, m1_cos)
        _, worst, _ = verify_perturbed_contraction(spec_eps, sin_cert, *contraction_grids(sin_cert, *SIN_GRID))
        cert_eps = perturbed_certificate(sin_cert, worst)
        assert cert_eps.c1 == worst
        assert cert_eps.k == sin_cert.k and cert_eps.N == sin_cert.N
        assert cert_eps.delta1 == math.log(1.0 / worst) / (sin_cert.k * sin_cert.T)

    def test_perturbed_certificate_raises_when_not_contractive(self, m1_cos):
        # without damping no monodromy power contracts
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.0)
        spec_eps = ModelSpec(b, 1.0, 0.5, m1_cos)
        cert = ContractionCertificate(4.0, 1, 0.99, spec_eps.beta, spec_eps.T)
        _, worst, _ = verify_perturbed_contraction(spec_eps, cert, *contraction_grids(cert, 4, 33))
        with pytest.raises(NoContractionError) as err:
            perturbed_certificate(cert, worst)
        assert err.value.worst[2] >= 1.0 - 1e-6

    def test_bound_route_when_it_decides(self, spec_sin, sin_cert, m1_cos, monkeypatch):
        # the closed-form bound c1 + expm1(k eps T / m0) decides, and nothing is swept
        def no_sweep(*args, **kwargs):
            raise AssertionError("the closed-form bound should decide")

        monkeypatch.setattr(perturbation, "monodromy_grid", no_sweep)
        spec_eps = ModelSpec(spec_sin.b, 1.0, 1e-6, m1_cos)
        ok, worst, route = verify_perturbed_contraction(spec_eps, sin_cert, *contraction_grids(sin_cert, *SIN_GRID))
        assert ok and route == "bound"
        assert worst == sin_cert.c1 + math.expm1(sin_cert.k * sin_cert.T * 1e-6 * m1_cos.sup_abs)

    def test_sweep_route_when_the_bound_cannot_decide(self, spec_sin, sin_cert, m1_cos):
        # at eps = 0.2 the bound exceeds 1 - slack: the direct rescan decides
        spec_eps = ModelSpec(spec_sin.b, 1.0, 0.2, m1_cos)
        grids = contraction_grids(sin_cert, *SIN_GRID)
        ok, worst, route = verify_perturbed_contraction(spec_eps, sin_cert, *grids)
        direct = float(np.max(power_norms(monodromy_grid(spec_eps, *grids), sin_cert.k)))
        assert worst == direct
        assert ok == (direct < 1.0 - PERTURBED_CONTRACTION_SLACK)
        assert route == "sweep"


class TestPerturbedHighfreq:
    def test_bound_route_when_it_decides(self, spec_sin, m1_cos, monkeypatch):
        # the constant-mass maximum plus expm1(eps T / sqrt(N^2 + m0^2)) clears
        # the band's limit, and nothing is swept
        def no_sweep(*args, **kwargs):
            raise AssertionError("the closed-form bound should decide")

        monkeypatch.setattr(highfreq, "monodromy_grid", no_sweep)
        spec_eps = ModelSpec(spec_sin.b, 1.0, 1e-6, m1_cos)
        ok, worst, route = verify_perturbed_highfreq(spec_eps, 14.0, 0.5)
        assert (ok, route) == (True, "bound")
        assert worst == 0.5 + math.expm1(1e-6 * m1_cos.sup_abs / math.hypot(14.0, 1.0))

    def test_sweep_route_when_the_bound_cannot_decide(self, spec_sin, m1_cos):
        # a constant-mass maximum at the limit leaves the bound no room: the
        # perturbed model is swept on the same grid
        spec_eps = ModelSpec(spec_sin.b, 1.0, 0.2, m1_cos)
        limit = math.exp(-spec_sin.beta * spec_sin.T / 2.0) + highfreq.VERIFY_SLACK
        ok, worst, route = verify_perturbed_highfreq(spec_eps, 14.0, limit, nt=4, nxi=8)
        swept, _, swept_ok = verify_highfreq_contraction(spec_eps, 14.0, nt=4, nxi=8)
        assert (ok, worst, route) == (swept_ok, swept, "sweep")

    @pytest.mark.parametrize("limit_offset", [0.0, -1.0], ids=["sweep", "bound"])
    @pytest.mark.parametrize("name, value", [("nt", 0), ("nt", -1), ("nxi", 0), ("nxi", -3)])
    def test_empty_grids_rejected(self, spec_sin, m1_cos, name, value, limit_offset):
        # refused whichever route would decide
        spec_eps = ModelSpec(spec_sin.b, 1.0, 0.2, m1_cos)
        max_norm = math.exp(-spec_sin.beta * spec_sin.T / 2.0) + highfreq.VERIFY_SLACK + limit_offset
        grids = {"nt": 4, "nxi": 8, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            verify_perturbed_highfreq(spec_eps, 14.0, max_norm, **grids)


class TestDifferenceBound:
    def test_overflowing_exponent_is_inf(self, spec_sin, m1_cos):
        spec_eps = ModelSpec(spec_sin.b, 2.0, 1.0, m1_cos)
        assert difference_bound(spec_eps, 1e4, 1.0) == math.inf
        assert difference_bound(spec_eps, 700.0, 1.0) == math.expm1(700.0 * m1_cos.sup_abs)
        assert difference_bound(spec_sin, 1e4, 1.0) == 0.0  # constant mass

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from(["sin_offset", "square"]),
        lo=st.floats(0.0, 1.0),
        hi=st.floats(0.1, 2.0),
        T=st.floats(0.5, 2.0),
        m0=st.floats(0.5, 2.0),
        log_eps=st.floats(-9.0, -2.0),
        N=st.floats(2.0, 8.0),
        k=st.integers(1, 3),
    )
    def test_dominates_the_swept_difference(self, shape, lo, hi, T, m0, log_eps, N, k):
        # the directly swept ||M_eps^k - M_0^k|| on [0, T] x [0, N] and
        # ||M_eps - M_0|| on [N, 10N] stay below the closed-form bounds; the
        # sweeps' own integration error (tol 1e-12 each) is the only slack
        if shape == "sin_offset":
            b = PeriodicCoefficient.from_closed_form(shape, T, mean=lo + hi, amp=hi)
        else:
            b = PeriodicCoefficient.from_closed_form(shape, T, lo=lo, hi=hi, duty=0.4)
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", T, mean=0.0, amp=1.0, phase=1.0)
        eps = 10.0**log_eps
        spec_0 = ModelSpec(b, m0, T=T)
        spec_eps = ModelSpec(b, m0, eps, m1, T)
        t_grid = np.linspace(0.0, T, 6)
        tol = 1e-12
        for xi_grid, span, h0, power in (
            (np.linspace(0.0, N, 10), k * T, m0, k),
            (np.linspace(N, 10.0 * N, 10), T, math.hypot(N, m0), 1),
        ):
            M_0 = np.linalg.matrix_power(monodromy_grid(spec_0, t_grid, xi_grid, tol), power)
            M_eps = np.linalg.matrix_power(monodromy_grid(spec_eps, t_grid, xi_grid, tol), power)
            swept = float(np.max(spectral_norm_2x2(M_eps - M_0)))
            assert swept <= difference_bound(spec_eps, span, h0) + 2.0 * tol
