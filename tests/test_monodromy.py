import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay import (
    ContractionCertificate,
    ModelSpec,
    PeriodicCoefficient,
    contraction_search,
    det2,
    eigenvalues_2x2,
    monodromy,
    monodromy_grid,
    propagate_grid,
    samples_from_grid,
    scan_to_csv,
    spectral_norm_2x2,
)
from kgdecay.certify import DecayReport, decay_to_csv
from kgdecay.errors import IntegrationFailureError, NoContractionError
from kgdecay.highfreq import ThresholdResult, threshold_trace_to_csv
from kgdecay.monodromy import DEGENERATE_DISC_TOL, MonodromyScan, power_norms

from conftest import CSV_EDGE_VALUES, complex_form, contraction_k, strongly_damped, svd_norm
from oracles import monodromy_at, reference_csv, scalar_monodromy, small_mass_rate


# Values a column draws from, so that most rows repeat values: the edge
# values, +0.0 beside their -0.0, and NaNs of either sign and several payloads.
CSV_POOL = np.concatenate([
    CSV_EDGE_VALUES,
    [0.0],
    np.array([0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF0000000000123],
             dtype=np.uint64).view(float),
])


SCAN_HEADER = ("xi", "re_eig1", "im_eig1", "re_eig2", "im_eig2", "rho", "real_pair", "t", "norm")


def sample_at(spec, t, xi):
    """The scan of the one matrix M(t, xi) = E(t + T, t, xi), propagated directly, in the real form."""
    return samples_from_grid([t], [xi], propagate_grid(spec, t, t + spec.T, [abs(xi)])[0][None])


def eigenvalue_pair(scan, j=0):
    return tuple(scan.eig[j].tolist())


def scan_rows(scan):
    """The rows of a scan as the CSV holds them, one per xi: the spectrum, the class as 1 or 0,
    then the base time and value of the largest norm down t, the first t on a tie and the
    first NaN if there is one."""
    rows = []
    for j in range(scan.xi.size):
        col = scan.norm[:, j].tolist()
        nans = [i for i, v in enumerate(col) if math.isnan(v)]
        i = nans[0] if nans else col.index(max(col))
        e1, e2 = eigenvalue_pair(scan, j)
        rows.append((scan.xi[j].item(), e1.real, e1.imag, e2.real, e2.imag, scan.rho[j].item(),
                     int(scan.real_pair[j]), scan.t[i].item(), col[i]))
    return rows


def assert_npz_round_trip(path, scan):
    """Save a scan's fields as the CLI does and load them back: every field equal bit for bit."""
    fields = vars(scan)
    np.savez(path, **fields)
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == list(fields)
        for name, want in fields.items():
            got = npz[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def pool_scan(rng, pool, nt, nxi):
    """A scan of nt x nxi rows whose every float is drawn from ``pool`` and every class at random."""
    def draw(*shape):
        return pool[rng.integers(0, pool.size, shape)]
    return MonodromyScan(draw(nt), draw(nxi), draw(nxi, 4).view(complex), draw(nxi), rng.random(nxi) < 0.5,
                         draw(nt, nxi))


def is_real_pair(matrix):
    """Reference pair class of one matrix from its discriminant, in Python complex arithmetic."""
    tr = complex(matrix[0, 0] + matrix[1, 1])
    dt = complex(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    disc = tr * tr - 4.0 * dt
    return abs(disc) <= DEGENERATE_DISC_TOL or disc.real > 0.0


class TestMonodromyAt:
    def test_constant_coefficients_spectrum(self):
        # underdamped regime: eigenvalues exp((-b0 +/- i sqrt(h^2-b0^2)) T)
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        spec = ModelSpec(b, 1.0)
        for xi in (1.0, 3.0):
            h = math.hypot(xi, 1.0)
            s = sample_at(spec, 0.0, xi)
            w = math.sqrt(h * h - 1.0)
            expected = {np.exp(complex(-1.0, w)), np.exp(complex(-1.0, -w))}
            for g in eigenvalue_pair(s):
                assert min(abs(g - e) for e in expected) < 1e-9
            assert abs(s.rho[0] - math.exp(-1.0)) < 1e-9

    def test_determinant_identity_random_points(self, spec_sin):
        rng = np.random.default_rng(14)
        target = math.exp(-2.0 * spec_sin.beta * spec_sin.T)
        for _ in range(20):
            M = monodromy_at(spec_sin, rng.uniform(0, 1), rng.uniform(0, 10))
            d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            assert abs(d - target) < 1e-8 * target

    def test_spectrum_independent_of_base_time(self, spec_tri):
        def pair_err(p, q):
            straight = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
            crossed = max(abs(p[0] - q[1]), abs(p[1] - q[0]))
            return min(straight, crossed)

        rng = np.random.default_rng(15)
        for xi in (0.4, 2.2, 6.0):
            ref = eigenvalues_2x2(monodromy_at(spec_tri, 0.0, xi))
            for t in rng.uniform(0.0, 1.0, 4):
                got = eigenvalues_2x2(monodromy_at(spec_tri, float(t), xi))
                assert pair_err(ref, got) < 1e-7

    def test_similarity_route_matches_direct(self, spec_sin):
        base = monodromy_at(spec_sin, 0.0, 3.0)
        via_similarity = monodromy_at(spec_sin, 0.45, 3.0, base=base)
        direct = monodromy_at(spec_sin, 0.45, 3.0)
        assert np.max(np.abs(via_similarity - direct)) < 1e-8

    def test_classification_invariants(self, spec_sin):
        rng = np.random.default_rng(16)
        eBT = math.exp(-spec_sin.beta * spec_sin.T)
        for _ in range(30):
            s = sample_at(spec_sin, rng.uniform(0, 1), rng.uniform(0, 8))
            e1, e2 = eigenvalue_pair(s)
            if not s.real_pair[0]:
                assert abs(abs(e1) - eBT) < 1e-6 * eBT
                assert abs(abs(e2) - eBT) < 1e-6 * eBT
            else:
                assert abs(e2 - eBT * eBT / e1) < 1e-6 * abs(e2)

    def test_base_time_window_checked(self, spec_sin):
        with pytest.raises(ValueError):
            monodromy_at(spec_sin, 1.5, 1.0)


# ROADMAP item 1: the integrated system drops the h'/h term of a time-dependent
# mass, an O(epsilon) error that the scalar equation exposes.
MASS_TERM_MISSING = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the perturbed-mass system is not the Klein-Gordon equation"
)


class TestScalarEquation:
    @pytest.mark.parametrize("xi", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize(
        "eps",
        [0.0, 5e-9, pytest.param(0.5, marks=MASS_TERM_MISSING), pytest.param(0.9, marks=MASS_TERM_MISSING)],
    )
    def test_invariants_match_the_scalar_equation(self, b_sin, eps, xi):
        # trace and determinant, not sorted eigenvalues: np.sort_complex orders a
        # conjugate pair whose real parts differ in the last bit either way
        m1 = PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0)
        spec = ModelSpec(b_sin, 1.0, eps, m1)
        got = monodromy_grid(spec, [0.0], [xi], 1e-12)[0, 0]
        ref = scalar_monodromy(spec, xi)
        assert abs(np.trace(got) - np.trace(ref)) < 1e-9
        assert abs(det2(got) - det2(ref)) < 1e-9


class TestSpectralRadiusScan:
    """The rho field of the scan."""

    def test_constant_profile_all_contractive(self, spec_const):
        xi = [0.0, 1.0, 5.0]
        rho = samples_from_grid([0.0], xi, monodromy_grid(spec_const, [0.0], xi)).rho
        assert np.all(rho < 1.0)
        # xi = 0 is critically damped (defective), so eigenvalues there carry
        # sqrt-of-integration-error noise; away from it the match is tight
        assert np.allclose(rho, math.exp(-1.0), rtol=1e-5)
        assert np.allclose(rho[1:], math.exp(-1.0), rtol=1e-8)

    def test_massless_rejected(self, b_const):
        # without mass the zero frequency keeps a unit eigenvalue, which blocks the search
        spec = ModelSpec(b_const, 0.0)
        M = monodromy_grid(spec, [0.0], [0.0, 1.0])
        scan = samples_from_grid([0.0], [0.0, 1.0], M)
        assert scan.rho[0] == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(NoContractionError):
            contraction_search(M, scan)

    def test_real_pair_radius_identity(self, b_tri):
        # small mass keeps the lowest frequencies overdamped (real pairs)
        spec = ModelSpec(b_tri, 0.25)
        e2bt = math.exp(-2.0 * spec.beta * spec.T)
        xi = np.linspace(0.0, 4.0, 40)
        scan = samples_from_grid([0.0], xi, monodromy_grid(spec, [0.0], xi))
        assert scan.real_pair.any()
        for j in np.flatnonzero(scan.real_pair):
            e1 = max(eigenvalue_pair(scan, j), key=abs)
            assert abs(scan.rho[j] - max(abs(e1), e2bt / abs(e1))) < 1e-8


class TestSmallMassLaw:
    """The slow real multiplier near 1 at xi = 0: its rate is r m0^2 + O(m0^4)."""

    def test_oracle_of_a_constant_b(self):
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=0.8)
        assert small_mass_rate(b) == pytest.approx(1.0 / 1.6, rel=1e-10)

    @pytest.mark.parametrize("b", [
        PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5),
        PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0),
        PeriodicCoefficient.from_closed_form("triangle", 1.5, lo=0.2, hi=1.0),
    ], ids=["sin_offset", "square", "triangle"])
    def test_rate_matches_the_small_mass_law(self, b):
        # the relative gap is about 0.25 m0^2 (sin_offset) and 0.71 m0^2
        # (square, triangle): it falls with m0^2, and a 1 % change in the mass
        # term would be 4 to 25 times the tolerance
        r = small_mass_rate(b)
        for m0 in (0.05, 0.02):
            M = monodromy_grid(ModelSpec(b, m0), [0.0], [0.0])
            rho = float(np.max(np.abs(eigenvalues_2x2(M[0, 0]))))
            rate = -math.log(rho) / (b.period * m0 * m0)
            assert rate == pytest.approx(r, rel=m0 * m0, abs=0.0), m0


def with_edge_columns(M, synthetic):
    """M with one more column per (a, c): [[a, 1], [c, a]], of discriminant 4c, in
    the first t row, and in each later row i that matrix conjugated by the shear
    [[1, i/2], [0, 1]], as M(t) is conjugate to M(0)."""
    first = np.array([[[a, 1.0], [c, a]] for a, c in synthetic])
    rows = [first]
    for i in range(1, M.shape[0]):
        shear = np.array([[1.0, i / 2], [0.0, 1.0]])
        rows.append(shear @ first @ np.linalg.inv(shear))
    return np.concatenate([M, np.array(rows)], axis=1)


class TestSamplesTable:
    def test_matches_per_matrix_reference(self, b_tri):
        # real pairs at low xi, complex pairs above, and first-row synthetic
        # matrices with a zero, a tiny and a just-too-large discriminant
        spec = ModelSpec(b_tri, 0.25)
        t_grid = np.array([0.0, 0.3, 0.7, 0.0])
        xi_grid = np.linspace(0.0, 8.8, 12)
        synthetic = [(0.5, 0.0), (0.5, 2e-11), (0.5, -2e-11), (0.5, -1e-9), (-0.3, 0.0), (0.0, 1.0)]
        M = with_edge_columns(monodromy_grid(spec, t_grid, xi_grid[:6]), synthetic)
        scan = samples_from_grid(t_grid, xi_grid, M)

        assert len(scan) == M.shape[0] * M.shape[1]
        assert scan.t.tolist() == t_grid.tolist() and scan.xi.tolist() == xi_grid.tolist()
        assert (scan.eig.shape, scan.rho.shape, scan.real_pair.shape, scan.norm.shape) == (
            (12, 2), (12,), (12,), (4, 12))
        for i, j in np.ndindex(M.shape[:2]):
            assert scan.norm[i, j] == spectral_norm_2x2(M[i, j])
        for j in range(M.shape[1]):
            e1, e2 = eigenvalues_2x2(M[0, j])
            assert eigenvalue_pair(scan, j) == (e1, e2)
            assert scan.rho[j] == max(abs(e1), abs(e2))
            assert scan.real_pair[j] == is_real_pair(M[0, j])
        assert scan.real_pair[:6].any() and not scan.real_pair[:6].all()
        assert scan.real_pair[6:].tolist() == [True, True, True, False, True, True]


class TestRealFormInvariance:
    """Every quantity taken from a grid of real forms R matches numpy's own routines on E = S R S^-1."""

    @pytest.fixture(scope="class")
    def grid(self, b_tri):
        # real pairs at low xi and complex pairs above, then columns of real
        # matrices with zero, tiny and just-too-large discriminants
        spec = ModelSpec(b_tri, 0.25)
        t_grid, xi_grid = np.array([0.0, 0.3, 0.7, 1.0]), np.linspace(0.0, 8.8, 12)
        synthetic = [(0.5, 0.0), (0.5, 2e-11), (0.5, -2e-11), (0.5, -1e-9), (-0.5, 0.0), (0.5, 1e-3)]
        return t_grid, xi_grid, with_edge_columns(monodromy_grid(spec, t_grid, xi_grid[:6]), synthetic)

    def test_samples_table_matches_the_complex_form(self, grid):
        # norms by numpy's SVD and spectra by np.linalg.eigvals of E, which
        # share no code with the closed forms the table takes of R.  A pair is
        # compared by its sum and product: the near-double roots of the
        # synthetic columns (gap 2e-5 rho) move by 4e-13 rho between any two
        # routes, while the pair's invariants agree to rounding.
        t_grid, xi_grid, M = grid
        E = complex_form(M)
        scan = samples_from_grid(t_grid, xi_grid, M)
        pairs = scan.real_pair
        assert pairs[:6].any() and not pairs[:6].all()
        assert pairs[6:].tolist() == [True, True, True, False, True, True]
        assert pairs.tolist() == [is_real_pair(E[0, j]) for j in range(E.shape[1])]
        np.testing.assert_allclose(scan.norm, svd_norm(E), rtol=1e-13, atol=0.0)
        for j, (r1, r2) in enumerate(np.linalg.eigvals(E[0])):
            g1, g2 = eigenvalue_pair(scan, j)
            assert abs((g1 + g2) - (r1 + r2)) <= 1e-13 * scan.rho[j]
            assert abs(g1 * g2 - r1 * r2) <= 1e-13 * scan.rho[j] ** 2
            assert scan.rho[j] == max(abs(g1), abs(g2))

    def test_contraction_and_power_norms_agree(self, grid):
        t_grid, xi_grid, M = grid
        E = complex_form(M)
        sups = [float(np.max(svd_norm(np.linalg.matrix_power(E, k)))) for k in range(1, 65)]
        k, c1 = contraction_search(M, samples_from_grid(t_grid, xi_grid, M), 64, 1e-3)
        assert k == 1 + next(i for i, s in enumerate(sups) if s <= 1.0 - 1e-3)
        assert c1 == pytest.approx(sups[k - 1], rel=1e-13, abs=0.0)
        for k in range(1, 6):
            np.testing.assert_allclose(power_norms(M, k), svd_norm(np.linalg.matrix_power(E, k)), rtol=1e-13, atol=0.0)


class TestMonodromyGrid:
    def test_matches_pointwise(self, spec_sin):
        t_grid = np.array([0.0, 0.25, 0.5])
        xi_grid = np.array([0.5, 2.0])
        M = complex_form(monodromy_grid(spec_sin, t_grid, xi_grid))
        for i, t in enumerate(t_grid):
            for j, xi in enumerate(xi_grid):
                direct = monodromy_at(spec_sin, float(t), float(xi))
                assert np.max(np.abs(M[i, j] - direct)) < 1e-8

    @pytest.mark.parametrize("beta", [15.0, 17.0, 20.0])
    def test_strong_damping_matches_direct(self, beta):
        # det E(t, 0) is near e^{-2 beta t}; composing segments needs no inverse
        # of it, so the grid keeps the accuracy of a direct E(t + T, t)
        spec = strongly_damped(beta)
        t_grid = np.linspace(0.0, 1.0, 8)
        xi_grid = np.linspace(0.0, 14.0, 8)
        M = complex_form(monodromy_grid(spec, t_grid, xi_grid))
        for i, t in enumerate(t_grid):
            for j, xi in enumerate(xi_grid):
                assert np.max(np.abs(M[i, j] - monodromy_at(spec, float(t), float(xi)))) < 1e-10

    def test_drift_guard_raises_on_a_broken_segment(self, spec_sin, monkeypatch):
        real = monodromy.propagate_grid

        def broken(*args, **kwargs):
            Y_end, segments, res = real(*args, **kwargs)
            segments[1, 0, 0, 0] = np.nan
            return Y_end, segments, res

        monkeypatch.setattr(monodromy, "propagate_grid", broken)
        with pytest.raises(IntegrationFailureError, match="drift") as info:
            monodromy_grid(spec_sin, np.array([0.0, 0.25, 0.5]), np.array([0.5, 2.0]))
        assert info.value.t_fail in (0.0, 0.25, 0.5)

    @pytest.mark.parametrize("nt", [7, 11, 21])
    def test_base_times_within_the_step_floor_of_a_jump(self, nt):
        # a base time or a step end of these grids lands within the step floor
        # of the jump at 0.3 (for nt = 11 and 21, 3/10 is one ulp from 0.3)
        b = PeriodicCoefficient.from_closed_form("square", 1.0, lo=0.2, hi=1.0, duty=0.3)
        spec = ModelSpec(b, 1.0)
        t_grid = np.linspace(0.0, 1.0, nt)
        xi_grid = np.array([0.0, 0.5, 3.0, 9.0])
        M = complex_form(monodromy_grid(spec, t_grid, xi_grid))
        for i, t in enumerate(t_grid):
            for j, xi in enumerate(xi_grid):
                assert np.max(np.abs(M[i, j] - monodromy_at(spec, float(t), float(xi)))) < 1e-12

    def test_one_sweep_equals_its_halves(self, spec_sin):
        # all frequencies of a sweep share one step sequence, set by the
        # hardest of them; each matrix is accurate whatever the batch holds
        t_grid = np.linspace(0.0, 1.0, 16)
        xi_grid = np.linspace(0.0, 60.0, 128)
        whole = monodromy_grid(spec_sin, t_grid, xi_grid)
        halves = [monodromy_grid(spec_sin, t_grid, part) for part in (xi_grid[:64], xi_grid[64:])]
        assert np.max(np.abs(whole - np.concatenate(halves, axis=1))) < 1e-10

    def test_unsorted_repeated_base_times(self, spec_sin):
        t_grid = np.array([0.5, 0.0, 1.0, 0.25, 0.5, 0.75, 0.0])
        xi_grid = np.array([0.5, 2.0, 6.0])
        M = monodromy_grid(spec_sin, t_grid, xi_grid)
        ordered = np.unique(t_grid)
        M_sorted = monodromy_grid(spec_sin, ordered, xi_grid)
        for i, t in enumerate(t_grid):
            assert np.array_equal(M[i], M_sorted[np.searchsorted(ordered, t)])


class TestContractionSearch:
    def test_k_is_one_when_already_contractive(self, spec_const):
        k, c1 = contraction_k(spec_const, N=6.0, nt=16, nxi=64)
        assert k == 1
        assert 0.0 < c1 < 0.999

    def test_repowering_oracle(self, spec_sin):
        nt, nxi = 16, 48
        k, c1 = contraction_k(spec_sin, N=8.0, nt=nt, nxi=nxi)
        M = monodromy_grid(spec_sin, np.linspace(0, 1, nt), np.linspace(0, 8.0, nxi))
        # independent direct powering via binary matrix power per grid point
        worst = 0.0
        for i in range(nt):
            for j in range(nxi):
                P = np.linalg.matrix_power(M[i, j], k)
                worst = max(worst, spectral_norm_2x2(P))
        assert abs(worst - c1) < 1e-10

    def test_submultiplicativity_at_double_power(self, spec_sin):
        nt, nxi = 16, 48
        k, c1 = contraction_k(spec_sin, N=8.0, nt=nt, nxi=nxi)
        M = monodromy_grid(spec_sin, np.linspace(0, 1, nt), np.linspace(0, 8.0, nxi))
        n2k = power_norms(M, 2 * k)
        rng = np.random.default_rng(17)
        flat = n2k.ravel()
        for idx in rng.integers(0, flat.size, 20):
            assert flat[idx] <= c1 * c1 + 1e-9

    def test_norm_dominates_spectral_radius_powers(self, spec_tri):
        t_grid, xi_grid = np.linspace(0, 1, 8), np.linspace(0, 5.0, 32)
        M = monodromy_grid(spec_tri, t_grid, xi_grid)
        k, c1 = contraction_search(M, samples_from_grid(t_grid, xi_grid, M), 64)
        rho = np.max(np.abs(eigenvalues_2x2(M)), axis=-1)
        assert np.all(power_norms(M, k) >= rho**k - 1e-12)

    def test_blocker_radius_is_the_samples_table_radius(self):
        # scaled rotations with eigenvalues r e^{+-i theta}, r within 1e-10 of
        # one: the blocker reports the scan's largest radius, at the scan's own
        # first base time and at the frequency that holds it
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.0, np.pi, (16, 16))
        r = 1.0 + rng.uniform(-1e-10, 1e-10, theta.shape)
        c, s = r * np.cos(theta), r * np.sin(theta)
        M = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        scan = samples_from_grid(0.25 + np.arange(16.0) / 64.0, np.linspace(3.0, 9.0, 16), M)
        with pytest.raises(NoContractionError) as err:
            contraction_search(M, scan, 4, 1e-3)
        ix = int(np.argmax(scan.rho))
        assert err.value.worst == (0.25, scan.xi[ix], np.max(scan.rho))

    def test_powers_below_one_are_refused(self, spec_sin):
        M = monodromy_grid(spec_sin, [0.0, 0.5], [0.5, 2.0])
        scan = samples_from_grid([0.0, 0.5], [0.5, 2.0], M)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k_max must be >= 1"):
                contraction_search(M, scan, k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                power_norms(M, k)
        np.testing.assert_array_equal(power_norms(M, 1), spectral_norm_2x2(M))

    def test_exhausted_power_budget_reports_worst(self, spec_sin):
        with pytest.raises(NoContractionError) as err:
            # an artificially deep margin cannot be met within two powers
            contraction_k(spec_sin, N=6.0, k_max=2, nt=8, nxi=24, margin=0.7)
        t_bad, xi_bad, worst = err.value.worst
        assert 0.0 <= t_bad <= 1.0 and 0.0 <= xi_bad <= 6.0 and worst > 0.3

    def test_grid_refinement_stability(self, spec_sin):
        k1, c1a = contraction_k(spec_sin, N=8.0, nt=32, nxi=96)
        k2, c1b = contraction_k(spec_sin, N=8.0, nt=64, nxi=192)
        assert k1 == k2
        assert abs(c1a - c1b) < 1e-3


class TestCertificate:
    def test_arithmetic_trivials(self, spec_const):
        beta = spec_const.beta
        c1 = math.exp(-beta * spec_const.T)
        cert = ContractionCertificate(5.0, 1, c1, beta, spec_const.T)
        assert abs(cert.delta1 - beta) < 1e-12
        assert abs(cert.C - math.exp(beta * spec_const.T)) < 1e-12
        assert cert.delta0 == beta / 2.0

    def test_delta0_is_half_beta(self, spec_tri):
        cert = ContractionCertificate(5.0, 2, 0.5, spec_tri.beta, spec_tri.T)
        assert cert.delta0 == spec_tri.beta / 2.0

    def test_consistency_to_machine_precision(self, spec_sin):
        cert = ContractionCertificate(7.0, 3, 0.73, spec_sin.beta, spec_sin.T)
        assert cert.delta1 == math.log(1.0 / cert.c1) / (cert.k * cert.T)
        assert cert.C == math.exp(cert.delta1 * cert.k * cert.T)

    def test_pipeline_determinism(self, spec_sin):
        runs = []
        for _ in range(2):
            k, c1 = contraction_k(spec_sin, N=6.0, nt=16, nxi=48)
            cert = ContractionCertificate(6.0, k, c1, spec_sin.beta, spec_sin.T)
            runs.append((cert.N, cert.k, cert.c1, cert.delta0, cert.delta1, cert.C))
        assert runs[0] == runs[1]

    def test_invalid_inputs(self, spec_const):
        beta, T = spec_const.beta, spec_const.T
        with pytest.raises(ValueError):
            ContractionCertificate(5.0, 1, 1.0, beta, T)
        with pytest.raises(ValueError):
            ContractionCertificate(5.0, 0, 0.5, beta, T)
        cert = ContractionCertificate(5.0, 1, 0.5, beta, T)
        with pytest.raises(ValueError, match="c1 must lie in"):
            replace(cert, c1=0.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            replace(cert, k=0)

    def test_replaced_fields_rederive_the_constants(self, spec_sin):
        # delta0, delta1 and C are functions of (beta, k, c1, T), so a
        # certificate rebuilt with other fields cannot keep stale constants
        cert = ContractionCertificate(7.0, 3, 0.73, spec_sin.beta, spec_sin.T)
        halved = replace(cert, c1=0.5, k=2)
        assert halved.delta1 == math.log(2.0) / (2.0 * cert.T)
        assert halved.C == math.exp(halved.delta1 * 2 * cert.T)
        assert replace(cert, beta=0.3).delta0 == 0.15


class TestScanExport:
    """A scan goes out twice: every field to monodromy_scan.npz by ``np.savez``,
    and one row per xi to monodromy_scan.csv by :func:`scan_to_csv`."""

    def test_csv_columns_and_rows(self, spec_const, tmp_path):
        t_grid, xi_grid = [0.0, 0.5], [0.0, 1.0, 2.0]
        scan = samples_from_grid(t_grid, xi_grid, monodromy_grid(spec_const, t_grid, xi_grid))
        path = tmp_path / "scan.csv"
        scan_to_csv(path, scan)
        lines = path.read_text().splitlines()
        assert lines[0] == "xi,re_eig1,im_eig1,re_eig2,im_eig2,rho,real_pair,t,norm"
        assert len(lines) == 1 + 3
        for line, real_pair in zip(lines[1:], scan.real_pair.tolist()):
            cells = line.split(",")
            assert len(cells) == 9
            assert cells[6] == ("1" if real_pair else "0")

    def test_csv_matches_the_reference_writer(self, tmp_path):
        # every edge value in every field, at every t and every xi
        edges = np.array(CSV_EDGE_VALUES)
        n = edges.size
        parts = [np.roll(edges, k) for k in range(1, 7)]
        eig = np.stack(parts[1:5], axis=-1).view(complex)
        norm = np.array([np.roll(edges, 7 + i) for i in range(n)])
        scan = MonodromyScan(edges, parts[0], eig, parts[5], np.arange(n) % 2 == 0, norm)
        path = tmp_path / "scan.csv"
        scan_to_csv(path, scan)
        assert path.read_bytes() == reference_csv(SCAN_HEADER, scan_rows(scan)).encode()
        assert_npz_round_trip(tmp_path / "scan.npz", scan)

    @settings(max_examples=24, deadline=None)
    @given(rows=st.sampled_from([0, 1, 4095, 4096, 4097, 8195]), seed=st.integers(0, 2**32 - 1))
    def test_writers_match_the_reference_on_repeated_values(self, tmp_path_factory, rows, seed):
        rng = np.random.default_rng(seed)
        cols = CSV_POOL[rng.integers(0, CSV_POOL.size, (3, rows))]
        # the last column mostly distinct, like the norm column of a scan
        cols[-1] = np.where(rng.random(rows) < 0.3, cols[-1], rng.random(rows))
        tmp = tmp_path_factory.mktemp("csv")
        path = tmp / "out.csv"

        scan = pool_scan(rng, CSV_POOL, 1, rows)
        scan_to_csv(path, scan)
        assert path.read_bytes() == reference_csv(SCAN_HEADER, scan_rows(scan)).encode()
        assert_npz_round_trip(tmp / "scan.npz", scan)

        trace = tuple(zip(cols[0].tolist(), cols[1].tolist(), (rng.random(rows) < 0.5).tolist()))
        thr = ThresholdResult(N=1.0, sup_value=1.0, target=1.0, xi_max_checked=8.0, tail_C_b=1.0, tail_D_b=3.0,
                              tail_xi=2.0, accept_margin=0.0, accept_margin_sensitivity=0.0, reject_margin=None,
                              reject_margin_sensitivity=None, profile_refine=1, trace=trace)
        threshold_trace_to_csv(path, thr)
        rows_out = [(cand, sup, int(ok)) for cand, sup, ok in trace]
        assert path.read_bytes() == reference_csv(["N_candidate", "sup_value", "accepted"], rows_out).encode()

        rep = DecayReport(time_grid=cols[0], sup_norm_curve=cols[1], bound_curve=cols[-1], certified_rate=0.1,
                          certified_prefactor=1.0, fitted_rate=0.1, fit_residual=0.0, burn_in=0.0, verdict="Pass")
        decay_to_csv(path, rep)
        assert path.read_bytes() == reference_csv(["t", "sup_norm", "bound"], zip(*cols.tolist())).encode()

    @settings(max_examples=24, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (1, 6), (6, 1), (3, 5), (2, 4097), (4097, 2)]),
           seed=st.integers(0, 2**32 - 1))
    def test_grid_writer_matches_the_reference(self, tmp_path_factory, shape, seed):
        # every float from the pool of edge values, NaN payloads and -0.0, so
        # that the largest norm down a long t column is mostly tied or NaN
        scan = pool_scan(np.random.default_rng(seed), CSV_POOL, *shape)
        tmp = tmp_path_factory.mktemp("csv")
        scan_to_csv(tmp / "scan.csv", scan)
        assert (tmp / "scan.csv").read_bytes() == reference_csv(SCAN_HEADER, scan_rows(scan)).encode()
        assert_npz_round_trip(tmp / "scan.npz", scan)

    def test_real_scan_spectrum_is_constant_down_t(self, spec_sin, tmp_path):
        # 64 x 256: each xi's spectrum is taken at the first t; the spectrum
        # of every later matrix differs from it by rounding alone
        t_grid, xi_grid = np.linspace(0.0, 1.0, 64), np.linspace(0.0, 14.0, 256)
        M = monodromy_grid(spec_sin, t_grid, xi_grid)
        scan = samples_from_grid(t_grid, xi_grid, M)
        ev = eigenvalues_2x2(M)
        per_matrix = {"re_eig": (scan.eig.real, ev.real), "im_eig": (scan.eig.imag, ev.imag),
                      "rho": (scan.rho, np.max(np.abs(ev), axis=-1))}
        for name, (got, ref) in per_matrix.items():
            assert np.max(np.abs(got - ref)) <= 1e-13, name
        assert scan.real_pair.tolist() * t_grid.size == [is_real_pair(m) for m in M.reshape(-1, 2, 2)]
        path = tmp_path / "scan.csv"
        scan_to_csv(path, scan)
        assert path.read_bytes() == reference_csv(SCAN_HEADER, scan_rows(scan)).encode()
        assert_npz_round_trip(tmp_path / "scan.npz", scan)

    @pytest.mark.slow
    @pytest.mark.parametrize("table", ["scan", "distinct"])
    def test_writer_memory_stays_near_the_table(self, spec_sin, tmp_path, table):
        # 65,536 matrices: a 64 x 1,024 scan, or one with every float random.
        # np.savez copies one field at a time, and the table holds the text of
        # 1,024 rows, so writing both stays below the record's own bytes.
        t_grid, xi_grid = np.linspace(0.0, 1.0, 64), np.linspace(0.0, 8.0, 1024)
        scan = samples_from_grid(t_grid, xi_grid, monodromy_grid(spec_sin, t_grid, xi_grid))
        if table == "distinct":
            rng = np.random.default_rng(0)
            scan = MonodromyScan(rng.random(64), rng.random(1024), rng.random((1024, 4)).view(complex),
                                 rng.random(1024), scan.real_pair, rng.random((64, 1024)))
        tracemalloc.start()
        try:
            np.savez(tmp_path / "scan.npz", **vars(scan))
            scan_to_csv(tmp_path / "scan.csv", scan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scan) == 65_536
        assert peak <= sum(field.nbytes for field in vars(scan).values())
