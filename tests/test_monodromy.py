import math

import numpy as np
import pytest

from kgdecay import (
    ConstantMass,
    ModelSpec,
    PeriodicCoefficient,
    assemble_certificate,
    contraction_search,
    eigenvalues_2x2,
    monodromy_grid,
    samples_from_grid,
    scan_to_csv,
    spectral_norm_2x2,
)
from kgdecay.errors import NoContractionError
from kgdecay.monodromy import (
    CLASS_COMPLEX_PAIR,
    CLASS_REAL_PAIR,
    DEGENERATE_DISC_TOL,
    power_norms,
)

from conftest import contraction_k
from oracles import monodromy_at


def sample_at(spec, t, xi):
    """The samples-table row of M(t, xi)."""
    return samples_from_grid([t], [xi], monodromy_at(spec, t, xi)[None, None])[0]


def eigenvalue_pair(row):
    return complex(row["re_eig1"], row["im_eig1"]), complex(row["re_eig2"], row["im_eig2"])


def classify_pair(matrix):
    """Reference pair class of one matrix from its discriminant, in Python complex arithmetic."""
    tr = complex(matrix[0, 0] + matrix[1, 1])
    dt = complex(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    disc = tr * tr - 4.0 * dt
    if abs(disc) <= DEGENERATE_DISC_TOL or disc.real > 0.0:
        return CLASS_REAL_PAIR
    return CLASS_COMPLEX_PAIR


class TestMonodromyAt:
    def test_constant_coefficients_spectrum(self):
        # underdamped regime: eigenvalues exp((-b0 +/- i sqrt(h^2-b0^2)) T)
        b = PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)
        spec = ModelSpec(b, ConstantMass(1.0))
        for xi in (1.0, 3.0):
            h = math.hypot(xi, 1.0)
            s = sample_at(spec, 0.0, xi)
            w = math.sqrt(h * h - 1.0)
            expected = {np.exp(complex(-1.0, w)), np.exp(complex(-1.0, -w))}
            for g in eigenvalue_pair(s):
                assert min(abs(g - e) for e in expected) < 1e-9
            assert abs(s["rho"] - math.exp(-1.0)) < 1e-9

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
            if s["class"] == CLASS_COMPLEX_PAIR:
                assert abs(abs(e1) - eBT) < 1e-6 * eBT
                assert abs(abs(e2) - eBT) < 1e-6 * eBT
            else:
                assert s["class"] == CLASS_REAL_PAIR
                assert abs(e2 - eBT * eBT / e1) < 1e-6 * abs(e2)

    def test_base_time_window_checked(self, spec_sin):
        with pytest.raises(ValueError):
            monodromy_at(spec_sin, 1.5, 1.0)


class TestSpectralRadiusScan:
    """The rho column of the samples table."""

    def test_constant_profile_all_contractive(self, spec_const):
        xi = [0.0, 1.0, 5.0]
        rho = samples_from_grid([0.0], xi, monodromy_grid(spec_const, [0.0], xi))["rho"]
        assert np.all(rho < 1.0)
        # xi = 0 is critically damped (defective), so eigenvalues there carry
        # sqrt-of-integration-error noise; away from it the match is tight
        assert np.allclose(rho, math.exp(-1.0), rtol=1e-5)
        assert np.allclose(rho[1:], math.exp(-1.0), rtol=1e-8)

    def test_massless_rejected(self, b_const):
        # without mass the zero frequency keeps a unit eigenvalue, which blocks the search
        spec = ModelSpec(b_const, ConstantMass(0.0))
        M = monodromy_grid(spec, [0.0], [0.0, 1.0])
        assert samples_from_grid([0.0], [0.0, 1.0], M)["rho"][0] == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(NoContractionError):
            contraction_search(M)

    def test_real_pair_radius_identity(self, b_tri):
        # small mass keeps the lowest frequencies overdamped (real pairs)
        spec = ModelSpec(b_tri, ConstantMass(0.25))
        e2bt = math.exp(-2.0 * spec.beta * spec.T)
        xi = np.linspace(0.0, 4.0, 40)
        samples = samples_from_grid([0.0], xi, monodromy_grid(spec, [0.0], xi))
        real_ones = samples[samples["class"] == CLASS_REAL_PAIR]
        assert len(real_ones)
        for s in real_ones:
            e1 = max(eigenvalue_pair(s), key=abs)
            assert abs(s["rho"] - max(abs(e1), e2bt / abs(e1))) < 1e-8


class TestSamplesTable:
    def test_matches_per_matrix_reference(self, b_tri):
        # real pairs at low xi, complex pairs above, and a row of synthetic
        # matrices with a zero, a tiny and a just-too-large discriminant
        spec = ModelSpec(b_tri, ConstantMass(0.25))
        t_grid = np.array([0.0, 0.3, 0.7, 0.0])
        xi_grid = np.linspace(0.0, 4.0, 6)
        M = np.concatenate([monodromy_grid(spec, t_grid[:3], xi_grid), np.empty((1, 6, 2, 2), complex)])
        synthetic = [(0.5, 0.0), (0.5, 2e-11), (0.5, -2e-11), (0.5, -1e-9), (0.3j, 0.0), (0.0, 1.0)]
        for j, (a, c) in enumerate(synthetic):
            M[3, j] = [[a, 1.0], [c, a]]  # discriminant 4c
        table = samples_from_grid(t_grid, xi_grid, M)

        assert len(table) == M.shape[0] * M.shape[1]
        classes = []
        for row, (i, j) in zip(table, np.ndindex(M.shape[:2])):
            e1, e2 = eigenvalues_2x2(M[i, j])
            assert (row["t"], row["xi"]) == (t_grid[i], xi_grid[j])
            assert eigenvalue_pair(row) == (e1, e2)
            assert row["rho"] == max(abs(e1), abs(e2))
            assert row["norm"] == spectral_norm_2x2(M[i, j])
            assert row["class"] == classify_pair(M[i, j])
            classes.append(row["class"])
        assert classes[:6].count(CLASS_REAL_PAIR) >= 1 and CLASS_COMPLEX_PAIR in classes
        assert classes[18:] == [CLASS_REAL_PAIR] * 3 + [CLASS_COMPLEX_PAIR, CLASS_REAL_PAIR, CLASS_REAL_PAIR]


class TestMonodromyGrid:
    def test_matches_pointwise(self, spec_sin):
        t_grid = np.array([0.0, 0.25, 0.5])
        xi_grid = np.array([0.5, 2.0])
        M = monodromy_grid(spec_sin, t_grid, xi_grid)
        for i, t in enumerate(t_grid):
            for j, xi in enumerate(xi_grid):
                direct = monodromy_at(spec_sin, float(t), float(xi))
                assert np.max(np.abs(M[i, j] - direct)) < 1e-8


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
        nt, nxi = 8, 32
        M = monodromy_grid(spec_tri, np.linspace(0, 1, nt), np.linspace(0, 5.0, nxi))
        k, c1 = contraction_search(M, 64)
        rho = np.max(np.abs(eigenvalues_2x2(M)), axis=-1)
        assert np.all(power_norms(M, k) >= rho**k - 1e-12)

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
        cert = assemble_certificate(spec_const, 5.0, 1, c1)
        assert abs(cert.delta1 - beta) < 1e-12
        assert abs(cert.C - math.exp(beta * spec_const.T)) < 1e-12
        assert cert.delta0 == beta / 2.0

    def test_delta0_is_half_beta(self, spec_tri):
        cert = assemble_certificate(spec_tri, 5.0, 2, 0.5)
        assert cert.delta0 == spec_tri.beta / 2.0

    def test_consistency_to_machine_precision(self, spec_sin):
        cert = assemble_certificate(spec_sin, 7.0, 3, 0.73)
        assert cert.delta1 == math.log(1.0 / cert.c1) / (cert.k * cert.T)
        assert cert.C == math.exp(cert.delta1 * cert.k * cert.T)

    def test_pipeline_determinism(self, spec_sin):
        runs = []
        for _ in range(2):
            k, c1 = contraction_k(spec_sin, N=6.0, nt=16, nxi=48)
            cert = assemble_certificate(spec_sin, 6.0, k, c1)
            runs.append((cert.N, cert.k, cert.c1, cert.delta0, cert.delta1, cert.C))
        assert runs[0] == runs[1]

    def test_invalid_inputs(self, spec_const):
        with pytest.raises(ValueError):
            assemble_certificate(spec_const, 5.0, 1, 1.0)
        with pytest.raises(ValueError):
            assemble_certificate(spec_const, 5.0, 0, 0.5)


class TestScanExport:
    def test_csv_columns_and_rows(self, spec_const, tmp_path):
        t_grid, xi_grid = [0.0, 0.5], [0.0, 1.0, 2.0]
        samples = samples_from_grid(t_grid, xi_grid, monodromy_grid(spec_const, t_grid, xi_grid))
        path = tmp_path / "scan.csv"
        scan_to_csv(path, samples)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,xi,re_eig1,im_eig1,re_eig2,im_eig2,rho,norm,class"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert len(first) == 9
        assert first[-1] in ("ComplexConjugatePair", "RealPair")
