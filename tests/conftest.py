import cmath

import numpy as np
import pytest

from kgdecay import (
    ContractionCertificate,
    ModelSpec,
    PeriodicCoefficient,
    contraction_search,
    monodromy_grid,
    propagate_grid,
    samples_from_grid,
)
from kgdecay.propagator import DEFAULT_TOL

# Floats the artifact writers must format exactly as the reference CSV writer.
CSV_EDGE_VALUES = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0]


def triangle_samples(n=1024, lo=0.2, hi=1.0):
    u = np.arange(n) / n
    return lo + (hi - lo) * (1.0 - np.abs(2.0 * u - 1.0))


@pytest.fixture(scope="session")
def b_const():
    return PeriodicCoefficient.from_closed_form("constant", 1.0, value=1.0)


@pytest.fixture(scope="session")
def b_sin():
    return PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=1.0, amp=0.5)


@pytest.fixture(scope="session")
def b_tri():
    return PeriodicCoefficient.from_samples(triangle_samples(), 1.0, order=1)


@pytest.fixture(scope="session")
def profiles(b_const, b_sin, b_tri):
    """The three standard dissipation profiles, all with T = 1."""
    return {"const": b_const, "sin": b_sin, "tri": b_tri}


@pytest.fixture(scope="session")
def spec_const(b_const):
    return ModelSpec(b_const, 1.0)


@pytest.fixture(scope="session")
def spec_sin(b_sin):
    return ModelSpec(b_sin, 1.0)


@pytest.fixture(scope="session")
def spec_tri(b_tri):
    return ModelSpec(b_tri, 1.0)


@pytest.fixture(scope="session")
def m1_cos():
    return PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=0.0, amp=1.0, phase=np.pi / 2)


def strongly_damped(beta):
    """b = beta (1 + sin(2 pi t) / 2), m0 = 1, T = 1: det E(t, 0) = e^{-2 beta t} at whole periods."""
    return ModelSpec(PeriodicCoefficient.from_closed_form("sin_offset", 1.0, mean=beta, amp=beta / 2), 1.0)


def complex_form(R):
    """The propagators E = S R S^-1 = [[R00, i R01], [-i R10, R11]], S = diag(1, -i), of real forms R."""
    E = R.astype(complex)
    E[..., 0, 1] *= 1j
    E[..., 1, 0] *= -1j
    return E


def svd_norm(E):
    """Spectral norms of (complex or real) matrices over the last two axes, by
    numpy's SVD: an oracle that shares no code with kgdecay's closed form."""
    return np.linalg.norm(E, 2, axis=(-2, -1))


def propagate(spec, s, t, xi, tol=DEFAULT_TOL):
    """E(t, s, xi) at one frequency, complex."""
    return complex_form(propagate_grid(spec, s, t, [xi], tol)[0][0])


def contraction_k(spec, N, k_max=64, nt=64, nxi=256, margin=1e-3):
    """(k, c1) of the contraction search on t in [0, T] (nt points), xi in [0, N] (nxi points)."""
    t_grid = np.linspace(0.0, spec.T, nt)
    xi_grid = np.linspace(0.0, N, nxi)
    M = monodromy_grid(spec, t_grid, xi_grid)
    return contraction_search(M, samples_from_grid(t_grid, xi_grid, M), k_max, margin)


def certificate(spec, N, nt, nxi):
    """A contraction certificate on the (nt, nxi) grid of :func:`contraction_grids`."""
    k, c1 = contraction_k(spec, N, nt=nt, nxi=nxi)
    return ContractionCertificate(N, k, c1, spec.beta, spec.T)


def contraction_grids(cert, nt, nxi):
    """A certificate's (t, xi) grid of nt x nxi points: [0, T] x [0, N]."""
    return np.linspace(0.0, cert.T, nt), np.linspace(0.0, cert.N, nxi)


def const_coeff_propagator(b0, h, dt):
    """Closed-form E(dt) for constant dissipation b0 and constant symbol h.

    Eigen-decomposition of the constant system matrix: the generator
    iA = [[0, ih], [ih, -2 b0]] has eigenvalues mu =  -b0 +/- sqrt(b0^2 - h^2).
    """
    iA = np.array([[0.0, 1j * h], [1j * h, -2.0 * b0]], dtype=complex)
    disc = cmath.sqrt(b0 * b0 - h * h)
    mu_p = -b0 + disc
    mu_m = -b0 - disc
    eye = np.eye(2, dtype=complex)
    if abs(mu_p - mu_m) < 1e-13 * (1 + abs(mu_p)):
        return cmath.exp(mu_p * dt) * (eye + (iA - mu_p * eye) * dt)
    P_p = (iA - mu_m * eye) / (mu_p - mu_m)
    P_m = (iA - mu_p * eye) / (mu_m - mu_p)
    return cmath.exp(mu_p * dt) * P_p + cmath.exp(mu_m * dt) * P_m


def power_iteration_norm(M, iters=500, seed=1):
    """Independent spectral-norm oracle: power iteration on M^H M."""
    rng = np.random.default_rng(seed)
    G = M.conj().T @ M
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        lam = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(max(lam, 0.0)))
