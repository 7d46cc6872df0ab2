"""Independent references the tests compare the package against.  TEST ORACLES ONLY.

- the system matrix A(t, xi) and a truncated Peano-Baker series for E(t, s, xi);
- the running integral of a coefficient, by quadrature between breakpoints;
- the Gronwall bound on the propagator deviation caused by a mass perturbation;
- the monodromy matrix at one base time, by direct propagation or similarity;
- the diagonalization-frame corrector integrals n+ and n-, each integrated on
  its own, with the full complex 2x2 frame matrices built from them.
"""

import math

import numpy as np
from scipy.integrate import quad

from kgdecay import inv2, propagate_grid, spectral_norm_2x2
from kgdecay.errors import PreconditionError
from kgdecay.highfreq import _points_per_period
from kgdecay.propagator import DEFAULT_TOL, _cumulative_simpson_uniform


def system_matrix(spec, t, xi):
    """The coefficient matrix [[0, h], [h, 2ib(t)]] with h = sqrt(xi^2 + m(t)^2)."""
    h = float(spec.symbol(t, abs(xi)))
    b = float(spec.b.eval(t))
    return np.array([[0.0, h], [h, 2.0j * b]], dtype=complex)


def _system_matrices(spec, ts, xi):
    """A(t, xi) stacked over a time grid (len(ts), 2, 2)."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.size, 2, 2), dtype=complex)
    out[:, 0, 1] = out[:, 1, 0] = spec.symbol(ts, abs(xi))
    out[:, 1, 1] = 2.0j * spec.b.eval(ts)
    return out


def peano_baker_truncated(spec, s, t, xi, terms, npoints=4097):
    """Truncated iterated-integral series for E(t, s, xi).

    Evaluates I + sum_{l=1}^{terms} i^l (nested integrals of A) on a fixed
    fine grid with cumulative Simpson quadrature.  Truncation error scales
    like (||A|| |t-s|)^(terms+1) / (terms+1)!, so the practical window is
    ``|t-s| * sup||A|| <= 5``; outside it a PreconditionError is raised.
    """
    if terms < 0 or terms > 30:
        raise PreconditionError(f"terms must lie in [0, 30], got {terms}")
    if npoints % 2 == 0:
        npoints += 1
    if t == s or terms == 0:
        return np.eye(2, dtype=complex)
    grid = np.linspace(s, t, npoints)
    Avals = _system_matrices(spec, grid, xi)
    supA = float(np.max(spectral_norm_2x2(Avals)))
    if abs(t - s) * supA > 5.0 + 1e-12:
        raise PreconditionError(
            f"|t-s|*sup||A|| = {abs(t - s) * supA:.3g} exceeds the convergence window 5"
        )
    h = (t - s) / (npoints - 1)
    P = np.broadcast_to(np.eye(2, dtype=complex), Avals.shape).copy()
    E = np.eye(2, dtype=complex)
    for _ in range(terms):
        P = 1j * _cumulative_simpson_uniform(Avals @ P, h)
        E = E + P[-1]
    return E


def integral(c, t):
    """int_0^t c for t >= 0: whole periods from the cached mean, the rest by
    adaptive quadrature split at the coefficient's breakpoints."""
    q, r = divmod(float(t), c.period)
    part = 0.0
    if r > 0.0:
        points = [float(p) for p in c.breakpoints_in(0.0, r)]
        part, _ = quad(
            lambda x: float(c.eval(x)), 0.0, r, points=points or None, limit=200, epsabs=1e-13, epsrel=1e-13
        )
    return q * c.period * c.mean + part


def gronwall_difference_bound(spec_eps, spec_0, cert, s, t, xi):
    """Analytic bound on ||E_eps(t, s, xi) - E_0(t, s, xi)|| for xi <= N.

    Combines the integral-inequality estimate with the certified decay curve
    of the unperturbed propagator:

        ||E_eps - E_0|| <= C_eps * (int_s^t e^{-delta1 (tau - s - kT)} dtau)
                           * exp((C_eps + h_xi)(t - s) + 2 int_s^t b),

    where C_eps = eps / h_xi and h_xi = sqrt(xi^2 + m0^2).
    """
    if t < s:
        raise ValueError("gronwall_difference_bound requires t >= s")
    if abs(xi) > cert.N + 1e-9:
        raise ValueError("the certified decay curve only covers |xi| <= N")
    m0 = spec_0.m0
    if abs(spec_eps.m0 - m0) > 1e-12 or abs(spec_eps.T - spec_0.T) > 1e-12:
        raise ValueError("both models must share m0 and T")
    eps = spec_eps.epsilon
    if eps == 0.0 or t == s:
        return 0.0
    h = math.hypot(xi, m0)
    ce = eps / h
    dt = t - s
    kT = cert.k * cert.T
    d1 = cert.delta1
    decay_integral = math.exp(d1 * kT) * (1.0 - math.exp(-d1 * dt)) / d1
    int_b = integral(spec_0.b, t) - integral(spec_0.b, s)
    return ce * decay_integral * math.exp((ce + h) * dt + 2.0 * int_b)


def monodromy_at(spec, t, xi, tol=DEFAULT_TOL, base=None):
    """Monodromy matrix M(t, xi) = E(t + T, t, xi) at one base time.

    With ``base`` = M(0, xi) given, uses the similarity
    M(t, xi) = E(t, 0, xi) M(0, xi) E(t, 0, xi)^{-1} (one integration over
    [0, t] instead of [t, t + T]); otherwise propagates directly.
    """
    if not (0.0 <= t <= spec.T + 1e-12):
        raise ValueError(f"base time t must lie in [0, T], got {t}")
    if base is None:
        return propagate_grid(spec, t, t + spec.T, [abs(xi)], tol)[0][0]
    if t == 0.0:
        return np.array(base, dtype=complex)
    Et0 = propagate_grid(spec, 0.0, t, [abs(xi)], tol)[0][0]
    return Et0 @ np.asarray(base, dtype=complex) @ inv2(Et0)


def corrector_profile(spec, xi, t_max, points):
    """n+/-(t) on a uniform grid over [0, t_max] via phase-resolved quadrature.

    n+ and n- are integrated apart, with no use of n- = conj(n+).
    Returns (tau, n_plus, n_minus, b_vals, dt).
    """
    n = points if points % 2 == 1 else points + 1
    tau = np.linspace(0.0, t_max, n)
    dt = t_max / (n - 1)
    b = spec.b.eval(tau)
    osc = np.exp(1j * _cumulative_simpson_uniform(spec.symbol(tau, abs(xi)), dt))
    c_plus = _cumulative_simpson_uniform(osc * b, dt)
    c_minus = _cumulative_simpson_uniform(np.conj(osc) * b, dt)
    return tau, np.conj(osc) * c_plus, osc * c_minus, b, dt


def n_pm(spec, t, xi, per_period=None):
    """The two oscillatory corrector integrals (n+, n-) at time ``t``.

    n+/-(t) = int_0^t exp(-/+ i int_s^t h(r) dr) b(s) ds with h the symbol.
    Valid window: t in [0, 2T].
    """
    if not (0.0 <= t <= 2.0 * spec.T + 1e-12):
        raise PreconditionError(f"n_pm is defined on [0, 2T], got t = {t}")
    if xi < 0.0:
        raise ValueError("xi must be non-negative")
    if t == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    points = int(_points_per_period(spec, xi, per_period) * (t / spec.T)) + 1
    _, npl, nmi, _, _ = corrector_profile(spec, xi, t, max(points, 129))
    return complex(npl[-1]), complex(nmi[-1])


def frame_matrices(n_plus, n_minus, b):
    """Corrector matrices from scalar data (batched over leading dims).

    Returns (n1, n1_inv, r2, det) with
    n1 = [[1, n-], [n+, 1]], r2 = -n1^{-1} r1 (I - n1), r1 = i b [[0,1],[1,0]].
    """
    n_plus = np.asarray(n_plus, dtype=complex)
    shape = n_plus.shape + (2, 2)
    n1 = np.zeros(shape, dtype=complex)
    n1[..., 0, 0] = 1.0
    n1[..., 1, 1] = 1.0
    n1[..., 0, 1] = n_minus
    n1[..., 1, 0] = n_plus
    det = 1.0 - n_plus * n_minus
    n1_inv = inv2(n1)
    eye_minus = np.zeros(shape, dtype=complex)
    eye_minus[..., 0, 1] = -n_minus
    eye_minus[..., 1, 0] = -n_plus
    r1 = np.zeros(shape, dtype=complex)
    r1[..., 0, 1] = 1j * np.asarray(b)
    r1[..., 1, 0] = 1j * np.asarray(b)
    r2 = -(n1_inv @ (r1 @ eye_minus))
    return n1, n1_inv, r2, det


def frame_matrices_at(spec, t, xi):
    """(n1, n1_inv, r2, det) of the diagonalization frame at (t, xi)."""
    npl, nmi = n_pm(spec, t, xi)
    return frame_matrices(np.array(npl), np.array(nmi), float(spec.b.eval(t)))


def frame_ode_residual(spec, xi, per_period=None):
    """Discretized-derivative residual of the corrector equations on [0, 2T].

    Central differences of the quadrature-built n+/- are compared with the
    generating first-order equations  d/dt n+/- = b(t) -/+ i h(t) n+/-.
    Returns the max absolute residual over interior grid points.
    """
    per = _points_per_period(spec, xi, per_period)
    tau, npl, nmi, b, dt = corrector_profile(spec, xi, 2.0 * spec.T, 2 * per + 1)
    h = spec.symbol(tau, abs(xi))
    res = 0.0
    for arr, sign in ((npl, -1.0), (nmi, +1.0)):
        dnum = (arr[2:] - arr[:-2]) / (2.0 * dt)
        rhs = b[1:-1] + sign * 1j * h[1:-1] * arr[1:-1]
        res = max(res, float(np.max(np.abs(dnum - rhs))))
    return res
