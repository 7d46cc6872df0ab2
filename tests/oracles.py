"""Independent references the tests compare the package against.  TEST ORACLES ONLY.

- the coupling symbol h(t, xi) = sqrt(xi^2 + m(t)^2);
- the system matrix A(t, xi) and a truncated Peano-Baker series for E(t, s, xi);
- the monodromy of the scalar equation u'' + 2 b u' + h^2 u = 0, by solve_ivp;
- the running integral of a coefficient, by quadrature between breakpoints;
- the Gronwall bound on the propagator deviation caused by a mass perturbation;
- the monodromy matrix at one base time, by direct propagation or similarity;
- the diagonalization-frame corrector integrals n+ and n-, each integrated on
  its own over uniform pieces laid end to end, with the full complex 2x2
  frame matrices built from them;
- the threshold window supremum by a scan of every frequency of the window;
- the 2x2 inverse, and the cumulative fold of checkpointed segment propagators;
- the artifact CSV text, written by ``csv.writer`` with floats as f"{v:.17g}";
- the mass-influence diagnostic by one cumulative pass over the whole time span;
- the small-mass coefficient r of the slow Floquet rate at xi = 0, by a double
  quadrature.
"""

import csv
import io
import math

import numpy as np
from scipy.integrate import nquad, quad, solve_ivp

from kgdecay import det2, highfreq, propagate_grid
from kgdecay.errors import FrameError, ModelAssumptionError
from kgdecay.highfreq import WINDOW_FACTOR
from kgdecay.propagator import DEFAULT_TOL, _cumulative_simpson_uniform

from conftest import complex_form, svd_norm


class PreconditionError(Exception):
    """An oracle was called outside the window on which it is accurate."""


def inv2(M):
    """Inverse of 2x2 matrices via the adjugate."""
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out / det2(M)[..., None, None]


def cumulative(segments):
    """E(c_i, s) from the segment propagators E(c_i, c_{i-1}) of a checkpointed sweep."""
    out = np.array(segments)
    for i in range(1, len(out)):
        out[i] = out[i] @ out[i - 1]
    return out


def symbol(spec, t, xi):
    """The coupling symbol sqrt(xi^2 + m(t)^2); ``t`` and ``xi`` broadcast."""
    rad = np.asarray(xi, dtype=float) ** 2 + spec.m_squared(t)
    if np.any(np.asarray(rad) < 0.0):
        raise ModelAssumptionError("negative radicand in symbol: perturbed mass not positive")
    return np.sqrt(rad)


def system_matrix(spec, t, xi):
    """The coefficient matrix [[0, h], [h, 2ib(t)]] with h = sqrt(xi^2 + m(t)^2)."""
    h = float(symbol(spec, t, abs(xi)))
    b = float(spec.b.eval(t))
    return np.array([[0.0, h], [h, 2.0j * b]], dtype=complex)


def _system_matrices(spec, ts, xi):
    """A(t, xi) stacked over a time grid (len(ts), 2, 2)."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.size, 2, 2), dtype=complex)
    out[:, 0, 1] = out[:, 1, 0] = symbol(spec, ts, abs(xi))
    out[:, 1, 1] = 2.0j * spec.b.eval(ts)
    return out


def peano_baker_truncated(spec, s, t, xi, terms, npoints=4097):
    """Truncated iterated-integral series for E(t, s, xi), s <= t.

    Evaluates I + sum_{l=1}^{terms} i^l (nested integrals of A) on a fixed
    fine grid with cumulative Simpson quadrature.  Truncation error scales
    like (||A|| (t-s))^(terms+1) / (terms+1)!, so the practical window is
    ``(t-s) * sup||A|| <= 5``; outside it a PreconditionError is raised.
    """
    if terms < 0 or terms > 30:
        raise PreconditionError(f"terms must lie in [0, 30], got {terms}")
    if t < s:
        raise PreconditionError(f"the series runs forward, got t = {t} < s = {s}")
    if npoints % 2 == 0:
        npoints += 1
    if t == s or terms == 0:
        return np.eye(2, dtype=complex)
    grid = np.linspace(s, t, npoints)
    Avals = _system_matrices(spec, grid, xi)
    supA = float(np.max(svd_norm(Avals)))
    if (t - s) * supA > 5.0 + 1e-12:
        raise PreconditionError(
            f"(t-s)*sup||A|| = {(t - s) * supA:.3g} exceeds the convergence window 5"
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
    """Monodromy matrix M(t, xi) = E(t + T, t, xi) at one base time, complex.

    With ``base`` = M(0, xi) given, uses the similarity
    M(t, xi) = E(t, 0, xi) M(0, xi) E(t, 0, xi)^{-1} (one integration over
    [0, t] instead of [t, t + T]); otherwise propagates directly.
    """
    if not (0.0 <= t <= spec.T + 1e-12):
        raise ValueError(f"base time t must lie in [0, T], got {t}")
    if base is None:
        return complex_form(propagate_grid(spec, t, t + spec.T, [abs(xi)], tol)[0][0])
    if t == 0.0:
        return np.array(base, dtype=complex)
    Et0 = complex_form(propagate_grid(spec, 0.0, t, [abs(xi)], tol)[0][0])
    return Et0 @ np.asarray(base, dtype=complex) @ inv2(Et0)


def scalar_monodromy(spec, xi):
    """Monodromy over [0, T] of u'' + 2 b(t) u' + h(t, xi)^2 u = 0 in the state (u, u').

    The Klein-Gordon equation itself, integrated by solve_ivp (DOP853,
    rtol 1e-12, atol 1e-14) between the coefficient breakpoints, with no use
    of the package's first-order system.
    """

    def rhs(t, y):
        u, v = y
        return [v, -2.0 * float(spec.b.eval(t)) * v - float(symbol(spec, t, xi)) ** 2 * u]

    ends = np.concatenate([[0.0], spec.breakpoints_in(0.0, spec.T), [spec.T]])
    M = np.eye(2)
    for t0, t1 in zip(ends[:-1], ends[1:]):
        for j in range(2):
            sol = solve_ivp(rhs, (t0, t1), M[:, j], method="DOP853", rtol=1e-12, atol=1e-14)
            M[:, j] = sol.y[:, -1]
    return M


def piecewise_cumulative(y, tau):
    """int_{tau[0, 0]}^t y at every node t of ``tau`` (M + 1, pieces): pieces laid
    end to end, each uniform with M even, by cumulative Simpson within each
    piece plus the totals of the pieces before it."""
    out = _cumulative_simpson_uniform(y, (tau[-1] - tau[0]) / (tau.shape[0] - 1))
    out[:, 1:] += np.cumsum(out[-1, :-1], axis=0)
    return out


def uniform_nodes(spec, t_max, points):
    """One uniform piece over [0, t_max] with ``points`` nodes (made odd), and b on it."""
    tau = np.linspace(0.0, t_max, points if points % 2 == 1 else points + 1)[:, None]
    return tau, spec.b.eval(tau)


def corrector_profile(spec, xi, tau, b):
    """n+/-(t) at the nodes ``tau`` (M + 1, pieces), with ``b`` sampled there,
    via phase-resolved quadrature (see :func:`piecewise_cumulative`).

    n+ and n- are integrated apart, with no use of n- = conj(n+).  The phase
    int_0^t h is accumulated in extended precision, so its rounding does not
    grow with the number of points.
    Returns (n_plus, n_minus), shaped like ``tau``.
    """
    phase = piecewise_cumulative(symbol(spec, tau, abs(xi)).astype(np.longdouble), tau)
    osc = np.exp(1j * phase.astype(float))
    c_plus = piecewise_cumulative(osc * b, tau)
    c_minus = piecewise_cumulative(np.conj(osc) * b, tau)
    return np.conj(osc) * c_plus, osc * c_minus


def oracle_points_per_period(spec, xi):
    """Intervals per period of the oracles' uniform grids at ``xi``: max(4096,
    64 ceil(h T)) rounded up to a multiple of 128, independent of the
    package's profile count."""
    phase = math.hypot(xi, spec.m0) * spec.T
    return 128 * math.ceil(max(4096, 64 * math.ceil(phase)) / 128)


def n_pm(spec, t, xi, per_period=0):
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
    points = int(max(oracle_points_per_period(spec, xi), per_period) * (t / spec.T)) + 1
    npl, nmi = corrector_profile(spec, xi, *uniform_nodes(spec, t, max(points, 129)))
    return complex(npl[-1, 0]), complex(nmi[-1, 0])


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


def frame_ode_residual(spec, xi, per_period=0):
    """Discretized-derivative residual of the corrector equations on [0, 2T].

    Central differences of the quadrature-built n+/- are compared with the
    generating first-order equations  d/dt n+/- = b(t) -/+ i h(t) n+/-.
    Returns the max absolute residual over interior grid points.
    """
    per = max(oracle_points_per_period(spec, xi), per_period)
    tau, b = uniform_nodes(spec, 2.0 * spec.T, 2 * per + 1)
    npl, nmi = corrector_profile(spec, xi, tau, b)
    dt = float(tau[1, 0] - tau[0, 0])
    h = symbol(spec, tau, abs(xi))
    res = 0.0
    for arr, sign in ((npl, -1.0), (nmi, +1.0)):
        dnum = (arr[2:] - arr[:-2]) / (2.0 * dt)
        rhs = b[1:-1] + sign * 1j * h[1:-1] * arr[1:-1]
        res = max(res, float(np.max(np.abs(dnum - rhs))))
    return res


def window_sup_full_scan(spec, N, xi_points, t_points, stop_above=None, refine=1):
    """sup over xi in [N, WINDOW_FACTOR * N] (xi_points samples) of the frame product
    at ``refine`` times the starting count, and the first frequency that
    attains it, evaluating every frequency; with ``stop_above`` set, the scan
    stops at the first value beyond it, as in the package."""
    xis, vals = [], []
    for x in np.linspace(N, WINDOW_FACTOR * N, xi_points):
        xis.append(float(x))
        try:
            vals.append(highfreq.suplarge_quantity(spec, xis[-1], t_points, refine))
        except FrameError:
            vals.append(math.inf)
        if stop_above is not None and vals[-1] > stop_above:
            break
    top = int(np.argmax(vals))
    return float(vals[top]), xis[top]


def reference_csv(header, rows):
    """CSV text by ``csv.writer`` with LF line ends; floats as f"{v:.17g}", anything else as is."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def gamma_curve_long(spec, times, points_per_period=4096):
    """exp(-int_0^t m^2/b) by one cumulative Simpson pass over [0, t_end], no periodicity used."""
    times = np.asarray(times, dtype=float)
    t_end = float(times[-1])
    if t_end == 0.0:
        return np.ones_like(times)
    n = 2 * max(65, int(points_per_period * t_end / spec.T) // 2) + 1
    tau = np.linspace(0.0, t_end, n)
    cum = _cumulative_simpson_uniform(spec.m_squared(tau) / spec.b.eval(tau), t_end / (n - 1))
    return np.exp(-np.interp(times, tau, cum))


def small_mass_rate(b):
    """The coefficient r of the slow Floquet rate r m0^2 + O(m0^4) at xi = 0:

        r = (1 / (1 - e^{-2 beta T})) (1/T) int_0^T int_0^T e^{-2 (B(t) - B(t - sigma))} dsigma dt

    with B = int_0 b, from expanding u = 1 + m0^2 v in u'' + 2 b u' + m0^2 u = 0;
    for constant b it is 1 / (2b).  The double integral is taken by nquad,
    split where b breaks.  B(t) - B(t - sigma) is read a period later, on
    [0, 2T], off the dense output of B' = b from solve_ivp (DOP853, rtol
    1e-13), integrated between the breakpoints of b.
    """
    T = b.period
    kinks = [float(p) for p in b.breakpoints_in(0.0, 2.0 * T)]
    ends = [0.0, *kinks, 2.0 * T]
    pieces, start = [], 0.0
    for t0, t1 in zip(ends[:-1], ends[1:]):
        sol = solve_ivp(lambda t, y: [float(b.eval(t))], (t0, t1), [start], method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        pieces.append(sol.sol)
        start = float(sol.y[0, -1])

    def primitive(x):
        piece = min(int(np.searchsorted(ends, x, side="right")) - 1, len(pieces) - 1)
        return float(pieces[piece](x)[0])

    def integrand(sigma, t):
        return math.exp(-2.0 * (primitive(t + T) - primitive(t + T - sigma)))

    precision = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 200}

    def inner(t):
        return {"points": [t + T - p for p in kinks if t < p < t + T], **precision}

    value, _ = nquad(integrand, [(0.0, T), (0.0, T)], opts=[inner, {"points": [p for p in kinks if p < T], **precision}])
    return value / (T * -math.expm1(-2.0 * b.mean * T))
