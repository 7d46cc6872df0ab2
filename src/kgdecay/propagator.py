"""Fundamental-solution propagation and 2x2 complex linear algebra.

The frequency-space system d/dt E = i A(t, xi) E, E(s, s) = I is integrated
with an adaptive fourth-order Magnus scheme, vectorized over a batch of
frequencies.  Each step samples the generator B = iA = [[0, ih], [ih, -2b]]
at the two Gauss-Legendre nodes t + (1/2 -/+ sqrt(3)/6) dt, forms

    Omega = dt/2 (B1 + B2) + sqrt(3)/12 dt^2 [B2, B1]

and applies exp(Omega), computed in closed form.  The nodes are interior to
the step, so a coefficient jump at a segment end is never sampled from the
wrong side.  The step is exact wherever b and m are constant on it, and it
needs no dt * xi << 1, so the step count grows only slowly with xi.  Error
control is step doubling (one full step against two half steps) with a
Richardson correction.  Coefficient jumps and kinks are forced as step
boundaries.  The state is kept in the real form R = S^-1 E S, S = diag(1, -i),
in which the generator [[0, h], [-h, -2b]] and every product are real.

All 2x2 operations (determinant, eigenvalues, spectral norm, inverse) are
closed-form and broadcast over leading batch dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ConstantMass, ModelSpec
from .errors import IntegrationFailureError

DEFAULT_TOL = 1e-10
TOL_MIN, TOL_MAX = 1e-14, 1e-4

# Per-step tolerances are tightened by this factor so that the accumulated
# global error stays within the requested tolerance over multi-period spans.
_STEP_SAFETY = 0.02

# Gauss-Legendre nodes of the full step, then of its two half steps, as
# fractions of the step; and the commutator weight of the Magnus expansion.
_GAUSS_LO, _GAUSS_HI = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_NODES = np.array(
    [_GAUSS_LO, _GAUSS_HI, 0.5 * _GAUSS_LO, 0.5 * _GAUSS_HI, 0.5 + 0.5 * _GAUSS_LO, 0.5 + 0.5 * _GAUSS_HI]
)
_SUBSTEP = np.array([1.0, 0.5, 0.5])[:, None]
_COMMUTATOR = math.sqrt(3.0) / 12.0

# ``rhs_evaluations`` charged per attempted step.  The count is kept in the
# unit of a seven-stage explicit Runge-Kutta step (Dormand-Prince 5(4)), so
# that attempted steps read as rhs_evaluations / 7 for every consumer of
# PropagationResult; the Magnus step itself samples the coefficients at the
# six times in _NODES.
EVALS_PER_STEP = 7

# Below this |sqrt(z)| the sinh(r)/r factor of the exponential uses its series.
_SERIES_RADIUS = 1e-3


# -- closed-form 2x2 helpers (batched over leading dimensions) ---------------


def det2(M):
    """Determinant of 2x2 matrices."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def trace2(M):
    return M[..., 0, 0] + M[..., 1, 1]


def inv2(M):
    """Inverse of 2x2 matrices via the adjugate."""
    out = np.empty_like(M)
    d = det2(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out / d[..., None, None]


def eigenvalues_2x2(M):
    """Both roots of lambda^2 - tr(M) lambda + det(M).

    The larger-magnitude root is computed first from the stable branch of the
    quadratic formula; the other follows as det / root.  Returns a pair of
    complex scalars for a single matrix, or an array of shape (..., 2).
    """
    M = np.asarray(M)
    tr = trace2(M).astype(complex)
    dt = det2(M).astype(complex)
    sq = np.sqrt(tr * tr - 4.0 * dt)
    # pick the sign that avoids cancellation in tr +/- sq
    flip = np.real(np.conj(tr) * sq) < 0.0
    sq = np.where(flip, -sq, sq)
    l1 = 0.5 * (tr + sq)
    small = np.abs(l1) == 0.0
    l2 = np.where(small, 0.5 * (tr - sq), dt / np.where(small, 1.0, l1))
    if M.ndim == 2:
        return complex(l1), complex(l2)
    return np.stack([l1, l2], axis=-1)


def spectral_norm_2x2(M):
    """Largest singular value, closed form on the 2x2 Hermitian M^H M."""
    M = np.asarray(M)
    a = M[..., 0, 0]
    b = M[..., 0, 1]
    c = M[..., 1, 0]
    d = M[..., 1, 1]
    g11 = (a * np.conj(a)).real + (c * np.conj(c)).real
    g22 = (b * np.conj(b)).real + (d * np.conj(d)).real
    g12 = np.conj(a) * b + np.conj(c) * d
    mid = 0.5 * (g11 + g22)
    rad = np.hypot(0.5 * (g11 - g22), np.abs(g12))
    out = np.sqrt(mid + rad)
    if M.ndim == 2:
        return float(out)
    return out


# -- adaptive propagation ------------------------------------------------------


@dataclass
class PropagationResult:
    """Integration statistics of one :func:`propagate_grid` call.

    ``steps_taken`` counts accepted steps.  ``rhs_evaluations`` is the
    integration cost in right-hand-side evaluations of a seven-stage explicit
    Runge-Kutta step: seven per attempted step, so ``rhs_evaluations / 7`` is
    the number of attempted steps.  (Each attempt samples the coefficients at
    six times, two Gauss nodes each for the full step and its two halves.)
    """

    local_error_estimate: float
    steps_taken: int
    rhs_evaluations: int


class _Stats:
    __slots__ = ("steps", "evals", "max_err")

    def __init__(self):
        self.steps = 0
        self.evals = 0
        self.max_err = 0.0


def _make_coefficients(spec: ModelSpec, xi2: np.ndarray):
    """Map node times (6,) to (h at the lower nodes, h at the upper nodes, b).

    h = sqrt(xi^2 + m(t)^2) broadcasts against (3, n): it is the same (n,)
    array at every node for a constant mass.
    """
    b_eval = spec.b.eval
    if isinstance(spec.mass, ConstantMass):
        h = np.sqrt(xi2 + spec.m0 * spec.m0)

        def coefficients(ts):
            return h, h, b_eval(ts)

    else:
        m_squared = spec.m_squared

        def coefficients(ts):
            h = np.sqrt(xi2 + m_squared(ts)[:, None])
            return h[0::2], h[1::2], b_eval(ts)

    return coefficients


def _cosh_sinhc(z):
    """cosh(sqrt(z)) and sinh(sqrt(z))/sqrt(z) for real z; both are entire in z."""
    if z.max() < -_SERIES_RADIUS * _SERIES_RADIUS:  # all oscillatory, the common case
        r = np.sqrt(-z)
        return np.cos(r), np.sin(r) / r
    r = np.sqrt(np.abs(z))
    grow = z > 0.0
    r_grow = np.where(grow, r, 0.0)  # keeps cosh and sinh away from large oscillatory r
    c = np.where(grow, np.cosh(r_grow), np.cos(r))
    small = r < _SERIES_RADIUS
    s = np.where(grow, np.sinh(r_grow), np.sin(r)) / np.where(small, 1.0, r)
    return c, np.where(small, 1.0 + (z / 6.0) * (1.0 + z / 20.0), s)


def _magnus_factors(coefficients, t, dt):
    """exp(Omega) for the step [t, t + dt] and its two halves, real form (3, n, 2, 2).

    In the real form the generator is K = [[0, h], [-h, -2b]].  With K1, K2 at
    the Gauss nodes, Omega = [[0, U], [-V, w]] where
    U, V = dt/2 (h1 + h2) +/- sqrt(3)/6 dt^2 (h1 b2 - h2 b1) and
    w = -dt (b1 + b2), so exp(Omega) = e^{w/2} (cosh(r) I + sinh(r)/r (Omega - w/2 I))
    with r^2 = w^2/4 - U V real.
    """
    h1, h2, b = coefficients(t + dt * _NODES)
    b1 = b[0::2, None]
    b2 = b[1::2, None]
    dts = dt * _SUBSTEP
    mean = (h1 + h2) * (0.5 * dts)
    comm = (h1 * b2 - h2 * b1) * ((2.0 * _COMMUTATOR) * dts * dts)
    U = mean + comm
    V = mean - comm
    half_tr = -0.5 * dts * (b1 + b2)
    c, s = _cosh_sinhc(half_tr * half_tr - U * V)
    scale = np.exp(half_tr)
    c *= scale
    s *= scale
    sw = s * half_tr
    G = np.empty(U.shape + (2, 2))
    G[..., 0, 0] = c - sw
    G[..., 1, 1] = c + sw
    G[..., 0, 1] = s * U
    G[..., 1, 0] = -s * V
    return G


def _from_real_form(R):
    """The propagator E = [[R00, i R01], [-i R10, R11]] from its real form R."""
    E = R.astype(complex)
    E[..., 0, 1] *= 1j
    E[..., 1, 0] *= -1j
    return E


def _integrate_segment(coefficients, t0, t1, Y, step_tol, dt_hint, span, stats):
    """Adaptive Magnus stepping from t0 to t1 (either direction); mutates nothing.

    Returns (Y_end, dt_hint).  ``dt_hint`` carries the controller state across
    segment boundaries.
    """
    if t1 == t0:
        return Y, dt_hint
    direction = 1.0 if t1 > t0 else -1.0
    dt_floor = 1e-13 * max(1.0, span)
    t = t0
    dt = direction * min(abs(dt_hint), abs(t1 - t0))
    while (t1 - t) * direction > 0.0:
        last = abs(dt) >= abs(t1 - t)
        if last:
            dt = t1 - t
        if abs(dt) < dt_floor:
            raise IntegrationFailureError(
                f"step size underflow at t = {t} (coefficient structure denser than resolvable)",
                t_fail=t,
            )
        G = _magnus_factors(coefficients, t, dt)
        stats.evals += EVALS_PER_STEP
        two = G[2] @ G[1]
        err = ((two - G[0]) / 15.0) @ Y  # Richardson estimate of the half steps' error
        y_new = two @ Y + err
        scale = step_tol * (1.0 + np.maximum(np.abs(Y), np.abs(y_new)))
        ratio = float((np.abs(err) / scale).max())
        if ratio <= 1.0:
            t = t1 if last else t + dt
            Y = y_new
            stats.steps += 1
            if ratio > stats.max_err:
                stats.max_err = ratio
            grow = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
            dt = dt * grow
        else:
            dt = dt * max(0.2, 0.9 * ratio ** -0.2)
    return Y, dt


def propagate_grid(spec: ModelSpec, s: float, t: float, xi, tol: float = DEFAULT_TOL, checkpoints=None):
    """Propagate E(., s, xi) for a batch of frequencies at once.

    Parameters
    ----------
    spec : ModelSpec
    s, t : float
        Start and end times (t < s integrates backwards).
    xi : array_like
        Non-negative frequencies; the state is batched over them.
    tol : float
        Requested accuracy; the integrator's per-step tolerance is tightened
        internally so the realized global error stays below roughly
        ``tol * max(1, |t - s|)``.
    checkpoints : array_like, optional
        Times between s and t (inclusive) at which to record the state.  The
        integrator lands on them exactly, no interpolation.

    Returns
    -------
    (Y_end, chk, result) : final states (n, 2, 2), recorded states
        (len(checkpoints), n, 2, 2) and a :class:`PropagationResult`.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("s and t must be finite")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xi < 0.0):
        raise ValueError("xi must be non-negative")
    coefficients = _make_coefficients(spec, xi * xi)
    Y = np.zeros((xi.size, 2, 2))  # real form, see _from_real_form
    Y[:, 0, 0] = Y[:, 1, 1] = 1.0

    chk_times = np.asarray([] if checkpoints is None else checkpoints, dtype=float)
    chk = np.empty((chk_times.size, xi.size, 2, 2))
    stats = _Stats()
    span = abs(t - s)
    if span == 0.0:
        chk[:] = Y
        return _from_real_form(Y), _from_real_form(chk), PropagationResult(0.0, 0, 0)

    direction = 1.0 if t > s else -1.0
    breaks = spec.breakpoints_in(s, t)
    forced = np.unique(np.concatenate([breaks, chk_times, [s, t]]))
    if direction < 0:
        forced = forced[::-1]
    # only times strictly inside the travel direction
    forced = [x for x in forced if (x - s) * direction > 0.0 and (t - x) * direction >= 0.0]
    if not forced or forced[-1] != t:
        forced.append(t)

    # map checkpoint time -> output slots (tolerate duplicates)
    slots = {}
    for i, ct in enumerate(chk_times):
        slots.setdefault(float(ct), []).append(i)
    for i in slots.get(float(s), []):
        chk[i] = Y

    step_tol = tol * _STEP_SAFETY
    dt_hint = span / 100.0
    cur = s
    for nxt in forced:
        Y, dt_hint = _integrate_segment(coefficients, cur, nxt, Y, step_tol, dt_hint, span, stats)
        cur = nxt
        for i in slots.get(float(nxt), []):
            chk[i] = Y
    result = PropagationResult(stats.max_err * tol, stats.steps, stats.evals)
    return _from_real_form(Y), _from_real_form(chk), result


# -- quadrature ----------------------------------------------------------------


def _cumulative_simpson_uniform(y, h):
    """Cumulative integral of samples ``y`` on a uniform grid of spacing ``h``.

    Composite Simpson at even indices; odd half-cells use cubic four-point
    stencils, so polynomials up to degree three integrate exactly.  ``y`` has
    shape (n, ...) with n odd; ``h`` may be negative (descending grids
    integrate with sign).
    """
    n = y.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of samples >= 3")
    out = np.zeros_like(y)
    out[2::2] = np.cumsum((h / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]), axis=0)
    if n == 3:
        out[1] = (h / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
        return out
    out[1 : n - 2 : 2] = out[0 : n - 3 : 2] + (h / 24.0) * (
        9.0 * y[0 : n - 3 : 2] + 19.0 * y[1 : n - 2 : 2] - 5.0 * y[2 : n - 1 : 2] + y[3:n:2]
    )
    out[n - 2] = out[n - 3] + (h / 24.0) * (
        -y[n - 4] + 13.0 * y[n - 3] + 13.0 * y[n - 2] - y[n - 1]
    )
    return out
