"""Fundamental-solution propagation and closed-form 2x2 linear algebra.

The frequency-space system d/dt E = i A(t, xi) E, E(s, s) = I is integrated,
and returned, in its real form R = S^-1 E S, S = diag(1, -i): the system
d/dt R = K R with K = [[0, h], [-h, -2b]], in which every product is real.
S is unitary, so R has the spectral norm, eigenvalues, trace and determinant
of E, and E = S R S^-1 where the complex propagator itself is wanted.  The
integrator is an adaptive sixth-order Magnus scheme (Blanes, Casas & Ros,
BIT 40, 2000), vectorized over a batch of frequencies.  Each step samples K at
the three Gauss-Legendre nodes t + (1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10) dt,
forms

    a1 = dt K2,  a2 = sqrt(15)/3 dt (K3 - K1),  a3 = 10/3 dt (K3 - 2 K2 + K1),
    C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2] / 240

with every commutator written out entry by entry, and applies exp(Omega),
computed in closed form.  For a constant mass h does not depend on t, and
each entry of Omega is a polynomial in h whose coefficients depend on b and
the step only.  The nodes are interior to the step, so a coefficient jump at
a piece end is never sampled from the wrong side.  The step is exact wherever
b and m are constant on it, and it needs no dt * xi << 1, so the step count
grows only slowly with xi.  Error control is step doubling (one full step
against two half steps) with a Richardson correction, each step's estimate
held to the requested tolerance.  That estimate is reliable well inside the
Magnus convergence radius, integral ||K|| < pi (Moan & Niesen, Found.
Comput. Math. 8, 2008), so every step is capped at dt sup||K|| <= 2.

A b that jumps is constant between its breakpoints, so with a constant mass
every piece of a sweep has a constant K.  Its propagator is then the single
exponential exp(L K) of the piece length L, taken by the same closed form
with b sampled at one interior node, and no step is controlled.

Integration runs forward only.  A sweep splits [s, t] at its forced times
(checkpoints, coefficient jumps and kinks, t) into pieces, each propagated
from the identity.  The pieces are integrated together, in batches of at
most _BATCH_ELEMENTS piece x frequency elements, on one step sequence in
normalized time, and then composed in time order into the checkpoint
segments.  The state and the step factors are held entry first, as arrays
(2, 2, pieces, frequencies), so every 2x2 product is four entry-wise
expressions.  One step of a batch advances all its pieces, the exponentials
of a batch of constant pieces count as one step, and one PropagationResult
counts a whole sweep.

All 2x2 operations (determinant, eigenvalues, spectral norm) are closed-form
on real matrices and broadcast over leading batch dimensions; the
entry-first helper _mul takes real (2, 2, ...) arrays.  The spectral norm
rejects complex matrices; every norm the pipeline takes is that of a real form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelSpec, _sorted_unique
from .errors import IntegrationFailureError

DEFAULT_TOL = 1e-10
TOL_MIN, TOL_MAX = 1e-14, 1e-4

# The cap on dt sup||K|| of a step, inside the Magnus convergence radius pi.
_STEP_NORM_CAP = 2.0

# Gauss-Legendre nodes as fractions of a step.  The coefficients are sampled
# at _NODES, node-major: node j of the full step and of its two half steps
# (which start at 0 and 1/2 and have length _SUBSTEP) sit at 3 j .. 3 j + 2.
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_SUBSTEP = np.array([1.0, 0.5, 0.5])[:, None, None]
_NODES = (np.array([0.0, 0.0, 0.5]) + _SUBSTEP.ravel() * _GAUSS[:, None]).ravel()
_SQRT15_3 = math.sqrt(15.0) / 3.0

# Step doubling of a sixth-order step: the two half steps' error is about
# (two halves - full step) / (2^6 - 1), and the step size scales as the
# error ratio to the power -1/7.
_RICHARDSON = 63.0
_CONTROL_EXPONENT = -1.0 / 7.0

# ``rhs_evaluations`` charged per attempted step.  The count is kept in the
# unit of a seven-stage explicit Runge-Kutta step (Dormand-Prince 5(4)), so
# that attempted steps read as rhs_evaluations / 7 for every consumer of
# PropagationResult; the Magnus step itself samples the coefficients at the
# nine times in _NODES.
EVALS_PER_STEP = 7

# The pieces of a sweep are integrated in batches of at most this many
# piece x frequency elements (at least one piece), so that a step's
# temporaries stay near 100 KB.
_BATCH_ELEMENTS = 4096

# Below this |sqrt(z)| the sinh(r)/r factor of the exponential uses its series.
_SERIES_RADIUS = 1e-3


# -- closed-form 2x2 helpers (batched over leading dimensions) ---------------


def det2(M):
    """Determinant of 2x2 matrices."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def trace2(M):
    return M[..., 0, 0] + M[..., 1, 1]


def eigenvalues_2x2(M):
    """Both roots of lambda^2 - tr(M) lambda + det(M).

    The larger-magnitude root is computed first from the stable branch of the
    quadratic formula; the other follows as det / root.  Returns an array of
    shape (..., 2).
    """
    M = np.asarray(M)
    tr = trace2(M).astype(complex)
    dt = det2(M).astype(complex)
    sq = np.sqrt(tr * tr - 4.0 * dt)
    # pick the sign that avoids cancellation in tr +/- sq
    flip = tr.real * sq.real + tr.imag * sq.imag < 0.0  # Re(conj(tr) sq)
    sq = np.where(flip, -sq, sq)
    l1 = 0.5 * (tr + sq)
    small = np.abs(l1) == 0.0
    l2 = np.where(small, 0.5 * (tr - sq), dt / np.where(small, 1.0, l1))
    return np.stack([l1, l2], axis=-1)


def spectral_norm_2x2(M):
    """Largest singular value of real 2x2 matrices, closed form on the Gram matrix M^T M.

    Any array whose last two axes hold the matrix will do, such as a
    np.moveaxis view of entry-first (2, 2, ...) arrays.  Complex matrices
    raise TypeError.
    """
    M = np.asarray(M)
    if np.iscomplexobj(M):
        raise TypeError("spectral_norm_2x2 takes real matrices; pass the real form")
    a = M[..., 0, 0]
    b = M[..., 0, 1]
    c = M[..., 1, 0]
    d = M[..., 1, 1]
    g11 = a * a + c * c
    g22 = b * b + d * d
    g12 = a * b + c * d
    mid = 0.5 * (g11 + g22)
    rad = np.hypot(0.5 * (g11 - g22), np.abs(g12))
    return np.sqrt(mid + rad)


# -- adaptive propagation ------------------------------------------------------


@dataclass
class PropagationResult:
    """Integration statistics of one :func:`propagate_grid` sweep, added to as it runs.

    ``local_error_estimate`` is ``tol`` times the largest error ratio of an
    accepted step, and ``steps_taken`` counts accepted batch steps: one step
    advances every piece of a batch, at every frequency, together.  A batch
    of constant pieces (see :func:`_constant_pieces`) is one accepted step,
    charged as one attempt, with error 0.
    ``rhs_evaluations`` is the integration cost in right-hand-side evaluations
    of a seven-stage explicit Runge-Kutta step: seven per attempted batch step,
    so ``rhs_evaluations / 7`` is the number of attempted batch steps.  (Each
    attempt samples the coefficients of every piece at nine times, three Gauss
    nodes each for the full step and its two halves.)
    """

    local_error_estimate: float
    steps_taken: int
    rhs_evaluations: int


def _make_factors(spec: ModelSpec, xi2: np.ndarray):
    """The step factors of a batch of pieces, as a function of (t, dt).

    ``t`` and ``dt`` (P,) give the step [t_j, t_j + dt_j] of each piece; the
    function returns exp(Omega), entry first, of shape (2, 2, 3, P, n): axis 2
    holds the full step and its two halves, n the frequencies.  A constant
    mass takes the polynomial form :func:`_omega_constant_mass`.
    """
    b_eval = spec.b.eval

    def nodes(t, dt):
        """Node times (9 P,), node-major like _NODES, and the step lengths (3, P, 1)."""
        return (t + dt * _NODES[:, None]).ravel(), _SUBSTEP * dt[:, None]

    if spec.epsilon > 0.0:
        m_squared = spec.m_squared

        def factors(t, dt):
            ts, dts = nodes(t, dt)
            h = np.sqrt(xi2 + m_squared(ts)[:, None]).reshape(3, 3, t.size, -1)
            return _expm(*_omega(h, b_eval(ts).reshape(3, 3, -1, 1), dts))

    else:
        h = np.sqrt(xi2 + spec.m0 * spec.m0)

        def factors(t, dt):
            ts, dts = nodes(t, dt)
            return _expm(*_omega_constant_mass(h, b_eval(ts).reshape(3, 3, -1, 1), dts))

    return factors


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


def _omega(h, b, dts):
    """Half trace g and traceless part (u, v, w) of Omega, for any mass.

    ``h`` and ``b`` are triples, the coefficients at the three Gauss nodes,
    and ``dts`` is the step length; all broadcast together.  Every a_i of the
    module docstring is [[0, p_i], [-p_i, q_i]].  A 2x2 matrix is held as its
    half trace and its traceless part [[u, v], [w, -u]]; the commutator of two
    matrices with traceless parts (u, v, w) and (u', v', w') is
    (v w' - w v', 2 (u v' - u' v), 2 (u' w - u w')).  So C1 = [[0, s], [s, 0]]
    with s = p1 q2 - q1 p2.
    """
    (h1, h2, h3), (b1, b2, b3) = h, b
    p1 = dts * h2
    q1 = -2.0 * dts * b2
    p2 = (_SQRT15_3 * dts) * (h3 - h1)
    q2 = (-2.0 * _SQRT15_3 * dts) * (b3 - b1)
    p3 = (dts * (10.0 / 3.0)) * (h3 - 2.0 * h2 + h1)
    q3 = (dts * (-20.0 / 3.0)) * (b3 - 2.0 * b2 + b1)
    s = p1 * q2 - q1 * p2
    # [a1, 2 a3 + C1] = (2 p1 s, e - q1 s, e + q1 s) with e = 2 (p1 q3 - q1 p3)
    e = 2.0 * (p1 * q3 - q1 * p3)
    q1s = q1 * s
    # F = -20 a1 - a3 + C1 and G = a2 + C2, traceless parts
    fu = 10.0 * q1 + 0.5 * q3
    fv = s - 20.0 * p1 - p3
    fw = s + 20.0 * p1 + p3
    gu = -0.5 * q2 - p1 * s / 30.0
    gv = p2 - (e - q1s) / 60.0
    gw = -p2 - (e + q1s) / 60.0
    # Omega = a1 + a3/12 + [F, G]/240
    g = 0.5 * q1 + q3 / 24.0
    pm = p1 + p3 / 12.0
    u = (fv * gw - fw * gv) / 240.0 - g
    v = pm + (fu * gv - gu * fv) / 120.0
    w = (gu * fw - fu * gw) / 120.0 - pm
    return g, u, v, w


def _omega_constant_mass(h, b, dts):
    """:func:`_omega` for an h that is constant in time, as polynomials in h.

    With h1 = h2 = h3 = h, p2 = p3 = 0 and p1 = dts h, so Omega reduces to
    u = alpha h^2 - g, v = h (beta0 + beta1 h^2) and w = h (gamma0 + gamma1 h^2),
    whose coefficients depend on b and the step only.
    """
    b1, b2, b3 = b
    q1 = -2.0 * dts * b2
    q2 = (-2.0 * _SQRT15_3 * dts) * (b3 - b1)
    q3 = (dts * (-20.0 / 3.0)) * (b3 - 2.0 * b2 + b1)
    g = 0.5 * q1 + q3 / 24.0
    fu = 10.0 * q1 + 0.5 * q3
    q1q2 = q1 * q2
    dts3 = dts * dts * dts / 3600.0
    alpha = dts * dts * (40.0 * q3 - q1q2 * q2) / 7200.0
    beta0 = dts * (1.0 + q2 * (q2 - 20.0) / 240.0 - fu * (2.0 * q3 - q1q2) / 7200.0)
    gamma0 = -dts * (1.0 + q2 * (q2 + 20.0) / 240.0 - fu * (2.0 * q3 + q1q2) / 7200.0)
    beta1 = dts3 * q2 * (q2 - 20.0)
    gamma1 = -dts3 * q2 * (q2 + 20.0)
    h2 = h * h
    return g, alpha * h2 - g, h * (beta0 + beta1 * h2), h * (gamma0 + gamma1 * h2)


def _expm(g, u, v, w):
    """exp(Omega) = e^g (cosh(r) I + sinh(r)/r [[u, v], [w, -u]]), r^2 = u^2 + v w.

    Entry first: the result has shape (2, 2) + the broadcast shape of u, v, w.
    """
    c, sh = _cosh_sinhc(u * u + v * w)
    scale = np.exp(g)
    c *= scale
    sh *= scale
    su = sh * u
    G = np.empty((2, 2) + su.shape)
    np.add(c, su, out=G[0, 0])
    np.subtract(c, su, out=G[1, 1])
    np.multiply(sh, v, out=G[0, 1])
    np.multiply(sh, w, out=G[1, 0])
    return G


def _mul(A, B):
    """Products of entry-first 2x2 matrices (2, 2, ...): four entry-wise expressions."""
    return A[:, :1] * B[:1] + A[:, 1:] * B[1:]


def _identity(*shape):
    """Identity matrices, entry first: (2, 2) + shape."""
    Y = np.zeros((2, 2) + shape)
    Y[0, 0] = Y[1, 1] = 1.0
    return Y


def _integrate_pieces(factors, starts, lengths, n, tol, dt_hint, dt_floor, dt_max, result):
    """Propagators of the pieces [starts_j, starts_j + lengths_j], each from the identity.

    The pieces share one adaptive step sequence in normalized time
    tau in [0, 1]: a step dtau is the step lengths_j * dtau of piece j, and
    its error ratio is the largest over the batch.  The step size is
    controlled, and ``dt_hint``, the floor and the cap ``dt_max`` are read, as
    the step of the longest piece.  A batch whose pieces are all shorter than
    the floor is one step and leaves ``dt_hint`` unchanged; a remainder below
    the floor joins the step before it.  The floor raises when the controller
    or the cap holds a step below it, at the time reached by the piece with
    the largest (or a non-finite) error ratio.  Returns the propagators, entry
    first (2, 2, P, n), and the step hint for the next batch, and adds the
    steps, evaluations and largest error estimate to ``result``.
    """
    span = float(lengths.max())
    tau_floor = dt_floor / span
    tau_max = dt_max / span
    short = span < dt_floor
    Y = _identity(lengths.size, n)
    tau = 0.0
    dtau = min(1.0, dt_hint / span, tau_max)
    r = None  # the error ratios of the last attempt, (2, 2, P, n)
    while tau < 1.0:
        last = dtau >= 1.0 - tau - tau_floor
        if last:
            dtau = 1.0 - tau
        if dtau * span < dt_floor and not short:
            worst = 0 if r is None else int(np.argmax(np.nan_to_num(r.max(axis=(0, 1, 3)), nan=np.inf)))
            t_fail = float(starts[worst] + tau * lengths[worst])
            raise IntegrationFailureError(
                f"step size underflow at t = {t_fail} (coefficient structure denser than resolvable)",
                t_fail=t_fail,
            )
        G = factors(starts + tau * lengths, dtau * lengths)
        result.rhs_evaluations += EVALS_PER_STEP
        two = _mul(G[:, :, 2], G[:, :, 1])
        err = _mul((two - G[:, :, 0]) / _RICHARDSON, Y)  # Richardson estimate of the half steps' error
        y_new = _mul(two, Y)
        y_new += err
        r = np.abs(err)
        r /= 1.0 + np.maximum(np.abs(Y), np.abs(y_new))
        ratio = float(r.max()) / tol
        if ratio <= 1.0:
            tau = 1.0 if last else tau + dtau
            Y = y_new
            result.steps_taken += 1
            result.local_error_estimate = max(result.local_error_estimate, ratio * tol)
            grow = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio**_CONTROL_EXPONENT))
            dtau = min(dtau * grow, tau_max)
        else:
            dtau = dtau * max(0.2, 0.9 * ratio**_CONTROL_EXPONENT)
            short = False  # a rejected step below the floor raises on the next pass
    return Y, dt_hint if short else dtau * span


def _constant_pieces(b_eval, h, starts, lengths, result):
    """Propagators exp(L_j K_j) of pieces on which b and h are constant, entry first (2, 2, P, n).

    b is sampled at the midpoint of each piece [starts_j, starts_j + L_j];
    with the same value at its three nodes, :func:`_omega_constant_mass` is
    exactly L_j K_j.  A non-finite propagator raises IntegrationFailureError
    at the start of its piece.  Adds one step to ``result``.
    """
    b = b_eval(starts + 0.5 * lengths)[:, None]
    Y = _expm(*_omega_constant_mass(h, (b, b, b), lengths[:, None]))
    finite = np.isfinite(Y).all(axis=(0, 1, 3))
    if not finite.all():
        t_fail = float(starts[np.argmin(finite)])
        raise IntegrationFailureError(f"non-finite propagator on the constant piece from t = {t_fail}", t_fail=t_fail)
    result.steps_taken += 1
    result.rhs_evaluations += EVALS_PER_STEP
    return Y


def propagate_grid(spec: ModelSpec, s: float, t: float, xi, tol: float = DEFAULT_TOL, checkpoints=None):
    """Propagate E(., s, xi) forward for a batch of frequencies at once, in the real form.

    Parameters
    ----------
    spec : ModelSpec
    s, t : float
        Start and end times; the sweep runs forward only, so t < s raises ValueError.
    xi : array_like
        Finite non-negative frequencies; the state is batched over them.
    tol : float
        Requested accuracy: the error estimate of every step is held to
        ``tol`` and every step to dt sup||K|| <= 2, so the realized error of
        a sweep over one period stays below ``tol``; over longer spans the
        steps' errors add up.
    checkpoints : array_like, optional
        Non-decreasing times c_0, c_1, ... in [s, t] (ends included, repeats
        allowed).  The result records each segment propagator
        E(c_i, c_{i-1}, xi) with c_{-1} = s.

    The checkpoints, the coefficient breakpoints and t split [s, t] into
    pieces, which are integrated from the identity in batches of about
    _BATCH_ELEMENTS piece x frequency elements (see :func:`_integrate_pieces`)
    and composed into the segments in time order.  Where b jumps and the mass
    is constant, every piece is constant and takes one exponential instead
    (see :func:`_constant_pieces`).

    Returns
    -------
    (Y_end, segments, result) : E(t, s, xi) (n, 2, 2), the running product of
        the segments; the segment propagators (len(checkpoints), n, 2, 2);
        and the :class:`PropagationResult` of the whole sweep.  Both arrays
        are float64 and hold the real form R = S^-1 E S of each propagator
        (see the module docstring), which has the norms and spectra of E.
        With s == t both are identities and every count is zero.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("s and t must be finite")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size == 0:
        raise ValueError("xi must hold at least one frequency")
    if not np.all(np.isfinite(xi) & (xi >= 0.0)):
        raise ValueError("xi must be finite and non-negative")
    chk_times = np.asarray([] if checkpoints is None else checkpoints, dtype=float)
    if not np.all(np.diff(np.concatenate([[s], chk_times, [t]])) >= 0.0):
        raise ValueError("the sweep runs forward only: need s <= checkpoints <= t, non-decreasing")
    constant = spec.b.has_jumps and not spec.epsilon > 0.0
    if constant:
        h = np.sqrt(xi * xi + spec.m0 * spec.m0)
    else:
        factors = _make_factors(spec, xi * xi)
        # sup ||K|| <= sup h + 2 sup|b|, with h^2 <= xi^2 + m0^2 + epsilon as sup|m1| = 1
        kappa = math.hypot(xi.max(), spec.m0, math.sqrt(spec.epsilon)) + 2.0 * spec.b.sup_abs
        dt_max = _STEP_NORM_CAP / kappa if kappa > 0.0 else math.inf
    n = xi.size
    chk = np.empty((chk_times.size, n, 2, 2))
    chk[:] = np.eye(2)
    result = PropagationResult(0.0, 0, 0)

    forced = _sorted_unique(np.concatenate([spec.breakpoints_in(s, t), chk_times, [t]]))
    edges = np.concatenate([[s], forced[forced > s]])
    starts, lengths, ends = edges[:-1], np.diff(edges), edges[1:]
    dt_floor = 1e-13 * max(1.0, t - s)
    dt_hint = (t - s) / 100.0
    batch = max(1, _BATCH_ELEMENTS // n)
    Y = _identity(n)  # the running segment, entry first
    done = _identity(n)  # E(last checkpoint, s)
    i = int(np.sum(chk_times == s))  # checkpoints at s record E(s, s) = I
    for k in range(0, starts.size, batch):
        if constant:
            pieces = _constant_pieces(spec.b.eval, h, starts[k : k + batch], lengths[k : k + batch], result)
        else:
            pieces, dt_hint = _integrate_pieces(
                factors, starts[k : k + batch], lengths[k : k + batch], n, tol, dt_hint, dt_floor, dt_max, result
            )
        for j, end in enumerate(ends[k : k + batch]):
            Y = _mul(pieces[:, :, j], Y)
            while i < chk_times.size and chk_times[i] == end:
                chk[i] = Y.transpose(2, 0, 1)
                done = _mul(Y, done)
                Y = _identity(n)
                i += 1
    return np.ascontiguousarray(_mul(Y, done).transpose(2, 0, 1)), chk, result


# -- quadrature ----------------------------------------------------------------


def _cumulative_simpson_uniform(y, h):
    """Cumulative integral of samples ``y`` on a uniform grid of spacing ``h``.

    Composite Simpson at even indices; odd half-cells use cubic four-point
    stencils, so polynomials up to degree three integrate exactly.  ``y`` has
    shape (n, ...) with n odd; ``h`` may be negative (descending grids
    integrate with sign), or an array of spacings that broadcasts against
    ``y[0]``, one per column.
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
