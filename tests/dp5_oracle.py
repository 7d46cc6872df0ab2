"""Dormand-Prince 5(4) reference integrator.  TEST ORACLE ONLY.

An explicit embedded Runge-Kutta pair on d/dt E = i A(t, xi) E, batched over
frequencies, with entrywise mixed absolute/relative error control and the
model's coefficient breakpoints forced as step boundaries.  It shares no code
with the Magnus propagator, so agreement between the two is evidence for both.
"""

import numpy as np

from kgdecay.errors import IntegrationFailureError

_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0, -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

# Per-step tolerance relative to the requested global tolerance.
STEP_SAFETY = 0.02


def _make_rhs(spec, xi):
    xi2 = np.asarray(xi, dtype=float) ** 2

    def rhs(t, Y):
        ih = 1j * np.sqrt(xi2 + spec.m_squared(t))
        out = np.empty_like(Y)
        out[:, 0, :] = ih[:, None] * Y[:, 1, :]
        out[:, 1, :] = ih[:, None] * Y[:, 0, :] - (2.0 * spec.b.eval_scalar(t)) * Y[:, 1, :]
        return out

    return rhs


def _dp5_segment(rhs, t0, t1, Y, step_tol, dt):
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    dt = direction * min(abs(dt), abs(t1 - t0))
    ks = [None] * 7
    while (t1 - t) * direction > 0.0:
        last = abs(dt) >= abs(t1 - t)
        if last:
            dt = t1 - t
        if abs(dt) < 1e-13:
            raise IntegrationFailureError(f"DP5 oracle step underflow at t = {t}", t_fail=t)
        ks[0] = rhs(t, Y)
        for i in range(1, 7):
            yi = Y.copy()
            for j, a in enumerate(_A[i]):
                if a != 0.0:
                    yi += (dt * a) * ks[j]
            ks[i] = rhs(t + _C[i] * dt, yi)
        y5 = Y + dt * sum(b * k for b, k in zip(_B5, ks) if b != 0.0)
        err = dt * sum(e * k for e, k in zip(_E, ks) if e != 0.0)
        scale = step_tol * (1.0 + np.maximum(np.abs(Y), np.abs(y5)))
        ratio = float(np.max(np.abs(err) / scale))
        if ratio <= 1.0:
            t = t1 if last else t + dt
            Y = y5
            dt *= 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio**-0.2))
        else:
            dt *= max(0.2, 0.9 * ratio**-0.2)
    return Y, dt


def dp5_propagate(spec, s, t, xi, tol):
    """E(t, s, xi) for a batch of frequencies, shape (len(xi), 2, 2)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    rhs = _make_rhs(spec, xi)
    Y = np.broadcast_to(np.eye(2, dtype=complex), (xi.size, 2, 2)).copy()
    direction = 1.0 if t > s else -1.0
    stops = [float(x) for x in spec.breakpoints_in(s, t)][:: int(direction)] + [t]
    dt, cur = abs(t - s) / 100.0, s
    for nxt in stops:
        Y, dt = _dp5_segment(rhs, cur, nxt, Y, tol * STEP_SAFETY, dt)
        cur = nxt
    return Y
