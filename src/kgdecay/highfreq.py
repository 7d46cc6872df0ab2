"""High-frequency diagonalization frames and the frequency-threshold search.

Above a threshold frequency the monodromy matrix contracts by exp(-beta T/2)
per period.  The threshold is located by evaluating, on a frequency window,
the product  ||N1(t+T)|| * exp(int_t^{t+T} ||R2||) * ||N1inv(t)||  built from
a two-step diagonalization: a constant unitary rotation followed by a
corrector N1 = [[1, n-], [n+, 1]] whose off-diagonal entries are oscillatory
integrals of the dissipation against the accumulated phase of the symbol.
For real b and h, n- = conj(n+), so N1 is Hermitian and every norm in the
product is a closed scalar function of |n+|.  The remainder
R2 = -N1^{-1} R1 (I - N1) shrinks as the frequency grows, the product
approaches one, and the first window whose supremum falls below
exp(beta T / 2) fixes the threshold.  The resulting bound is then re-checked
by direct monodromy norms (see :func:`verify_highfreq_contraction`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ConstantMass, ModelSpec
from .errors import FrameError, ThresholdSearchError
from .monodromy import monodromy_grid
from .propagator import DEFAULT_TOL, _cumulative_simpson_uniform, spectral_norm_2x2

# Frames with |det N1| below this are treated as singular (frequency too low).
FRAME_DET_GUARD = 0.1

# Oscillation sampling: points per period, at least this many and at least
# this many per unit of accumulated phase over one period.
MIN_POINTS_PER_PERIOD = 4096
POINTS_PER_PHASE_UNIT = 64

# Default base-time resolution for supremum scans over [0, T).
SUP_T_POINTS = 64

# The threshold search accepts a window only when its supremum clears the
# target by this relative margin, so the result survives grid refinement.
THRESHOLD_ACCEPT_MARGIN = 1e-3

# The threshold search runs with the massless symbol, so N depends on b alone.
# A constant mass m0 acts as the shift xi -> sqrt(xi^2 + m0^2), which can raise
# the frame product; the verify step checks the bound under the real mass.
_MASSLESS = ConstantMass(0.0)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the frequency-threshold search."""

    N: float
    sup_value: float
    target: float
    xi_max_checked: float
    xi_points: int
    t_points: int
    trace: tuple = field(default_factory=tuple)  # (N_candidate, sup_value, accepted)


def _points_per_period(spec: ModelSpec, xi: float, per_period: int | None = None) -> int:
    h_max = math.sqrt(xi * xi + spec.m0 * spec.m0 + spec.epsilon)  # sup|m1| = 1
    p = max(MIN_POINTS_PER_PERIOD, POINTS_PER_PHASE_UNIT * math.ceil(h_max * spec.T))
    if per_period is not None:
        p = max(p, per_period)
    # multiple of the base-time snap resolution, keeps sup grids index-exact
    return SUP_T_POINTS * math.ceil(p / SUP_T_POINTS)


def _suplarge_from_profile(n1_norms, n1inv_norms, r2_cumint, idx, per):
    """Combine profile arrays: max over base indices of
    ||N1(t+T)|| * exp(int_t^{t+T} ||R2||) * ||N1inv(t)||."""
    growth = np.exp(r2_cumint[idx + per] - r2_cumint[idx])
    return float(np.max(n1_norms[idx + per] * growth * n1inv_norms[idx]))


def suplarge_quantity(spec: ModelSpec, xi: float, t_points: int = SUP_T_POINTS) -> float:
    """Supremum over base times in [0, T) of the frame contraction product.

    For real b and h, n- = conj(n+), so N1 is Hermitian with eigenvalues
    1 +/- r, r = |n+| = |c+|.  Its norms are closed scalars:
    ||N1|| = 1 + r, ||N1inv|| = 1/|1 - r|, |det N1| = |1 - r^2| and
    ||R2|| = |b| r / |1 - r|.
    Base times sit on the quadrature grid exactly (t_j = j T / t_points); the
    time integral of ||R2|| uses cumulative Simpson on the same grid.
    Raises FrameError when the corrector degenerates anywhere on [0, 2T].
    """
    per = _points_per_period(spec, xi)
    per = t_points * math.ceil(per / t_points)  # keep base times index-exact
    # phase-resolved quadrature on 2 per + 1 uniform points over [0, 2T]:
    # c+(t) = int_0^t exp(i phi) b with phi(t) = int_0^t h
    tau = np.linspace(0.0, 2.0 * spec.T, 2 * per + 1)
    dt = 2.0 * spec.T / (2 * per)
    b = spec.b.eval(tau)
    osc = np.exp(1j * _cumulative_simpson_uniform(spec.symbol(tau, abs(xi)), dt))
    r = np.abs(_cumulative_simpson_uniform(osc * b, dt))
    gap = np.abs(1.0 - r)
    if float(np.min(gap * (1.0 + r))) < FRAME_DET_GUARD:
        raise FrameError(f"corrector near-singular on [0, 2T] at xi = {xi}")
    r2_cum = _cumulative_simpson_uniform(np.abs(b) * r / gap, dt)
    idx = np.arange(t_points) * (per // t_points)
    return _suplarge_from_profile(1.0 + r, 1.0 / gap, r2_cum, idx, per)


def _window_sup(
    spec: ModelSpec, N: float, xi_points: int, t_points: int, window_factor=10.0, stop_above=None
) -> float:
    """sup over xi in [N, window_factor*N] (xi_points samples) of the frame product.

    With ``stop_above`` set, the scan stops at the first value beyond it (the
    window is already disqualified); the returned value is then only a lower
    bound for the true supremum.
    """
    vals = []
    for x in np.linspace(N, window_factor * N, xi_points):
        try:
            vals.append(suplarge_quantity(spec, float(x), t_points))
        except FrameError:
            vals.append(math.inf)
        if stop_above is not None and vals[-1] > stop_above:
            break
    return float(np.max(vals))


def find_threshold_N(
    spec: ModelSpec,
    xi_points: int = 128,
    t_points: int = SUP_T_POINTS,
    n_max: float = 1e6,
    window_factor: float = 10.0,
) -> ThresholdResult:
    """Locate the smallest frequency threshold N with the window criterion.

    Doubles N from 1 until the supremum of the frame product over
    xi in [N, window_factor*N] falls below exp(beta T / 2) (with a small interior margin
    so the accepted window survives grid refinement), then bisects to three
    significant digits.

    The search itself runs with the massless symbol h = |xi|, so the returned
    threshold depends on the dissipation alone.  A constant mass m0 acts on
    the frame product as the frequency shift xi -> sqrt(xi^2 + m0^2), and the
    product is not monotone in xi, so mass can raise it at a given xi; the
    massless window is not a worst case.  The bound the threshold promises
    is guaranteed under the actual mass by :func:`verify_highfreq_contraction`.
    """
    base = ModelSpec(spec.b, _MASSLESS, spec.T)
    target = math.exp(base.beta * base.T / 2.0)
    accept = target * (1.0 - THRESHOLD_ACCEPT_MARGIN)
    trace = []

    N = 1.0
    sup = _window_sup(base, N, xi_points, t_points, window_factor, stop_above=accept)
    trace.append((N, sup, sup <= accept))
    while sup > accept:
        N *= 2.0
        if N > n_max:
            raise ThresholdSearchError(
                f"no threshold found up to N = {n_max:g} (last sup {sup:.6g} > target {target:.6g})"
            )
        sup = _window_sup(base, N, xi_points, t_points, window_factor, stop_above=accept)
        trace.append((N, sup, sup <= accept))

    lo = N / 2.0  # known failing (or 0.5 when N = 1 passed immediately)
    hi, hi_sup = N, sup
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        sup = _window_sup(base, mid, xi_points, t_points, window_factor, stop_above=accept)
        ok = sup <= accept
        trace.append((mid, sup, ok))
        if ok:
            hi, hi_sup = mid, sup
        else:
            lo = mid
    return ThresholdResult(
        N=hi,
        sup_value=hi_sup,
        target=target,
        xi_max_checked=window_factor * hi,
        xi_points=xi_points,
        t_points=t_points,
        trace=tuple(trace),
    )


def verify_highfreq_contraction(
    spec: ModelSpec,
    N: float,
    nt: int = 64,
    nxi: int = 128,
    xi_factor: float = 10.0,
    tol: float = DEFAULT_TOL,
    slack: float = 1e-6,
):
    """Direct check that ||M(t, xi)|| <= exp(-beta T / 2) + slack above N.

    Scans t on [0, T] (nt points) and xi on [N, xi_factor * N] (nxi points)
    with the actual mass specification of ``spec`` (constant or perturbed).

    Returns (max_norm, bound, ok).
    """
    t_grid = np.linspace(0.0, spec.T, nt)
    xi_grid = np.linspace(N, xi_factor * N, nxi)
    M = monodromy_grid(spec, t_grid, xi_grid, tol)
    max_norm = float(np.max(spectral_norm_2x2(M)))
    bound = math.exp(-spec.beta * spec.T / 2.0)
    return max_norm, bound, max_norm <= bound + slack


def threshold_trace_to_csv(path, result: ThresholdResult) -> None:
    """Write the search trace as CSV: N_candidate, sup_value, accepted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["N_candidate", "sup_value", "accepted"])
        for cand, sup, ok in result.trace:
            w.writerow([f"{cand:.17g}", f"{sup:.17g}", int(ok)])
