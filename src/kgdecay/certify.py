"""End-to-end decay evidence: long-horizon sup-norm curves versus certificates.

The propagator norm sup over frequencies bounds all three energy-norm
estimates of the underlying evolution (solution, gradient, time derivative),
so the decay evidence is computed once at the matrix level: evolve
max over a frequency grid of ||E(t, 0, xi)|| on a long time grid, fit the
empirical exponential rate, and compare against the certified rate
min(delta0, delta1) with prefactor max(e^{delta0 T}, e^{delta1 k T}).

Long horizons use the period decomposition t = l T + s: the propagator is the
cached one-period monodromy power applied to a cached base segment, so no
integration ever spans more than one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelSpec
from .errors import FitError, ModelAssumptionError
from .highfreq import _require_points
from .monodromy import ContractionCertificate, _period_products, _write_csv
from .propagator import DEFAULT_TOL, _cumulative_simpson_uniform, _mul, propagate_grid, spectral_norm_2x2

VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"

# Domination slack: the curve must stay below bound * (1 + this).
DOMINATION_SLACK = 1e-3

# Simpson cells per period of the mass-influence diagnostic; an even count.
GAMMA_POINTS_PER_PERIOD = 4096


@dataclass
class DecayReport:
    """Computed decay evidence for one model against one certificate."""

    time_grid: np.ndarray
    sup_norm_curve: np.ndarray
    bound_curve: np.ndarray
    certified_rate: float
    certified_prefactor: float
    fitted_rate: float
    fit_residual: float
    burn_in: float
    verdict: str
    gamma_curve: np.ndarray | None = None

    def summary_dict(self):
        d = {
            "t_end": float(self.time_grid[-1]),
            "points": int(self.time_grid.size),
            "certified_rate": self.certified_rate,
            "certified_prefactor": self.certified_prefactor,
            "fitted_rate": self.fitted_rate,
            "fit_residual": self.fit_residual,
            "burn_in": self.burn_in,
            "verdict": self.verdict,
        }
        if self.gamma_curve is not None:
            d["gamma_final"] = float(self.gamma_curve[-1])
        return d


def certified_bound(cert: ContractionCertificate, t):
    """The certified envelope C * exp(-delta (t - kT)) with the combined constants."""
    return cert.prefactor * np.exp(-cert.rate * (np.asarray(t, dtype=float) - cert.k * cert.T))


def fit_rate(times, values, burn_in: float = 0.0):
    """Fitted exponential decay rate (positive = decay) after ``burn_in``.

    Least-squares line through (t, log v) on [burn_in, end]; requires at
    least 8 points after burn-in and strictly positive finite values.
    Returns (rate, rms residual of the log fit).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = times >= burn_in
    if int(np.sum(mask)) < 8:
        raise FitError(f"need >= 8 points after burn-in, got {int(np.sum(mask))}")
    if np.any(values[mask] <= 0.0) or not np.all(np.isfinite(values[mask])):
        raise FitError("rate fit requires positive finite values")
    x, y = times[mask], np.log(values[mask])
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return -float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def sup_norm_curve(
    spec: ModelSpec,
    cert: ContractionCertificate,
    t_end: float,
    nxi_low: int = 256,
    nxi_high: int = 64,
    tol: float = DEFAULT_TOL,
) -> DecayReport:
    """Evolve sup over frequencies of ||E(t, 0, xi)|| up to ``t_end``.

    The time grid holds every multiple of T/4 up to ``t_end``.  The
    frequencies are the union of nxi_low points on [0, N] and nxi_high points
    on [N, 4N].  Each time t = l T + s is evaluated as
    ||M(s, xi)^l E(s, 0, xi)||, composed by
    :func:`~kgdecay.monodromy._period_products` from one checkpointed sweep
    over [0, T] per band.  A sweep integrates the four quarter periods (split
    further at coefficient jumps) as one batch on one step sequence, set by
    the hardest frequency and quarter, so the low band does not take the high
    band's steps.  The rate is fitted after a burn-in of 2kT; the
    mass-influence diagnostic is added when b > 0 everywhere.
    """
    T, k = spec.T, cert.k
    if not (math.isfinite(t_end) and t_end >= 10.0 * k * T):
        raise ValueError(f"t_end must be finite and at least 10 kT = {10.0 * k * T:g}, got {t_end}")
    _require_points(nxi_low=nxi_low, nxi_high=nxi_high)
    bands = [np.linspace(0.0, cert.N, nxi_low), np.linspace(cert.N, 4.0 * cert.N, nxi_high)]

    n_steps = int(math.floor(t_end / (T / 4.0) + 1e-9))
    times = np.arange(n_steps + 1) * (T / 4.0)
    checkpoints = np.array([0.0, 0.25 * T, 0.5 * T, 0.75 * T, T])
    n_periods = n_steps // 4 + 1

    segments = np.concatenate([propagate_grid(spec, 0.0, T, xi, tol, checkpoints)[1] for xi in bands], axis=1)
    # E(s, 0) and M(s) at the four base offsets, entry first (2, 2, 4, n);
    # the real form has the norms of E
    P, M = (np.ascontiguousarray(A[:4].transpose(2, 3, 0, 1)) for A in _period_products(segments))
    curve = np.empty(n_steps + 1)
    for ell in range(n_periods):
        norms = np.max(spectral_norm_2x2(np.moveaxis(P, (0, 1), (-2, -1))), axis=1)  # (4,)
        top = min(4, n_steps + 1 - 4 * ell)
        curve[4 * ell : 4 * ell + top] = norms[:top]
        if ell + 1 < n_periods:
            P = _mul(M, P)

    bound = certified_bound(cert, times)
    burn_in = 2.0 * k * T
    fitted, resid = fit_rate(times, curve, burn_in)

    verdict = VERDICT_PASS if np.all(curve <= bound * (1.0 + DOMINATION_SLACK)) else VERDICT_FAIL

    return DecayReport(
        time_grid=times,
        sup_norm_curve=curve,
        bound_curve=bound,
        certified_rate=cert.rate,
        certified_prefactor=cert.prefactor,
        fitted_rate=fitted,
        fit_residual=resid,
        burn_in=burn_in,
        verdict=verdict,
        gamma_curve=gamma_curve(spec, times) if spec.b_strictly_positive else None,
    )


def gamma_curve(spec: ModelSpec, times) -> np.ndarray:
    """Mass-influence diagnostic exp(-int_0^t m^2(tau)/b(tau) dtau) on an ascending time grid.

    Monotone non-increasing in t.  The integrand is T-periodic, so one
    cumulative pass over [0, T], on GAMMA_POINTS_PER_PERIOD cells, gives the
    integral at every t = l T + s as l I(T) + I(s).
    Requires strictly positive dissipation.
    """
    if not spec.b_strictly_positive:
        raise ModelAssumptionError("the mass-influence diagnostic requires b > 0")
    times = np.asarray(times, dtype=float)
    T = spec.T
    tau = np.linspace(0.0, T, GAMMA_POINTS_PER_PERIOD + 1)
    cum = _cumulative_simpson_uniform(spec.m_squared(tau) / spec.b.eval(tau), T / GAMMA_POINTS_PER_PERIOD)
    periods, offsets = np.divmod(times, T)
    return np.exp(-(periods * cum[-1] + np.interp(offsets, tau, cum)))


def decay_constants(cert: ContractionCertificate, perturbed: bool = False):
    """The norm-estimate constants implied by a certificate.

    Returns a dict holding the decay rate (named "delta" for constant mass,
    "sigma" for perturbed mass, where sigma is the proof-implied certified
    rate of the perturbed run), the combined prefactor, and the three energy
    inequalities stated with those constants.
    """
    delta, pref = cert.rate, cert.prefactor
    name = "sigma" if perturbed else "delta"
    decay = f"{pref:.6g} * exp(-{delta:.6g} * t)"
    return {
        "rate_name": name,
        "rate": delta,
        "prefactor": pref,
        "proof_implied": bool(perturbed),
        "inequalities": [
            f"||u(t)||_L2      <= {decay} * (||u0||_L2 + ||u1||_H^-1)",
            f"||grad u(t)||_L2 <= {decay} * (||u0||_H1 + ||u1||_L2)",
            f"||u_t(t)||_L2    <= {decay} * (||u0||_H1 + ||u1||_L2)",
        ],
    }


def decay_to_csv(path, report: DecayReport) -> None:
    """Write the decay curve as CSV: t, sup_norm, bound."""
    _write_csv(path, ("t", "sup_norm", "bound"),
               zip(report.time_grid.tolist(), report.sup_norm_curve.tolist(), report.bound_curve.tolist()))
