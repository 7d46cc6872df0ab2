"""End-to-end decay evidence: long-horizon sup-norm curves versus certificates.

The propagator norm sup over frequencies bounds all three energy-norm
estimates of the underlying evolution (solution, gradient, time derivative),
so the decay evidence is computed once at the matrix level: evolve
max over a frequency grid of ||E(t, 0, xi)|| on a long time grid, fit the
empirical exponential rate, and compare against the certified rate
min(delta0, delta1) with prefactor max(e^{delta0 T}, e^{delta1 k T}).

Long horizons use the period decomposition t = l T + s: the propagator is the
cached one-period monodromy power applied to a cached base segment, so no
integration ever spans more than two periods.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ModelSpec
from .errors import FitError, IntegrationFailureError, ModelAssumptionError
from .monodromy import SCAN_CHUNK, ContractionCertificate, _chunks
from .propagator import (
    DEFAULT_TOL,
    _cumulative_simpson_uniform,
    inv2,
    propagate_grid,
    spectral_norm_2x2,
)

VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"
VERDICT_INCONCLUSIVE = "Inconclusive"

# Domination slack: the curve must stay below bound * (1 + this).
DOMINATION_SLACK = 1e-3


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
    k: int
    T: float
    gamma_curve: np.ndarray | None = None
    failures: list = field(default_factory=list)

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
    delta = min(cert.delta0, cert.delta1)
    pref = max(math.exp(cert.delta0 * cert.T), math.exp(cert.delta1 * cert.k * cert.T))
    return pref * np.exp(-delta * (np.asarray(t, dtype=float) - cert.k * cert.T))


def _fit_log_slope(times, values):
    """Least-squares line through (t, log v); returns (slope, rms residual)."""
    x = np.asarray(times, dtype=float)
    y = np.log(np.asarray(values, dtype=float))
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def fit_rate(times, values, burn_in: float = 0.0) -> float:
    """Fitted exponential decay rate (positive = decay) after ``burn_in``.

    Least-squares slope of the log curve on [burn_in, end]; requires at least
    8 points after burn-in and strictly positive values.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = times >= burn_in
    if int(np.sum(mask)) < 8:
        raise FitError(f"need >= 8 points after burn-in, got {int(np.sum(mask))}")
    if np.any(values[mask] <= 0.0) or not np.all(np.isfinite(values[mask])):
        raise FitError("rate fit requires positive finite values")
    slope, _ = _fit_log_slope(times[mask], values[mask])
    return -slope


def sup_norm_curve(
    spec: ModelSpec,
    cert: ContractionCertificate,
    t_end: float,
    nxi_low: int = 256,
    nxi_high: int = 64,
    xi_grid=None,
    tol: float = DEFAULT_TOL,
    burn_in: float | None = None,
    with_gamma: bool = False,
) -> DecayReport:
    """Evolve sup over frequencies of ||E(t, 0, xi)|| up to ``t_end``.

    The time grid holds every multiple of T/4 up to ``t_end``.  Frequencies
    default to the union of nxi_low points on [0, N] and nxi_high points on
    [N, 4N]; pass ``xi_grid`` to override.  Each time t = l T + s is evaluated
    as ||M(s, xi)^l E(s, 0, xi)|| from one checkpointed sweep over [0, 2T]
    per frequency chunk.
    """
    T, k = spec.T, cert.k
    if t_end < 10.0 * k * T:
        raise ValueError(f"t_end must be at least 10 kT = {10.0 * k * T:g}, got {t_end}")
    if xi_grid is None:
        xi_grid = np.concatenate(
            [np.linspace(0.0, cert.N, nxi_low), np.linspace(cert.N, 4.0 * cert.N, nxi_high)]
        )
    else:
        xi_grid = np.asarray(xi_grid, dtype=float)

    n_steps = int(math.floor(t_end / (T / 4.0) + 1e-9))
    times = np.arange(n_steps + 1) * (T / 4.0)
    offsets = np.array([0.0, 0.25 * T, 0.5 * T, 0.75 * T])
    checkpoints = np.concatenate([offsets, offsets + T])
    n_periods = n_steps // 4 + 1

    failures = []
    curves = []
    for xis in _chunks(xi_grid, SCAN_CHUNK):
        try:
            _, chk, _ = propagate_grid(spec, 0.0, 2.0 * T, xis, tol, checkpoints)
        except IntegrationFailureError as exc:
            failures.append({"t_fail": exc.t_fail, "xi_first": float(xis[0])})
            continue
        E0 = chk[:4]  # E(s, 0) at the four base offsets
        M = chk[4:] @ inv2(E0)  # M(s) = E(s + T, 0) E(s, 0)^{-1}
        out = np.empty((n_steps + 1, xis.size))
        P = E0.copy()
        for ell in range(n_periods):
            norms = spectral_norm_2x2(P)  # (4, nxi)
            for r in range(4):
                j = 4 * ell + r
                if j <= n_steps:
                    out[j] = norms[r]
            if ell + 1 < n_periods:
                P = M @ P
        curves.append(out)
    if not curves:
        raise IntegrationFailureError("all frequency chunks failed to propagate", t_fail=0.0)
    curve = np.max(np.concatenate(curves, axis=1), axis=1)

    bound = certified_bound(cert, times)
    delta = min(cert.delta0, cert.delta1)
    pref = max(math.exp(cert.delta0 * cert.T), math.exp(cert.delta1 * cert.k * cert.T))

    if burn_in is None:
        burn_in = 2.0 * k * T
    fit_mask = times >= burn_in
    slope, resid = _fit_log_slope(times[fit_mask], curve[fit_mask])
    fitted = -slope

    if failures:
        verdict = VERDICT_INCONCLUSIVE
    elif np.all(curve <= bound * (1.0 + DOMINATION_SLACK)):
        verdict = VERDICT_PASS
    else:
        verdict = VERDICT_FAIL

    gamma = gamma_curve(spec, times) if with_gamma else None
    return DecayReport(
        time_grid=times,
        sup_norm_curve=curve,
        bound_curve=bound,
        certified_rate=delta,
        certified_prefactor=pref,
        fitted_rate=fitted,
        fit_residual=resid,
        burn_in=burn_in,
        verdict=verdict,
        k=k,
        T=T,
        gamma_curve=gamma,
        failures=failures,
    )


def gamma_curve(spec: ModelSpec, times, points_per_period: int = 4096) -> np.ndarray:
    """Mass-influence diagnostic exp(-int_0^t m^2(tau)/b(tau) dtau) on an ascending time grid.

    Monotone non-increasing in t; one cumulative pass.  Requires strictly
    positive dissipation.
    """
    if not spec.b_strictly_positive:
        raise ModelAssumptionError("the mass-influence diagnostic requires b > 0 on the grid")
    times = np.asarray(times, dtype=float)
    t_end = float(times[-1])
    if t_end == 0.0:
        return np.ones_like(times)
    n = 2 * max(65, int(points_per_period * t_end / spec.T) // 2) + 1
    tau = np.linspace(0.0, t_end, n)
    integrand = spec.m_squared(tau) / spec.b.eval(tau)
    cum = _cumulative_simpson_uniform(integrand, t_end / (n - 1))
    return np.exp(-np.interp(times, tau, cum))


def decay_constants(report: DecayReport, cert: ContractionCertificate, perturbed: bool = False):
    """The norm-estimate constants implied by a report and its certificate.

    Returns a dict holding the decay rate (named "delta" for constant mass,
    "sigma" for perturbed mass, where sigma is the proof-implied certified
    rate of the perturbed run), the combined prefactor, and the three energy
    inequalities stated with those constants.
    """
    delta = min(cert.delta0, cert.delta1)
    pref = max(math.exp(cert.delta0 * cert.T), math.exp(cert.delta1 * cert.k * cert.T))
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "sup_norm", "bound"])
        for t, v, b in zip(report.time_grid, report.sup_norm_curve, report.bound_curve):
            w.writerow([f"{t:.17g}", f"{v:.17g}", f"{b:.17g}"])
