"""Admissible mass perturbations: Lambert W bound and perturbed contraction.

Once a constant-mass certificate (N, k, c1) exists, a periodic perturbation
m0^2 + eps * m1(t) with sup|m1| = 1 keeps the k-th monodromy power
contractive as long as eps stays below a closed-form bound obtained by
inverting, via the principal Lambert W function, the inequality

    (C_eps / delta1) e^{C_eps kT} e^{(h_xi + 2 beta) kT} (1/c1 - 1) < 1 - c1,

where C_eps(xi) = eps / h_xi and h_xi = sqrt(xi^2 + m0^2).  The binding
frequency is xi = N and the prefactor is minimized at xi = 0, giving

    eps_max = (m0 / kT) * W(c1 * log(1/c1) * exp(-(h_N + 2 beta) kT)).

Everything here is audited numerically: the inequality is re-checked at
xi in {0, N}.  The perturbed monodromy powers are bounded in closed form
from the constant-mass ones: the generator K_0 = [[0, h0], [-h0, -2b]] has
symmetric part diag(0, -2b) <= 0, so ||E_0(t, s)|| <= 1, and the perturbation
changes K by at most delta = eps sup|m1| / h0.  Variation of constants then
gives ||E_eps(t, s) - E_0(t, s)|| <= exp(delta (t - s)) - 1
(:func:`difference_bound`), far sharper than the Gronwall step behind the
inequality, which does not use dissipativity.  The same bound, added to the
constant-mass verify maximum, checks the high-frequency band above N
(:func:`verify_perturbed_highfreq`).  Only when a bound cannot decide is the
perturbed model swept directly; both checks return the route that decided.
The tests add a third check: the Gronwall difference bound
(tests/oracles.py) dominates the measured propagator deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import highfreq
from .coefficients import ModelSpec
from .highfreq import LOG_FLOAT_MAX, VERIFY_SLACK, _require_points
from .monodromy import ContractionCertificate, monodromy_grid, power_norms
from .propagator import DEFAULT_TOL

# Residual target for the Lambert W defining identity |W exp(W) - x|.
W_RESIDUAL_TOL = 1e-14

# A perturbed scan passes when its grid supremum stays below 1 - this slack.
PERTURBED_CONTRACTION_SLACK = 1e-6


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function on [0, inf).

    Guarded Halley iteration from the initial guess log(1 + x); the result w
    satisfies |w exp(w) - x| <= 1e-14 * max(1, x).
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"lambert_w0 requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 0.1 * W_RESIDUAL_TOL * max(1.0, x):
            break
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if step > w:  # keep the iterate on the principal branch
            step = 0.5 * w
        w -= step
    return w


@dataclass(frozen=True)
class EpsilonBound:
    """Closed-form admissible perturbation amplitude with its audit record.

    Its inputs are the certificate's (N, k, c1, beta, T) and the mass m0; the
    record does not repeat them.
    """

    epsilon_max: float
    w_argument: float
    vacuous: bool
    audit: dict = field(default_factory=dict)

    @property
    def audit_pass(self) -> bool:
        return all(entry["pass"] for entry in self.audit.values())

    def as_dict(self):
        def jsonable(v):
            # strict JSON has no Infinity; a -inf log-lhs means "trivially passes"
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        return {
            "epsilon_max": self.epsilon_max,
            "w_argument": self.w_argument,
            "vacuous": self.vacuous,
            "audit": {k: {kk: jsonable(vv) for kk, vv in v.items()} for k, v in self.audit.items()},
            "audit_pass": self.audit_pass,
        }


def _audit_entry(eps, xi, m0, kT, delta1, beta, c1):
    """Check the contraction-budget inequality at one frequency, in log space.

    lhs = (C_eps/delta1) e^{C_eps kT} e^{(h+2beta) kT} (1/c1 - 1), rhs = 1 - c1.
    """
    h = math.hypot(xi, m0)
    log_rhs = math.log1p(-c1)
    if eps == 0.0:
        return {"xi": xi, "log_lhs": -math.inf, "log_rhs": log_rhs, "pass": True}
    ce = eps / h
    log_lhs = (
        math.log(ce / delta1)
        + ce * kT
        + (h + 2.0 * beta) * kT
        + math.log(math.expm1(math.log(1.0 / c1)))
    )
    return {"xi": xi, "log_lhs": log_lhs, "log_rhs": log_rhs, "pass": log_lhs < log_rhs}


def epsilon_bound(cert: ContractionCertificate, m0: float) -> EpsilonBound:
    """Admissible perturbation amplitude for a certificate, with audit.

    Uses the binding frequency xi = N inside the W argument and the minimal
    prefactor m0 / (kT), so the bound is admissible across the whole certified
    band [0, N]; the audit re-checks the raw inequality at xi in {0, N}.
    When the W argument underflows to zero the bound is reported as 0 with a
    ``vacuous`` flag rather than as an error.
    """
    if m0 <= 0.0:
        raise ValueError("epsilon_bound requires m0 > 0")
    kT = cert.k * cert.T
    hN = math.hypot(cert.N, m0)
    L = math.log(1.0 / cert.c1)
    w_arg = cert.c1 * L * math.exp(-(hN + 2.0 * cert.beta) * kT)
    eps = (m0 / kT) * lambert_w0(w_arg)
    vacuous = w_arg == 0.0
    audit = {
        "xi_0": _audit_entry(eps, 0.0, m0, kT, cert.delta1, cert.beta, cert.c1),
        "xi_N": _audit_entry(eps, cert.N, m0, kT, cert.delta1, cert.beta, cert.c1),
    }
    return EpsilonBound(epsilon_max=eps, w_argument=w_arg, vacuous=vacuous, audit=audit)


def difference_bound(spec_eps: ModelSpec, span: float, h0: float) -> float:
    """Bound on ||E_eps(t, s) - E_0(t, s)|| for t - s <= span at every xi with h >= h0.

    E_0 is the propagator of the same model with the perturbation switched
    off and h = sqrt(xi^2 + m0^2).  The bound is exp(delta span) - 1 with
    delta = eps sup|m1| / h0, and inf when the exponent overflows.
    """
    if not spec_eps.epsilon > 0.0:
        return 0.0
    exponent = spec_eps.epsilon * spec_eps.m1.sup_abs * span / h0
    return math.expm1(exponent) if exponent <= LOG_FLOAT_MAX else math.inf


def verify_perturbed_highfreq(
    spec_eps: ModelSpec,
    N: float,
    max_norm: float,
    nt: int = 64,
    nxi: int = 128,
    tol: float = DEFAULT_TOL,
):
    """Bound ||M_eps(t, xi)|| on the verify band above N.

    ``max_norm`` is the constant-mass maximum that
    :func:`highfreq.verify_highfreq_contraction` found on the same band.
    There h >= sqrt(N^2 + m0^2), so max_norm plus the closed-form
    :func:`difference_bound` over one period bounds the perturbed norms, and
    decides when it clears exp(-beta T / 2) + VERIFY_SLACK.  Otherwise the
    perturbed model is swept on the same nt x nxi grid.

    Returns (ok, worst, route): whether it passes, the bound or the swept
    maximum, and "bound" or "sweep".
    """
    _require_points(nt=nt, nxi=nxi)
    worst = max_norm + difference_bound(spec_eps, spec_eps.T, math.hypot(N, spec_eps.m0))
    if worst <= math.exp(-spec_eps.beta * spec_eps.T / 2.0) + VERIFY_SLACK:
        return True, worst, "bound"
    # looked up in highfreq at call time, so a wrapper installed there sees the sweep
    worst, _, ok = highfreq.verify_highfreq_contraction(spec_eps, N, nt, nxi, tol=tol)
    return ok, worst, "sweep"


def verify_perturbed_contraction(
    spec_eps: ModelSpec,
    cert: ContractionCertificate,
    t_grid,
    xi_grid,
    tol: float = DEFAULT_TOL,
):
    """Bound ||M_eps^k(t, xi)|| on the certificate's (t, xi) grid.

    c1 bounds ||M_0^k|| on that grid and M^k(t) = E(t + kT, t), so
    c1 + :func:`difference_bound` over kT bounds ||M_eps^k|| there.

    Returns (ok, worst, route): ok when worst stays below
    1 - PERTURBED_CONTRACTION_SLACK.  ``worst`` is that closed-form bound
    when it is below this level (route "bound"), and otherwise the supremum
    of a direct re-scan on ``t_grid`` x ``xi_grid`` (route "sweep").
    Amplitudes beyond the closed-form epsilon bound are allowed here
    (exploration); the scan reports rather than raises.
    """
    bound = cert.c1 + difference_bound(spec_eps, cert.k * cert.T, spec_eps.m0)
    if bound < 1.0 - PERTURBED_CONTRACTION_SLACK:
        return True, bound, "bound"
    M = monodromy_grid(spec_eps, t_grid, xi_grid, tol)
    worst = float(np.max(power_norms(M, cert.k)))
    return worst < 1.0 - PERTURBED_CONTRACTION_SLACK, worst, "sweep"
