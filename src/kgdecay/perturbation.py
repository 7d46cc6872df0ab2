"""Admissible mass perturbations: Lambert W bound and perturbed re-scan.

Once a constant-mass certificate (N, k, c1) exists, a periodic perturbation
m0^2 + eps * m1(t) with sup|m1| = 1 keeps the k-th monodromy power
contractive as long as eps stays below a closed-form bound obtained by
inverting, via the principal Lambert W function, the inequality

    (C_eps / delta1) e^{C_eps kT} e^{(h_xi + 2 beta) kT} (1/c1 - 1) < 1 - c1,

where C_eps(xi) = eps / h_xi and h_xi = sqrt(xi^2 + m0^2).  The binding
frequency is xi = N and the prefactor is minimized at xi = 0, giving

    eps_max = (m0 / kT) * W(c1 * log(1/c1) * exp(-(h_N + 2 beta) kT)).

Everything here is audited numerically: the inequality is re-checked at
xi in {0, N} and the perturbed monodromy powers are re-scanned directly.
The tests add a third check: the Gronwall difference bound behind the
inequality (tests/oracles.py) dominates the measured propagator deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ModelSpec
from .errors import NoContractionError
from .monodromy import ContractionCertificate, assemble_certificate, monodromy_grid, power_norms
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
    """Closed-form admissible perturbation amplitude with its audit record."""

    epsilon_max: float
    w_argument: float
    vacuous: bool
    inputs: dict = field(default_factory=dict)
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
            "inputs": dict(self.inputs),
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
    return EpsilonBound(
        epsilon_max=eps,
        w_argument=w_arg,
        vacuous=vacuous,
        inputs={"m0": m0, "k": cert.k, "T": cert.T, "c1": cert.c1, "N": cert.N, "beta": cert.beta},
        audit=audit,
    )


def verify_perturbed_contraction(
    spec_eps: ModelSpec,
    cert: ContractionCertificate,
    tol: float = DEFAULT_TOL,
):
    """Re-scan ||M_eps^k(t, xi)|| on the certificate grids.

    Returns (ok, worst): ok when the grid supremum stays below
    1 - PERTURBED_CONTRACTION_SLACK.  Amplitudes beyond the closed-form bound
    are allowed here (exploration); the scan reports rather than raises.
    """
    nt = int(cert.grids.get("contraction_t_points", 64))
    nxi = int(cert.grids.get("contraction_xi_points", 256))
    t_grid = np.linspace(0.0, cert.T, nt)
    xi_grid = np.linspace(0.0, cert.N, nxi)
    M = monodromy_grid(spec_eps, t_grid, xi_grid, tol)
    worst = float(np.max(power_norms(M, cert.k)))
    return worst < 1.0 - PERTURBED_CONTRACTION_SLACK, worst


def perturbed_certificate(
    spec_eps: ModelSpec,
    cert: ContractionCertificate,
    tol: float = DEFAULT_TOL,
    worst: float | None = None,
) -> ContractionCertificate:
    """Certificate whose c1 is the directly verified perturbed contraction.

    The threshold N and power k carry over; c1 (and so delta1, C) is replaced
    by the verified grid supremum of ||M_eps^k||.  ``worst`` is that supremum
    from an earlier :func:`verify_perturbed_contraction` on the same model and
    certificate; when it is None the re-scan runs here.  Raises
    NoContractionError when the perturbed scan is not contractive; its
    ``worst`` carries the norm only, as (nan, nan, norm).
    """
    if worst is None:
        _, worst = verify_perturbed_contraction(spec_eps, cert, tol)
    if not worst < 1.0 - PERTURBED_CONTRACTION_SLACK:
        raise NoContractionError(
            f"perturbed monodromy power is not contractive (sup ||M_eps^k|| = {worst:.6g})",
            worst=(math.nan, math.nan, worst),
        )
    grids = dict(cert.grids)
    grids["perturbed_rescan"] = True
    return assemble_certificate(spec_eps, cert.N, cert.k, worst, grids, dict(cert.tolerances))
