"""Numerical decay certificates for damped Klein-Gordon models with
time-periodic dissipation and mass.

The pipeline: per-frequency fundamental solutions (propagator), monodromy
spectrum and contraction powers (monodromy), the high-frequency threshold
(highfreq), closed-form admissible mass perturbations (perturbation), and
long-horizon decay evidence (certify), orchestrated by a CLI (cli).
"""

from .coefficients import ModelSpec, PeriodicCoefficient
from .propagator import (
    PropagationResult,
    det2,
    eigenvalues_2x2,
    propagate_grid,
    spectral_norm_2x2,
)
from .monodromy import (
    ContractionCertificate,
    MonodromyScan,
    contraction_search,
    monodromy_grid,
    samples_from_grid,
    scan_to_csv,
)
from .highfreq import (
    ThresholdResult,
    find_threshold_N,
    suplarge_quantity,
    verify_highfreq_contraction,
)
from .perturbation import (
    EpsilonBound,
    epsilon_bound,
    lambert_w0,
    verify_perturbed_contraction,
    verify_perturbed_highfreq,
)
from .certify import (
    DecayReport,
    decay_constants,
    fit_rate,
    gamma_curve,
    sup_norm_curve,
)
from . import errors

__all__ = [
    "ContractionCertificate",
    "DecayReport",
    "EpsilonBound",
    "ModelSpec",
    "MonodromyScan",
    "PeriodicCoefficient",
    "PropagationResult",
    "ThresholdResult",
    "contraction_search",
    "decay_constants",
    "det2",
    "eigenvalues_2x2",
    "epsilon_bound",
    "errors",
    "find_threshold_N",
    "fit_rate",
    "gamma_curve",
    "lambert_w0",
    "monodromy_grid",
    "propagate_grid",
    "samples_from_grid",
    "scan_to_csv",
    "spectral_norm_2x2",
    "suplarge_quantity",
    "sup_norm_curve",
    "verify_highfreq_contraction",
    "verify_perturbed_contraction",
    "verify_perturbed_highfreq",
]

__version__ = "0.1.0"
