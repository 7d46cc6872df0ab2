"""Monodromy family construction, spectrum classification and contraction search.

The monodromy matrix at base time t is the fundamental solution advanced by
one period, M(t, xi) = E(t + T, t, xi).  Its determinant equals
exp(-2 beta T) independently of (t, xi); its spectrum is independent of t;
and for non-negative dissipation its operator norm never exceeds one.  The
contraction search looks for the smallest power k whose grid supremum of
||M^k|| falls below one by a safety margin, which yields the certified
small-frequency decay rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ModelSpec
from .errors import NoContractionError
from .propagator import (
    DEFAULT_TOL,
    det2,
    eigenvalues_2x2,
    inv2,
    propagate_grid,
    spectral_norm_2x2,
)

# Degenerate-discriminant band: |tr^2 - 4 det| below this is a double root.
DEGENERATE_DISC_TOL = 1e-10

# Spectral-radius values above 1 - RHO_BLOCKER_TOL block certification.
RHO_BLOCKER_TOL = 1e-9

# Contraction margin: the grid supremum of ||M^k|| must fall below 1 - margin.
DEFAULT_CONTRACTION_MARGIN = 1e-3

# Frequencies are swept in batches of this size.  All frequencies of a batch
# share one adaptive step sequence, so the batch size is part of what fixes
# the certificate's bytes.
SCAN_CHUNK = 64

CLASS_COMPLEX_PAIR = "ComplexConjugatePair"
CLASS_REAL_PAIR = "RealPair"

# The float columns of the samples table, in CSV order.
SAMPLE_FLOATS = ("t", "xi", "re_eig1", "im_eig1", "re_eig2", "im_eig2", "rho", "norm")


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction constants together with the grids that produced them.

    delta1 and C are arithmetically tied to (k, T, c1):
    delta1 = log(1/c1) / (k T) and C = exp(delta1 k T).
    """

    N: float
    k: int
    c1: float
    delta0: float
    delta1: float
    C: float
    beta: float
    T: float
    grids: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "N": self.N,
            "k": self.k,
            "c1": self.c1,
            "delta0": self.delta0,
            "delta1": self.delta1,
            "C": self.C,
            "beta": self.beta,
            "T": self.T,
            "grids": dict(self.grids),
            "tolerances": dict(self.tolerances),
        }


def _chunks(values, size):
    for i in range(0, len(values), size):
        yield values[i : i + size]


def monodromy_grid(
    spec: ModelSpec,
    t_grid,
    xi_grid,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Monodromy matrices on a (t, xi) grid, shape (nt, nxi, 2, 2).

    One checkpointed sweep of E(., 0, xi) over [0, max(t) + T] per frequency
    chunk supplies every base time at once:
    M(t, xi) = E(t + T, 0, xi) E(t, 0, xi)^{-1}.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    if t_grid.size == 0 or xi_grid.size == 0:
        return np.empty((t_grid.size, xi_grid.size, 2, 2), dtype=complex)
    if np.any(t_grid < 0.0) or np.any(t_grid > spec.T + 1e-12):
        raise ValueError("t_grid must lie within [0, T]")
    T = spec.T
    nt = t_grid.size
    checkpoints = np.concatenate([t_grid, t_grid + T])
    parts = []
    for xis in _chunks(xi_grid, SCAN_CHUNK):
        _, chk, _ = propagate_grid(spec, 0.0, float(t_grid.max()) + T, xis, tol, checkpoints)
        parts.append(chk[nt:] @ inv2(chk[:nt]))
    return np.concatenate(parts, axis=1)


def power_norms(M_grid: np.ndarray, k: int) -> np.ndarray:
    """Spectral norms of the k-th matrix powers over a grid (iterative product)."""
    P = M_grid.copy()
    for _ in range(k - 1):
        P = P @ M_grid
    return spectral_norm_2x2(P)


def contraction_search(M_grid: np.ndarray, k_max: int = 64, margin: float = DEFAULT_CONTRACTION_MARGIN, t_grid=None, xi_grid=None):
    """Smallest k with sup ||M^k|| <= 1 - margin over a precomputed grid.

    Checks the spectral radii first (all must sit below 1 - RHO_BLOCKER_TOL),
    then powers the whole grid iteratively.  Returns (k, c1).
    """
    t_grid = np.asarray(t_grid if t_grid is not None else np.arange(M_grid.shape[0]), dtype=float)
    xi_grid = np.asarray(xi_grid if xi_grid is not None else np.arange(M_grid.shape[1]), dtype=float)

    rho = np.max(np.abs(eigenvalues_2x2(M_grid)), axis=-1)
    if np.max(rho) >= 1.0 - RHO_BLOCKER_TOL:
        it, ix = np.unravel_index(int(np.argmax(rho)), rho.shape)
        raise NoContractionError(
            f"spectral radius {rho[it, ix]:.12g} at (t={t_grid[it]:.6g}, xi={xi_grid[ix]:.6g}) "
            "blocks the contraction certificate",
            worst=(float(t_grid[it]), float(xi_grid[ix]), float(rho[it, ix])),
        )

    P = M_grid.copy()
    for k in range(1, k_max + 1):
        norms = spectral_norm_2x2(P)
        worst = float(np.max(norms))
        if worst <= 1.0 - margin:
            return k, worst
        P = P @ M_grid
    it, ix = np.unravel_index(int(np.argmax(norms)), norms.shape)
    raise NoContractionError(
        f"no k <= {k_max} achieves grid-sup ||M^k|| <= {1.0 - margin}; "
        f"worst ||M^{k_max}|| = {worst:.6g} at (t={t_grid[it]:.6g}, xi={xi_grid[ix]:.6g})",
        worst=(float(t_grid[it]), float(xi_grid[ix]), worst),
    )


def assemble_certificate(
    spec: ModelSpec,
    N: float,
    k: int,
    c1: float,
    grids: dict | None = None,
    tolerances: dict | None = None,
) -> ContractionCertificate:
    """Fill in the decay constants implied by (N, k, c1).

    delta0 = beta / 2 covers frequencies above N; delta1 = log(1/c1)/(kT)
    covers [0, N]; C = exp(delta1 k T) is the small-frequency prefactor.
    """
    if not (0.0 < c1 < 1.0):
        raise ValueError(f"c1 must lie in (0, 1), got {c1}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    beta = spec.beta
    T = spec.T
    delta1 = math.log(1.0 / c1) / (k * T)
    return ContractionCertificate(
        N=float(N),
        k=int(k),
        c1=float(c1),
        delta0=beta / 2.0,
        delta1=delta1,
        C=math.exp(delta1 * k * T),
        beta=beta,
        T=T,
        grids=dict(grids or {}),
        tolerances=dict(tolerances or {}),
    )


def samples_from_grid(t_grid, xi_grid, M_grid) -> np.ndarray:
    """The samples table of a precomputed grid, one row per (t, xi), row-major in t.

    A structured array with the float fields of :data:`SAMPLE_FLOATS` and the
    string field ``class``: the eigenvalue pair, the spectral radius, the
    spectral norm and the pair class of every matrix.  The class comes from
    the characteristic-polynomial discriminant.  The monodromy matrix is
    similar to a real matrix, so the discriminant is real up to numerical
    noise: positive real part means two real eigenvalues, negative means a
    complex-conjugate pair, and a degenerate band around zero is a real
    (double) root.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    M = np.asarray(M_grid).reshape(-1, 2, 2)
    ev = eigenvalues_2x2(M)
    tr = M[:, 0, 0] + M[:, 1, 1]
    disc = tr * tr - 4.0 * det2(M)
    real_pair = (np.hypot(disc.real, disc.imag) <= DEGENERATE_DISC_TOL) | (disc.real > 0.0)

    table = np.empty(len(M), dtype=[(name, float) for name in SAMPLE_FLOATS] + [("class", "U20")])
    table["t"] = np.repeat(t_grid, xi_grid.size)
    table["xi"] = np.tile(xi_grid, t_grid.size)
    table["re_eig1"], table["im_eig1"] = ev[:, 0].real, ev[:, 0].imag
    table["re_eig2"], table["im_eig2"] = ev[:, 1].real, ev[:, 1].imag
    # hypot, as Python's complex abs, which numpy's abs can miss by one ulp
    table["rho"] = np.maximum(np.hypot(ev[:, 0].real, ev[:, 0].imag), np.hypot(ev[:, 1].real, ev[:, 1].imag))
    table["norm"] = spectral_norm_2x2(M)
    table["class"] = np.where(real_pair, CLASS_REAL_PAIR, CLASS_COMPLEX_PAIR)
    return table


def scan_to_csv(path, samples) -> None:
    """Write the samples table as CSV: t, xi, eigenvalue parts, rho, norm, class."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SAMPLE_FLOATS + ("class",))
        for row in samples.tolist():
            w.writerow([f"{v:.17g}" for v in row[:-1]] + [row[-1]])
