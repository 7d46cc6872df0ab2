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

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelSpec, _sorted_unique
from .errors import IntegrationFailureError, NoContractionError
from .propagator import (
    DEFAULT_TOL,
    det2,
    eigenvalues_2x2,
    propagate_grid,
    spectral_norm_2x2,
    trace2,
)

# Degenerate-discriminant band: |tr^2 - 4 det| below this is a double root.
DEGENERATE_DISC_TOL = 1e-10

# Spectral-radius values above 1 - RHO_BLOCKER_TOL block certification.
RHO_BLOCKER_TOL = 1e-9

# Contraction margin: the grid supremum of ||M^k|| must fall below 1 - margin.
DEFAULT_CONTRACTION_MARGIN = 1e-3

# M(t, xi) may differ from M(0, xi) in trace or determinant by at most this.
MONODROMY_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction constants (N, k, c1) of a model with (beta, T).

    The decay constants follow from (beta, k, c1, T): delta0 = beta / 2 covers
    frequencies above N, delta1 = log(1/c1) / (k T) covers [0, N], and
    C = exp(delta1 k T) is the small-frequency prefactor.  The grids and
    tolerances behind (k, c1) are recorded by the caller, not here.
    """

    N: float
    k: int
    c1: float
    beta: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.c1 < 1.0):
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def delta0(self) -> float:
        return self.beta / 2.0

    @property
    def delta1(self) -> float:
        return math.log(1.0 / self.c1) / (self.k * self.T)

    @property
    def C(self) -> float:
        return math.exp(self.delta1 * self.k * self.T)

    @property
    def rate(self) -> float:
        """The certified decay rate delta = min(delta0, delta1)."""
        return min(self.delta0, self.delta1)

    @property
    def prefactor(self) -> float:
        """The combined prefactor max(e^{delta0 T}, e^{delta1 k T})."""
        return max(math.exp(self.delta0 * self.T), self.C)

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
        }


@dataclass(frozen=True)
class MonodromyScan:
    """Spectrum and norms of a monodromy grid over t (nt,) and xi (nxi,).

    M(t, xi) is conjugate to M(0, xi), so the spectrum depends on xi alone:
    the eigenvalue pair ``eig`` (nxi, 2), the spectral radius ``rho`` (nxi,)
    and the pair class ``real_pair`` (nxi,) are held once per xi, and only the
    spectral norm ``norm`` (nt, nxi) per matrix.  Its length is the number of
    matrices, nt * nxi.
    """

    t: np.ndarray
    xi: np.ndarray
    eig: np.ndarray
    rho: np.ndarray
    real_pair: np.ndarray
    norm: np.ndarray

    def __len__(self):
        return self.norm.size


def _spectral_radius(ev):
    """max |lambda| over the last axis of eigenvalue pairs ``ev``.

    Taken by hypot, as Python's complex abs; numpy's abs can miss it by one ulp.
    """
    return np.max(np.hypot(ev.real, ev.imag), axis=-1)


def _period_products(segments):
    """Prefixes E(c_j, 0) and monodromies M(c_j) from one period's segments.

    ``segments`` (m, ..., 2, 2) holds the real forms of E(c_j, c_{j-1}) for
    checkpoints c_0 <= ... <= c_{m-1} = T, with c_{-1} = 0.  By periodicity
    M(c_j) = E(c_j + T, T) E(T, c_j) = E(c_j, 0) E(T, c_j): a prefix product
    times a suffix product, with no inverse.  The prefixes are written over
    ``segments``, the monodromies go to one new array of the same shape, and
    both are returned, real like the segments.
    """
    prefix = segments
    M = np.empty_like(segments)
    M[-1] = np.eye(2)
    for j in range(len(M) - 1, 0, -1):
        M[j - 1] = M[j] @ prefix[j]  # the suffix E(T, c_{j-1})
    M[0] = prefix[0] @ M[0]
    for j in range(1, len(M)):
        prefix[j] = prefix[j] @ prefix[j - 1]
        M[j] = prefix[j] @ M[j]
    return prefix, M


def monodromy_grid(
    spec: ModelSpec,
    t_grid,
    xi_grid,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Monodromy matrices on a (t, xi) grid, float64 of shape (nt, nxi, 2, 2).

    Each matrix is the real form S^-1 M S of the monodromy, S = diag(1, -i)
    (see :mod:`kgdecay.propagator`), which has its norm and spectrum.  One
    checkpointed sweep over [0, T] for the whole frequency grid records the
    segment propagators between the sorted base times, and
    :func:`_period_products` composes them into every M(t, xi) at once.  The
    segments are integrated in batches of pieces, and all pieces and
    frequencies of a batch share one adaptive step sequence in normalized
    time, which the hardest of them sets; every matrix is accurate to the
    requested tolerance whatever the grid holds.  As a safety check,
    IntegrationFailureError is raised when a row's trace or determinant
    drifts from those of M(0, xi) = E(T, 0, xi).
    Both are products of the same segments, so the check catches non-finite
    or badly rounded products, not integration error.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    if t_grid.size == 0 or xi_grid.size == 0:
        return np.empty((t_grid.size, xi_grid.size, 2, 2))
    if not np.all((t_grid >= 0.0) & (t_grid <= spec.T + 1e-12)):
        raise ValueError("t_grid must lie within [0, T]")
    T = spec.T
    t_grid = np.minimum(t_grid, T)
    checkpoints = _sorted_unique(np.append(t_grid, T))
    rows = np.searchsorted(checkpoints, t_grid)
    E_T, segments, _ = propagate_grid(spec, 0.0, T, xi_grid, tol, checkpoints)
    M = _period_products(segments)[1]
    drift = np.maximum(np.abs(trace2(M) - trace2(E_T)), np.abs(det2(M) - det2(E_T)))
    if not np.max(drift) <= MONODROMY_DRIFT_TOL:
        j = int(np.argmax(np.max(drift, axis=1)))
        raise IntegrationFailureError(
            f"monodromy trace/determinant drift {np.max(drift):.3g} at t = {checkpoints[j]:.6g}: "
            "the period's segment products are not finite or lost accuracy to rounding",
            t_fail=float(checkpoints[j]),
        )
    # sorted distinct base times are the leading rows: no copy of the grid then
    return M[: rows.size] if np.array_equal(rows, np.arange(rows.size)) else M[rows]


def power_norms(M_grid: np.ndarray, k: int) -> np.ndarray:
    """Spectral norms of the k-th matrix powers over a grid (iterative product), k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    P = M_grid.copy()
    for _ in range(k - 1):
        P = P @ M_grid
    return spectral_norm_2x2(P)


def contraction_search(
    M_grid: np.ndarray, scan: MonodromyScan, k_max: int = 64, margin: float = DEFAULT_CONTRACTION_MARGIN
):
    """Smallest k with sup ||M^k|| <= 1 - margin over a precomputed grid.

    ``scan`` is the :func:`samples_from_grid` record of ``M_grid``: its
    spectral radii block the search when one reaches 1 - RHO_BLOCKER_TOL, its
    norms are those of the first power, and its t and xi name the witnesses.
    Only the higher powers are formed here.  Returns (k, c1).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if M_grid.size == 0:
        raise ValueError(f"the grid holds no matrices: shape {M_grid.shape}")
    if np.max(scan.rho) >= 1.0 - RHO_BLOCKER_TOL:
        ix = int(np.argmax(scan.rho))
        raise NoContractionError(
            f"spectral radius {scan.rho[ix]:.12g} at (t={scan.t[0]:.6g}, xi={scan.xi[ix]:.6g}) "
            "blocks the contraction certificate",
            worst=(float(scan.t[0]), float(scan.xi[ix]), float(scan.rho[ix])),
        )

    P, norms = M_grid, scan.norm
    for k in range(1, k_max + 1):
        worst = float(np.max(norms))
        if worst <= 1.0 - margin:
            return k, worst
        if k < k_max:
            P = P @ M_grid
            norms = spectral_norm_2x2(P)
    it, ix = np.unravel_index(int(np.argmax(norms)), norms.shape)
    raise NoContractionError(
        f"no k <= {k_max} achieves grid-sup ||M^k|| <= {1.0 - margin}; "
        f"worst ||M^{k_max}|| = {worst:.6g} at (t={scan.t[it]:.6g}, xi={scan.xi[ix]:.6g})",
        worst=(float(scan.t[it]), float(scan.xi[ix]), worst),
    )


def samples_from_grid(t_grid, xi_grid, M_grid) -> MonodromyScan:
    """The scan of a precomputed grid: each xi's spectrum and every matrix's norm.

    The spectrum does not depend on t, so each xi's eigenvalue pair, spectral
    radius and pair class are taken once, from the first t row; the norm is
    taken for every matrix.  The class comes from the characteristic-polynomial
    discriminant, which is real for the real form of :func:`monodromy_grid`:
    positive means two real eigenvalues (``real_pair``), negative a
    complex-conjugate pair, and a degenerate band around zero is a real
    (double) root.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must hold at least one base time")
    M = np.asarray(M_grid).reshape(t_grid.size, xi_grid.size, 2, 2)
    ev = eigenvalues_2x2(M[0])
    tr = trace2(M[0])
    disc = tr * tr - 4.0 * det2(M[0])
    real_pair = (np.abs(disc) <= DEGENERATE_DISC_TOL) | (disc > 0.0)
    return MonodromyScan(t_grid, xi_grid, ev, _spectral_radius(ev), real_pair, spectral_norm_2x2(M))


def _write_csv(path, header, rows):
    """Write rows of numbers as CSV with LF line ends, every value as "%.17g"."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(values) for values in rows)


def scan_to_csv(path, scan: MonodromyScan) -> None:
    """Write a scan as a CSV table with one row per xi: its spectrum and its largest norm.

    Columns: xi, the eigenvalue parts, rho, real_pair as 1 or 0, and the base
    time t and value norm of the largest ||M(t, xi)|| down t, the first t on a
    tie (a NaN norm counts as the largest, as in np.argmax).  With k = 1 the
    largest norm in the table is c1.
    """
    i = np.argmax(scan.norm, axis=0)
    e1, e2 = scan.eig.T
    columns = (scan.xi, e1.real, e1.imag, e2.real, e2.imag, scan.rho, scan.real_pair, scan.t[i],
               scan.norm[i, np.arange(scan.xi.size)])
    header = ("xi", "re_eig1", "im_eig1", "re_eig2", "im_eig2", "rho", "real_pair", "t", "norm")
    _write_csv(path, header, zip(*(c.tolist() for c in columns)))
