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
from dataclasses import dataclass, field

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

CLASS_COMPLEX_PAIR = "ComplexConjugatePair"
CLASS_REAL_PAIR = "RealPair"

# The scan writer joins and writes this many rows at a time.
CSV_BLOCK_ROWS = 4096


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

    @property
    def rate(self) -> float:
        """The certified decay rate delta = min(delta0, delta1)."""
        return min(self.delta0, self.delta1)

    @property
    def prefactor(self) -> float:
        """The combined prefactor max(e^{delta0 T}, e^{delta1 k T})."""
        return max(math.exp(self.delta0 * self.T), math.exp(self.delta1 * self.k * self.T))

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


@dataclass(frozen=True)
class MonodromyScan:
    """Spectrum and norms of a monodromy grid over t (nt,) and xi (nxi,).

    M(t, xi) is conjugate to M(0, xi), so the spectrum depends on xi alone:
    the eigenvalue pair ``eig`` (nxi, 2), the spectral radius ``rho`` (nxi,)
    and the pair class ``real_pair`` (nxi,) are held once per xi, and only the
    spectral norm ``norm`` (nt, nxi) per matrix.  Its length is its row count
    nt * nxi in monodromy_scan.csv.
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
    if np.any(t_grid < 0.0) or np.any(t_grid > spec.T + 1e-12):
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


def contraction_search(M_grid: np.ndarray, k_max: int = 64, margin: float = DEFAULT_CONTRACTION_MARGIN, t_grid=None, xi_grid=None):
    """Smallest k with sup ||M^k|| <= 1 - margin over a precomputed grid.

    First checks the spectral radii of the first t row, as the scan takes
    them (all below 1 - RHO_BLOCKER_TOL), then powers the grid.  Returns (k, c1).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if M_grid.size == 0:
        raise ValueError(f"the grid holds no matrices: shape {M_grid.shape}")
    t_grid = np.asarray(t_grid if t_grid is not None else np.arange(M_grid.shape[0]), dtype=float)
    xi_grid = np.asarray(xi_grid if xi_grid is not None else np.arange(M_grid.shape[1]), dtype=float)

    rho = _spectral_radius(eigenvalues_2x2(M_grid[0]))
    if np.max(rho) >= 1.0 - RHO_BLOCKER_TOL:
        ix = int(np.argmax(rho))
        raise NoContractionError(
            f"spectral radius {rho[ix]:.12g} at (t={t_grid[0]:.6g}, xi={xi_grid[ix]:.6g}) "
            "blocks the contraction certificate",
            worst=(float(t_grid[0]), float(xi_grid[ix]), float(rho[ix])),
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
    """Write a scan as CSV, row-major in t: t, xi, eigenvalue parts, rho, norm, class.

    Byte for byte the "%.17g" text of every float, with the class written as
    CLASS_REAL_PAIR or CLASS_COMPLEX_PAIR.  Each t and each xi's columns are
    formatted once; the norms are formatted in one format call per block of
    CSV_BLOCK_ROWS rows, and only one block of rows is held as text.
    """
    t_text = np.array(["%.17g" % t for t in scan.t.tolist()], dtype=object)
    spectrum = np.array(
        ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (xi, e1.real, e1.imag, e2.real, e2.imag, rho)
         for xi, (e1, e2), rho in zip(scan.xi.tolist(), scan.eig.tolist(), scan.rho.tolist())],
        dtype=object,
    )
    label = np.where(scan.real_pair, CLASS_REAL_PAIR, CLASS_COMPLEX_PAIR).astype(object)
    norm = scan.norm.reshape(-1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,xi,re_eig1,im_eig1,re_eig2,im_eig2,rho,norm,class\n")
        for lo in range(0, norm.size, CSV_BLOCK_ROWS):
            block = norm[lo : lo + CSV_BLOCK_ROWS]
            i, j = np.divmod(np.arange(lo, lo + block.size), scan.xi.size)
            cells = np.stack([t_text[i], spectrum[j], block.astype(object), label[j]], axis=1)
            fh.write("%s,%s,%.17g,%s\n" * block.size % tuple(cells.ravel().tolist()))
