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

# The float columns of the samples table, in CSV order, and its record type;
# the pair class is one bool, written as CLASS_REAL_PAIR or CLASS_COMPLEX_PAIR.
SAMPLE_FLOATS = ("t", "xi", "re_eig1", "im_eig1", "re_eig2", "im_eig2", "rho", "norm")
SAMPLE_DTYPE = [(name, float) for name in SAMPLE_FLOATS] + [("real_pair", bool)]

# The CSV writer joins and writes this many rows at a time.
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

    rho = _spectral_radius(eigenvalues_2x2(M_grid))
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
    bool field ``real_pair``: the eigenvalue pair, the spectral radius, the
    spectral norm and the pair class of every matrix.  The class comes from
    the characteristic-polynomial discriminant, which is real for the real
    form of :func:`monodromy_grid`: positive means two real eigenvalues
    (``real_pair``), negative a complex-conjugate pair, and a degenerate band
    around zero is a real (double) root.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    M = np.asarray(M_grid).reshape(-1, 2, 2)
    ev = eigenvalues_2x2(M)
    tr = trace2(M)
    disc = tr * tr - 4.0 * det2(M)
    real_pair = (np.abs(disc) <= DEGENERATE_DISC_TOL) | (disc.real > 0.0)

    table = np.empty(len(M), dtype=SAMPLE_DTYPE)
    table["t"] = np.repeat(t_grid, xi_grid.size)
    table["xi"] = np.tile(xi_grid, t_grid.size)
    table["re_eig1"], table["im_eig1"] = ev[:, 0].real, ev[:, 0].imag
    table["re_eig2"], table["im_eig2"] = ev[:, 1].real, ev[:, 1].imag
    table["rho"] = _spectral_radius(ev)
    table["norm"] = spectral_norm_2x2(M)
    table["real_pair"] = real_pair
    return table


def _column_text(column):
    """The "%.17g" text of a float column, as a function of a slice of rows.

    Values are told apart by bit pattern, so -0.0 and 0.0, and NaNs of
    different sign or payload, each keep their own text.  When at most half
    the entries are distinct, each distinct value is formatted once and its
    text is held for the whole write; otherwise each slice is formatted when
    asked for.  Either way, text is held for at most half the column's entries,
    and no copy of the column: an index into the distinct values, in the
    narrowest integer type that holds their count, or the column as given.
    """
    column = np.asarray(column, dtype=float)
    bits = np.ascontiguousarray(column).view(np.int64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.ones(bits.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = np.count_nonzero(first)
    if 2 * distinct > bits.size:
        return lambda rows: ["%.17g" % v for v in column[rows].tolist()]
    text = np.array(["%.17g" % v for v in column[order[first]].tolist()], dtype=object)
    index = np.empty(bits.size, dtype=np.min_scalar_type(distinct))
    index[order] = np.cumsum(first) - 1
    return lambda rows: text[index[rows]].tolist()


def _write_csv(path, header, floats, texts=()):
    """Write float columns, then text columns, as CSV with LF line ends.

    Floats are written as "%.17g" (see :func:`_column_text`); a text column
    is a function from a slice of rows to their list of strings.  Rows are
    joined and written CSV_BLOCK_ROWS at a time, so the text of the whole
    table is never held at once.
    """
    columns = [_column_text(c) for c in floats] + list(texts)
    n = len(floats[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            cells = [text(block) for text in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def scan_to_csv(path, samples) -> None:
    """Write the samples table as CSV: t, xi, eigenvalue parts, rho, norm, class.

    Byte for byte the "%.17g" text of every float.  The table repeats most of
    its values (t over xi, xi over t, and the spectrum, which does not depend
    on t), so each distinct value of those columns is formatted once; rows are
    streamed in blocks of CSV_BLOCK_ROWS, and each block's ``real_pair`` flags
    are written as CLASS_REAL_PAIR or CLASS_COMPLEX_PAIR.
    """
    real_pair = samples["real_pair"]
    _write_csv(path, SAMPLE_FLOATS + ("class",), [samples[name] for name in SAMPLE_FLOATS],
               [lambda rows: np.where(real_pair[rows], CLASS_REAL_PAIR, CLASS_COMPLEX_PAIR).tolist()])
