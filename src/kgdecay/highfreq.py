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

Integrating c+ by parts bounds the corrector on [0, 2T], r <= C_b / xi with
the endpoint constant C_b = |b(0+)| + |b(0-)| + V_0^{2T}(b) - |b(0+) - b(0-)|
of :func:`_tail_constant`, which is 2 min(b(0+), b(0-)) + 2 V for b >= 0.
Where b has no jumps, integrating twice gives
r <= (sup|b| + |b(0)|) / xi + D_b / xi^2 too, with D_b = 2 sup|b'| +
V_0^{2T}(b'); the smaller of the two, rho(xi), falls like
(sup|b| + |b(0)|) / xi instead of C_b / xi.  So the massless frame product
never exceeds the closed form P(xi) of :func:`_tail_bound`, which decreases
in xi.  Each window scan stops once P falls to the largest value already
found, and the first xi with P(xi) below the accept level covers every
higher frequency.

A frame profile splits one period at the base times of the supremum and at
the breakpoints of b, so b is smooth inside every piece, and integrates each
piece by Simpson's rule with the same number of intervals.  The quadrature
then keeps its fourth order where b jumps or kinks.  A b with many
breakpoints, such as a long sampled series, is split at the base times only.
The search starts every profile at one coarse count, whatever b, and repeats
at twice the count only while a decision margin is not resolved by the
refinement sensitivity (see :func:`find_threshold_N`).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ModelSpec, _sorted_unique
from .errors import FrameError, ThresholdSearchError
from .monodromy import _write_csv, monodromy_grid
from .propagator import DEFAULT_TOL, _cumulative_simpson_uniform, spectral_norm_2x2

# Frames with |det N1| below this are treated as singular (frequency too low).
FRAME_DET_GUARD = 0.1

# The starting count of a frame profile: Simpson intervals per period, at
# least this many and at least this many per unit of accumulated phase over
# one period.  The threshold search doubles it while a decision margin is at
# most REFINE_SAFETY times its refinement sensitivity, up to MAX_REFINE times
# the starting count (max(4096, 64 phase), the fixed count the search used
# before).  Where c+ returns to zero the integrand of ||R2|| kinks and
# Simpson's rule is second order, so the error is about 4/3 of the change per
# doubling; the factor 2 covers it.
START_POINTS_PER_PERIOD = 128
START_POINTS_PER_PHASE_UNIT = 2
REFINE_SAFETY = 2.0
MAX_REFINE = 32

# A profile splits at the breakpoints of b only while that makes at most this
# many pieces per period; a b with more, such as a long sampled series, is
# split at the base times alone.  Splitting at breakpoints thus adds fewer
# than 2 * MAX_ALIGNED_PIECES intervals to a profile.
MAX_ALIGNED_PIECES = 512

# A profile samples b this far inside each piece end, relative to the piece
# length, so that a jump there takes its value from inside the piece.  A
# one-ulp nudge does not survive the reduction mod T in eval.
PIECE_END_OFFSET = 1e-9

# Default base-time resolution for supremum scans over [0, T).
SUP_T_POINTS = 64

# Every threshold window, and the verify scan above the threshold, spans the
# frequency band [N, WINDOW_FACTOR * N].
WINDOW_FACTOR = 10.0

# The search gives up before a window whose top frequency would need more
# points per period than this at MAX_REFINE times the starting count (2^20: N
# of about 1,600 at T = 1, for every b); profiles hold 2 * (points + pieces)
# complex values.  The two sensitivity profiles of find_threshold_N take twice
# the count of the search at their frequencies.
MAX_PROFILE_POINTS = 2**20

# verify_highfreq_contraction passes when sup ||M|| <= exp(-beta T / 2) + this.
VERIFY_SLACK = 1e-6

# The threshold search accepts a window only when its supremum clears the
# target by this relative margin, so the result survives grid refinement.
THRESHOLD_ACCEPT_MARGIN = 1e-3

# Largest argument of exp that stays finite, ln(DBL_MAX).
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the frequency-threshold search.

    The two decision margins are measured against the accept level, each at
    its window's decisive frequency: the accepted window's largest value, and
    the value that stopped the last rejected window's scan.  A scan stops at
    the first value above the level, so the reject margin is a lower bound.
    Each sensitivity is how far that value moves when its profile is taken
    again with twice the intervals per piece.  With no window rejected
    (N = 1/T passed at once), the reject margin and its sensitivity are None.
    ``profile_refine`` is the multiple of the starting count that the search
    settled on.
    """

    N: float
    sup_value: float
    target: float
    xi_max_checked: float
    tail_C_b: float  # r <= tail_C_b / xi on [0, 2T]
    tail_D_b: float  # r <= (sup|b| + |b(0)|) / xi + tail_D_b / xi^2 there too; inf where b jumps
    tail_xi: float  # first xi with _tail_bound(xi) <= accept level; inf if none
    accept_margin: float  # accept level - sup_value
    accept_margin_sensitivity: float
    reject_margin: float | None  # last rejected window's value - accept level
    reject_margin_sensitivity: float | None
    profile_refine: int
    trace: tuple = field(default_factory=tuple)  # (N_candidate, sup_value, accepted)

    @property
    def margin_resolved(self) -> bool:
        """True when each decision margin exceeds its sensitivity."""
        return self._margins_exceed(1.0)

    def _margins_exceed(self, factor: float) -> bool:
        return self.accept_margin > factor * self.accept_margin_sensitivity and (
            self.reject_margin is None or self.reject_margin > factor * self.reject_margin_sensitivity
        )


@functools.lru_cache(maxsize=1)
def _profile_ends(b, T: float, t_points: int):
    """Piece ends over [0, T], ascending and read-only.

    The ends are the base times j T / t_points, the breakpoints of b in
    (0, T) while that makes at most MAX_ALIGNED_PIECES pieces, and T.  Every
    profile of a search shares them (building them takes about a fifth of
    the time of a square wave's profile); :func:`find_threshold_N` clears the
    cache when it ends.
    """
    ends = np.arange(t_points) * (T / t_points)
    if t_points <= MAX_ALIGNED_PIECES:
        merged = _sorted_unique(np.concatenate([ends, b.breakpoints_in(0.0, T)]))
        ends = merged if merged.size <= MAX_ALIGNED_PIECES else ends
    ends = np.append(ends, T)
    ends.flags.writeable = False
    return ends


def _points_per_period(spec: ModelSpec, xi: float, t_points: int = SUP_T_POINTS) -> int:
    """Simpson intervals per period of a frame profile at ``xi``, at the starting count.

    Every piece of :func:`_profile_ends` gets the same even number M of
    intervals, the least with M * pieces >= max(START_POINTS_PER_PERIOD,
    START_POINTS_PER_PHASE_UNIT * phase).  The count is M * pieces, and the
    profile cap is checked against MAX_REFINE times it.  Where the phase over
    one period overflows, the count is inf, above any cap.
    """
    phase = math.sqrt(xi * xi + spec.m0 * spec.m0) * spec.T
    if not math.isfinite(phase):
        return math.inf
    pieces = _profile_ends(spec.b, spec.T, t_points).size - 1
    p = max(START_POINTS_PER_PERIOD, START_POINTS_PER_PHASE_UNIT * math.ceil(phase))
    return 2 * pieces * math.ceil(p / (2 * pieces))


def _tail_constant(b) -> float:
    """The endpoint constant C_b of the coefficient ``b``, with |c+| <= C_b / h on [0, 2T].

    By parts, c+(t) = int_0^t exp(i h s) b(s) ds equals
    (exp(i h t) b(t-) - b(0+)) / (i h) minus the integral of exp(i h s) db(s)
    over (0, t) divided by i h, so h |c+(t)| <= |b(0+)| + Phi(t) with
    Phi(t) = |b(t-)| + V_(0,t)(b).  Phi is nondecreasing, and over the open
    (0, 2T) the variation is that of two periods less the jump at 0, so
    C_b = |b(0+)| + |b(0-)| + 2 V - |b(0+) - b(0-)|.  For b >= 0, as a
    ModelSpec holds, that is 2 min(b(0+), b(0-)) + 2 V, at most the
    2 sup|b| + 2 V of bounding each term by sup|b|.
    """
    return 2.0 * min(b.start_value, b.end_value) + 2.0 * b.variation


def _tail_bound(b, beta_t: float, xi: float) -> float:
    """Closed-form bound P(xi) on the frame product of the coefficient ``b`` at frequency xi.

    :func:`_tail_constant` gives r = |c+| <= C_b / xi on [0, 2T].  For b
    without jumps, integrating the remainder int exp(i xi s) b'(s) ds by
    parts once more gives r <= (sup|b| + |b(0)|) / xi + D_b / xi^2 there,
    with the slope constant D_b = 2 sup|b'| + V_0^{2T}(b'), which is inf
    where b jumps and leaves the first bound alone.  The smaller of the two,
    rho = min(C_b, sup|b| + |b(0)| + D_b / xi) / xi, decreases in xi.  With
    b >= 0 the integral of ||R2|| = b r / (1 - r) over a period is at most
    beta T rho / (1 - rho), so the product is at most
    (1 + rho) / (1 - rho) * exp(beta T rho / (1 - rho)), which decreases in
    xi.  Returns inf where rho >= 1 or the exponent would overflow.
    """
    rho = min(_tail_constant(b), (b.sup_abs + abs(b.start_value)) + b.slope_constant / xi) / xi
    if rho >= 1.0:
        return math.inf
    expo = beta_t * rho / (1.0 - rho)
    if expo > LOG_FLOAT_MAX:
        return math.inf
    return (1.0 + rho) / (1.0 - rho) * math.exp(expo)


def _tail_xi(b, beta_t: float, level: float) -> float:
    """The smallest xi (to rounding) with _tail_bound(b, beta_t, xi) <= level; inf if none.

    P exceeds one at every finite xi and tends to one, so a level below one is
    never reached.  Otherwise rho >= 1, and P = inf, up to the smaller of C_b
    and a / 2 + sqrt(a^2 / 4 + D_b) with a = sup|b| + |b(0)|, where each
    bound on r reaches one; doubling from there brackets the crossing and
    bisection narrows it until the midpoint rounds to an end.
    """
    if level < 1.0:
        return math.inf
    half = 0.5 * (b.sup_abs + abs(b.start_value))
    lo = min(_tail_constant(b), half + math.sqrt(half * half + b.slope_constant))
    hi = lo + 1.0
    while _tail_bound(b, beta_t, hi) > level:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _tail_bound(b, beta_t, mid) > level:
            lo = mid
        else:
            hi = mid


def _suplarge_from_profile(n1_norms, n1inv_norms, r2_cumint, idx, per):
    """Combine profile arrays: max over base indices of
    ||N1(t+T)|| * exp(int_t^{t+T} ||R2||) * ||N1inv(t)||."""
    growth = np.exp(r2_cumint[idx + per] - r2_cumint[idx])
    return float(np.max(n1_norms[idx + per] * growth * n1inv_norms[idx]))


def _simpson_totals(y, step):
    """Composite Simpson integral over each piece: ``y`` is (..., M + 1, pieces)
    with M even, and piece k has interval ``step[k]``."""
    inner = 4.0 * y[..., 1::2, :].sum(axis=-2) + 2.0 * y[..., 2:-1:2, :].sum(axis=-2)
    return (step / 3.0) * (y[..., 0, :] + y[..., -1, :] + inner)


@functools.lru_cache(maxsize=1)
def _b_profile(b, T, t_points, points):
    """The profile grid over [0, T] and b on it, read-only: (start, step, values, base).

    The pieces of :func:`_profile_ends`, each split into M = points / pieces
    uniform intervals: ``start`` and ``step`` hold the first node and the
    interval of each piece, ``values`` b at the nodes as an (M + 1, pieces)
    array and ``base`` the pieces whose node 0 is a base time, in order.  At a piece end
    b takes its value from inside the piece, sampled PIECE_END_OFFSET of the
    piece length in.  Every profile with the same count shares the grid;
    :func:`find_threshold_N` clears the cache when it ends.
    """
    ends = _profile_ends(b, T, t_points)
    start, length = ends[:-1], np.diff(ends)
    m = points // start.size
    u = np.arange(m + 1) / m
    u[0], u[-1] = PIECE_END_OFFSET, 1.0 - PIECE_END_OFFSET
    values = b.eval(start + np.outer(u, length))
    step = length / m
    base = np.searchsorted(ends, np.arange(t_points) * (T / t_points))
    for array in (step, values, base):
        array.flags.writeable = False
    return start, step, values, base


def suplarge_quantity(spec: ModelSpec, xi: float, t_points: int = SUP_T_POINTS, refine: int = 1) -> float:
    """Supremum over base times in [0, T) of the frame contraction product.

    For real b and h, n- = conj(n+), so N1 is Hermitian with eigenvalues
    1 +/- r, r = |n+| = |c+|.  Its norms are closed scalars:
    ||N1|| = 1 + r, ||N1inv|| = 1/|1 - r|, |det N1| = |1 - r^2| and
    ||R2|| = |b| r / |1 - r|.
    The profile runs on the grid of :func:`_b_profile` and on its copy
    shifted by T, so that each base time t_j = j T / t_points and t_j + T is
    node 0 of a piece, and b is smooth inside every piece unless it has more
    breakpoints than MAX_ALIGNED_PIECES allows.
    c+ is integrated by cumulative Simpson within each piece plus the totals
    of the pieces before it; ``refine`` multiplies the starting count of
    :func:`_points_per_period`.
    Since b has period T, c+(t + T) = c+(T) + exp(i h T) c+(t) node for node,
    so only [0, T] is integrated.  The integral of ||R2|| is needed only at
    node 0 of each piece, from the composite Simpson totals of the pieces.
    The mass must be constant: the phase is then exactly sqrt(xi^2 + m0^2) t.
    b depends on the grid alone, not on xi, and is evaluated once per grid.
    Raises FrameError when the corrector degenerates anywhere on [0, 2T].
    """
    _require_points(t_points=t_points, refine=refine)
    if spec.epsilon > 0.0:
        raise ValueError("the frame product is defined for a constant mass")
    start, step, b, base = _b_profile(spec.b, spec.T, t_points, refine * _points_per_period(spec, xi, t_points))
    # c+(t) = int_0^t exp(i phi) b with phi(t) = int_0^t h = h t; c[0] holds
    # c+ on the nodes over [0, T] and c[1] on the same nodes shifted by T.
    # Along a piece exp(i h t) is exp(i h start) times powers of
    # exp(i h step), taken as a running product: one rounding per node
    h = math.hypot(xi, spec.m0)
    c = np.empty((2,) + b.shape, dtype=complex)
    c[0, 0] = np.exp(1j * h * start)
    c[0, 1:] = np.exp(1j * h * step)
    np.cumprod(c[0], axis=0, out=c[0])
    c[0] *= b
    c[0] = _cumulative_simpson_uniform(c[0], step)
    c[0, :, 1:] += np.cumsum(c[0, -1, :-1])
    np.multiply(c[0], complex(math.cos(h * spec.T), math.sin(h * spec.T)), out=c[1])
    c[1] += c[0, -1, -1]
    r = np.abs(c)
    gap = np.abs(1.0 - r)
    if float(np.min(gap * (1.0 + r))) < FRAME_DET_GUARD:
        raise FrameError(f"corrector near-singular on [0, 2T] at xi = {xi}")
    # int ||R2|| from 0 to node 0 of each piece, pieces of [0, T] then of [T, 2T]
    totals = _simpson_totals(np.abs(b) * r / gap, step).ravel()
    r2_cum = np.concatenate(([0.0], np.cumsum(totals[:-1])))
    return _suplarge_from_profile((1.0 + r[:, 0]).ravel(), (1.0 / gap[:, 0]).ravel(), r2_cum, base, step.size)


def _require_points(**counts):
    """Raise ValueError naming the first grid count below one."""
    for name, n in counts.items():
        if not n >= 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


def _window_sup(spec: ModelSpec, N: float, xi_points: int, t_points: int, stop_above=None, refine: int = 1):
    """sup over xi in [N, WINDOW_FACTOR * N] (xi_points samples) of the frame
    product, and the first frequency that attains it.

    The frequencies are scanned in ascending order, and the scan stops before
    the first one whose tail bound :func:`_tail_bound` is no larger than the
    largest value found so far: the bound decreases in xi, so no later
    frequency can raise the maximum, and the result equals that of the full
    scan.  The bound holds for the massless symbol and, through the shift
    xi -> sqrt(xi^2 + m0^2), for any constant mass.

    With ``stop_above`` set, the scan also stops at the first value beyond it
    (the window is already disqualified); the returned value is then only a
    lower bound for the true supremum.  ``refine`` multiplies the starting
    count of every profile.
    """
    beta_t = spec.beta * spec.T
    top, at = -math.inf, math.nan
    for x in np.linspace(N, WINDOW_FACTOR * N, xi_points):
        x = float(x)
        if top > -math.inf and _tail_bound(spec.b, beta_t, x) <= top:
            break
        try:
            value = suplarge_quantity(spec, x, t_points, refine)
        except FrameError:
            value = math.inf
        if value > top:
            top, at = value, x
        if stop_above is not None and value > stop_above:
            break
    return top, at


def _refinement_change(spec: ModelSpec, xi: float, value: float, t_points: int, refine: int) -> float:
    """How far the frame product ``value`` at ``xi``, taken at ``refine``,
    moves with twice the intervals per piece; a FrameError counts as inf, and
    inf to inf is 0."""
    try:
        fine = suplarge_quantity(spec, xi, t_points, 2 * refine)
    except FrameError:
        fine = math.inf
    return 0.0 if fine == value else abs(fine - value)


def _search(base: ModelSpec, accept: float, xi_points: int, t_points: int, refine: int):
    """One pass of the threshold search, every profile at ``refine`` times the
    starting count: (N, accepted, rejected, trace), where ``accepted`` and
    ``rejected`` are (sup, decisive xi) of the accepted and the last rejected
    window (None if none was rejected)."""
    trace = []
    N, sup = 0.5 / base.T, math.inf
    rejected = None
    while sup > accept:
        N *= 2.0
        points = _points_per_period(base, WINDOW_FACTOR * N, t_points)
        if MAX_REFINE * points > MAX_PROFILE_POINTS:
            raise ThresholdSearchError(
                f"no threshold found below N = {N:g}: its window needs {points} profile points per period, "
                f"{MAX_REFINE} times that at the refinement cap, above the cap {MAX_PROFILE_POINTS} "
                f"(last sup {sup:.6g} > accept level {accept:.6g})"
            )
        sup, at = _window_sup(base, N, xi_points, t_points, stop_above=accept, refine=refine)
        trace.append((N, sup, sup <= accept))
        if sup > accept:
            rejected = sup, at

    lo = N / 2.0  # known failing (or 0.5/T when N = 1/T passed immediately)
    hi, accepted = N, (sup, at)
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        sup, at = _window_sup(base, mid, xi_points, t_points, stop_above=accept, refine=refine)
        ok = sup <= accept
        trace.append((mid, sup, ok))
        if ok:
            hi, accepted = mid, (sup, at)
        else:
            lo, rejected = mid, (sup, at)
    return hi, accepted, rejected, tuple(trace)


def find_threshold_N(
    spec: ModelSpec,
    xi_points: int = 128,
    t_points: int = SUP_T_POINTS,
) -> ThresholdResult:
    """Locate the smallest frequency threshold N with the window criterion.

    Doubles N from 1/T until the supremum of the frame product over
    xi in [N, WINDOW_FACTOR * N] falls below exp(beta T / 2) (with a small
    interior margin so the accepted window survives grid refinement), then
    bisects to three significant digits.  Raises ThresholdSearchError before
    a window whose profiles would exceed MAX_PROFILE_POINTS per period at
    MAX_REFINE times the starting count, and before the first window when
    the accept level is below one: the frame product is at least one at
    every frequency, so no window could pass.

    The search itself runs with the massless symbol h = |xi|, so the returned
    threshold depends on the dissipation alone.  A constant mass m0 acts on
    the frame product as the frequency shift xi -> sqrt(xi^2 + m0^2), and the
    product is not monotone in xi, so mass can raise it at a given xi; the
    massless window is not a worst case.  The bound the threshold promises
    is guaranteed under the actual mass by :func:`verify_highfreq_contraction`.

    The result also records the tail: ``tail_C_b``, ``tail_D_b`` and
    ``tail_xi``, the first xi at which the closed-form bound P(xi) of
    :func:`_tail_bound` drops to the accept level, found without any frame
    profile.  P decreases in xi, so the frame product stays below the accept
    level at every xi >= tail_xi, and the shift sqrt(xi^2 + m0^2) >= xi
    carries this over to any constant mass.  When tail_xi <= xi_max_checked, the closed form covers every
    frequency above the scanned window.

    It records the decision margins of the accepted and the last rejected
    window too, with their refinement sensitivities (see
    :class:`ThresholdResult`); these cost two more profiles per pass.  The
    first pass takes every profile at the starting count of
    :func:`_points_per_period`.  While a margin is at most REFINE_SAFETY times
    its sensitivity, the whole search runs again at twice the count, up to
    MAX_REFINE times it; the result is that of the last pass.
    """
    _require_points(xi_points=xi_points, t_points=t_points)
    base = ModelSpec(spec.b, 0.0, T=spec.T)
    target = math.exp(base.beta * base.T / 2.0)
    accept = target * (1.0 - THRESHOLD_ACCEPT_MARGIN)
    if accept < 1.0:
        raise ThresholdSearchError(
            f"no threshold can exist: the accept level {accept:.6g} = exp(beta T / 2) (1 - "
            f"{THRESHOLD_ACCEPT_MARGIN:g}) is below 1, the least value of the frame product"
        )
    tail_xi = _tail_xi(base.b, base.beta * base.T, accept)

    # the profiles of a search share one grid per length; keep none past it
    try:
        refine = 1
        while True:
            N, accepted, rejected, trace = _search(base, accept, xi_points, t_points, refine)
            result = ThresholdResult(
                N=N,
                sup_value=accepted[0],
                target=target,
                xi_max_checked=WINDOW_FACTOR * N,
                tail_C_b=_tail_constant(base.b),
                tail_D_b=base.b.slope_constant,
                tail_xi=tail_xi,
                accept_margin=accept - accepted[0],
                accept_margin_sensitivity=_refinement_change(base, accepted[1], accepted[0], t_points, refine),
                reject_margin=None if rejected is None else rejected[0] - accept,
                reject_margin_sensitivity=(
                    None if rejected is None else _refinement_change(base, rejected[1], rejected[0], t_points, refine)
                ),
                profile_refine=refine,
                trace=trace,
            )
            if refine >= MAX_REFINE or result._margins_exceed(REFINE_SAFETY):
                return result
            refine *= 2
    finally:
        _b_profile.cache_clear()
        _profile_ends.cache_clear()


def verify_highfreq_contraction(
    spec: ModelSpec,
    N: float,
    nt: int = 64,
    nxi: int = 128,
    tol: float = DEFAULT_TOL,
):
    """Direct check that ||M(t, xi)|| <= exp(-beta T / 2) + VERIFY_SLACK above N.

    Scans t on [0, T] (nt points) and xi on [N, WINDOW_FACTOR * N] (nxi points)
    with the actual mass specification of ``spec`` (constant or perturbed).

    Returns (max_norm, bound, ok).
    """
    _require_points(nt=nt, nxi=nxi)
    t_grid = np.linspace(0.0, spec.T, nt)
    xi_grid = np.linspace(N, WINDOW_FACTOR * N, nxi)
    M = monodromy_grid(spec, t_grid, xi_grid, tol)
    max_norm = float(np.max(spectral_norm_2x2(M)))
    bound = math.exp(-spec.beta * spec.T / 2.0)
    return max_norm, bound, max_norm <= bound + VERIFY_SLACK


def threshold_trace_to_csv(path, result: ThresholdResult) -> None:
    """Write the search trace as CSV: N_candidate, sup_value, accepted."""
    _write_csv(path, ("N_candidate", "sup_value", "accepted"), result.trace)
