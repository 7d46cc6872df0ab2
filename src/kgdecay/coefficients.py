"""Periodic coefficients and model instances.

A :class:`PeriodicCoefficient` is a T-periodic scalar function given by one
form: a closed-form rule registered by name, or uniform samples over one
period with step (order 0) or linear (order 1) interpolation.  A form is the
evaluation on reduced time, the jump and kink offsets within one period, the
exact mean, minimum, sup norm and total variation over one period
(closed-form rules give them in closed form, samples by sums and extrema),
whether b jumps anywhere, the exact slope constant
D = 2 sup|c'| + V_0^{2T}(c') of a coefficient without jumps (inf with jumps),
and the exact one-sided values c(0+) and c(0-) = c(T-) at the period
boundary.  A coefficient that jumps is constant between its breakpoints
(step samples and square waves are the only forms with jumps), so the
propagator takes one exponential per piece of it.
A :class:`ModelSpec` bundles the dissipation b(t), the mass (m0, and
m0^2 + eps*m1(t) when eps > 0) and the shared period T, and validates the
standing model assumptions at construction time.

All objects are immutable after construction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidCoefficientError, ModelAssumptionError

# Relative tolerance for "all coefficients share the same period".
PERIOD_MATCH_RTOL = 1e-12

# sup|m1| must equal one within this tolerance (perturbed-mass normalization).
M1_NORMALIZATION_TOL = 1e-12

# A linearly interpolated sample is a kink when its second difference exceeds
# this many units of rounding of the largest sample.
KINK_ROUNDING_UNITS = 64


def _sorted_unique(values):
    """The distinct values of a 1-d float array, ascending.

    np.unique does the same, but under numpy 2 its first call imports
    numpy.ma, which costs more than a small run's sorting.
    """
    out = np.sort(np.asarray(values, dtype=float))
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _form_constant(period, value):
    value = float(value)
    return (
        (lambda tr: np.full_like(np.asarray(tr, dtype=float), value)), [], value, value, abs(value), 0.0, False, 0.0,
        value, value,
    )


def _form_sin_offset(period, mean, amp, phase=0.0):
    mean, amp, phase = float(mean), float(amp), float(phase)
    w = 2.0 * math.pi / period
    at_zero = mean + amp * math.sin(phase)
    return (
        (lambda tr: mean + amp * np.sin(w * np.asarray(tr, dtype=float) + phase)),
        [],
        mean,
        mean - abs(amp),
        abs(mean) + abs(amp),
        4.0 * abs(amp),
        False,
        10.0 * abs(amp) * w,  # sup|c'| = |amp| w, V(c') = 4 |amp| w
        at_zero,
        at_zero,
    )


def _form_triangle(period, lo, hi):
    # rises lo -> hi on [0, T/2], falls back to lo on [T/2, T]
    lo, hi = float(lo), float(hi)

    def f(tr):
        u = np.asarray(tr, dtype=float) / period
        return lo + (hi - lo) * (1.0 - np.abs(2.0 * u - 1.0))

    # c' = +-2 |hi - lo| / T, so V(c') is four times sup|c'|
    variation, slope = 2.0 * abs(hi - lo), 2.0 * abs(hi - lo) / period
    return (f, [0.5 * period, 0.0], 0.5 * (lo + hi), min(lo, hi), max(abs(lo), abs(hi)), variation, False, 10.0 * slope,
            lo, lo)


def _form_square(period, lo, hi, duty=0.5):
    # hi on [0, duty*T), lo on [duty*T, T)
    lo, hi, duty = float(lo), float(hi), float(duty)

    def f(tr):
        u = np.asarray(tr, dtype=float) / period
        return np.where(u < duty, hi, lo)

    d = min(max(duty, 0.0), 1.0)  # the share of the period at hi
    on_hi, on_lo = d > 0.0, d < 1.0  # which pieces occur
    minimum = min(hi if on_hi else math.inf, lo if on_lo else math.inf)
    sup = max(abs(hi) if on_hi else 0.0, abs(lo) if on_lo else 0.0)
    variation = 2.0 * abs(hi - lo) if on_hi and on_lo else 0.0
    jumps = variation > 0.0
    return (f, [duty * period, 0.0], d * hi + (1.0 - d) * lo, minimum, sup, variation, jumps,
            math.inf if jumps else 0.0, hi if on_hi else lo, lo if on_lo else hi)


def _form_samples(period, samples, order):
    # Uniform samples integrate exactly to the sample mean for both step and
    # linear (trapezoid with wrap-around) interpolation; both interpolants take
    # their extrema at a sample and vary by the wrap-around jumps.  A linear
    # interpolant's slope is constant on each cell and jumps between cells;
    # it returns to the first sample at T, where a step interpolant ends on
    # the last.
    n = samples.size
    step = period / n
    nxt = np.roll(samples, -1)

    def f(tr):
        pos = tr * (n / period)
        idx = np.minimum(pos.astype(np.int64), n - 1)
        if order == 0:
            return samples[idx]
        return samples[idx] + (pos - idx) * (nxt[idx] - samples[idx])

    jumps = order == 0 and bool(np.any(nxt != samples))
    if order == 0:  # every cell edge is a jump
        offsets = np.arange(n) * step
        slope_constant = math.inf if jumps else 0.0
    else:
        second = nxt - 2.0 * samples + np.roll(samples, 1)
        noise = KINK_ROUNDING_UNITS * np.finfo(float).eps * np.max(np.abs(samples))
        offsets = [float(i) * step for i in np.flatnonzero(np.abs(second) > noise)]
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = (nxt - samples) * (n / period)
            slope_constant = float(2.0 * np.max(np.abs(slopes)) + 2.0 * np.sum(np.abs(np.roll(slopes, -1) - slopes)))
        if math.isnan(slope_constant):  # overflowing slopes: no finite bound
            slope_constant = math.inf
    return (
        f,
        offsets,
        float(np.mean(samples)),
        float(np.min(samples)),
        float(np.max(np.abs(samples))),
        float(np.sum(np.abs(nxt - samples))),
        jumps,
        slope_constant,
        float(samples[0]),
        float(samples[-1] if order == 0 else samples[0]),
    )


#: Registered closed-form rules: name -> factory(period, **params) returning a
#: form: (vectorized eval on reduced time, kink/jump offsets within [0, T),
#: exact mean, exact minimum, exact sup|c|, exact total variation over one
#: period, whether any offset is a jump, exact slope constant
#: D = 2 sup|c'| + V_0^{2T}(c') = 2 sup|c'| + 2 V(c'), inf where c jumps,
#: exact c(0+), exact c(0-) = c(T-)).  A form that jumps is constant between
#: its offsets.
#: :func:`_form_samples` returns the same tuple for samples.
FORMS = {
    "constant": _form_constant,
    "sin_offset": _form_sin_offset,
    "triangle": _form_triangle,
    "square": _form_square,
}


def _checked_period(period):
    period = float(period)
    if not (period > 0.0 and math.isfinite(period)):
        raise InvalidCoefficientError(f"period must be positive and finite, got {period}")
    return period


class PeriodicCoefficient:
    """A T-periodic scalar coefficient held as one form (see :data:`FORMS`).

    Evaluation reduces time modulo the period before interpolation, so
    ``eval(t + T)`` and ``eval(t)`` agree bit-exactly whenever ``t + T`` is
    exactly representable.

    Use the classmethods :meth:`from_samples`, :meth:`from_closed_form` and
    :meth:`from_csv` instead of the constructor.
    """

    def __init__(self, period, form, description):
        self.period = period
        (self._eval_fn, offsets, self.mean, self.minimum, self.sup_abs, self.variation, self.has_jumps,
         self.slope_constant, self.start_value, self.end_value) = form
        self._offsets = np.asarray(offsets, dtype=float)
        self._description = description
        if not all(math.isfinite(v) for v in (self.mean, self.minimum, self.sup_abs, self.variation, self.start_value,
                                             self.end_value)):
            raise InvalidCoefficientError("coefficient evaluates to non-finite values")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_samples(cls, values, period, order=1):
        """Coefficient from uniform samples over [0, T)."""
        period = _checked_period(period)
        samples = np.array(values, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise InvalidCoefficientError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(samples)):
            raise InvalidCoefficientError("coefficient samples contain non-finite values")
        if order not in (0, 1):
            raise InvalidCoefficientError(f"interpolation order must be 0 or 1, got {order}")
        return cls(period, _form_samples(period, samples, order), f"samples n={samples.size} order={order}")

    @classmethod
    def from_closed_form(cls, name, period, **params):
        """Coefficient from a registered closed-form rule."""
        period = _checked_period(period)
        if name not in FORMS:
            raise InvalidCoefficientError(f"unknown coefficient form {name!r}; known: {sorted(FORMS)}")
        try:
            form = FORMS[name](period, **params)
        except TypeError as exc:
            raise InvalidCoefficientError(f"bad parameters for form {name!r}: {exc}") from exc
        args = " ".join(f"{k}={v:g}" for k, v in params.items())
        return cls(period, form, f"{name} {args}".strip())

    @classmethod
    def from_csv(cls, path, order=1):
        """Load samples from a two-column CSV (t, value) covering one period.

        The time column must be uniform starting at 0; the period is inferred
        as ``n * dt``.  A header row is skipped if present.
        """
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise InvalidCoefficientError(f"{path}: expected two columns, got {line!r}")
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except ValueError:
                    if not rows:  # tolerate a single header row
                        continue
                    raise InvalidCoefficientError(f"{path}: non-numeric row {line!r}") from None
        if len(rows) < 2:
            raise InvalidCoefficientError(f"{path}: need at least two sample rows")
        ts = np.array([r[0] for r in rows])
        vals = np.array([r[1] for r in rows])
        dt = ts[1] - ts[0]
        if dt <= 0 or abs(ts[0]) > 1e-12 * dt:
            raise InvalidCoefficientError(f"{path}: time column must be uniform starting at 0")
        if np.max(np.abs(np.diff(ts) - dt)) > 1e-9 * dt:
            raise InvalidCoefficientError(f"{path}: time column is not uniform")
        return cls.from_samples(vals, float(len(vals) * dt), order)

    # -- evaluation --------------------------------------------------------

    def eval(self, t):
        """Evaluate at time(s) ``t`` (vectorized, T-periodic)."""
        return self._eval_fn(np.mod(np.asarray(t, dtype=float), self.period))

    def breakpoints_in(self, t0, t1):
        """Interior non-smooth points in (t0, t1): the form's offsets, repeated over periods.

        Step-interpolated samples jump at every cell edge, linearly
        interpolated samples kink where the slope changes, and closed forms
        list their kinks, jumps and the period boundary.  The propagator
        samples coefficients only inside a step, so a kink it is not told
        about is invisible to its error control.
        """
        lo, hi = sorted((float(t0), float(t1)))
        periods = np.arange(math.floor(lo / self.period) - 1, math.ceil(hi / self.period) + 2)
        out = (periods[:, None] * self.period + self._offsets[None, :]).ravel()
        return _sorted_unique(out[(out > lo) & (out < hi)])

    def describe(self):
        """Config-style one-line description (used in reports)."""
        return self._description


class ModelSpec:
    """A full problem instance: dissipation, mass and shared period.

    The mass is m(t)^2 = m0^2, or m0^2 + epsilon * m1(t) with sup|m1| = 1
    when epsilon > 0, the perturbed model; m1 is read only then.  Validates
    at construction, on exact minima: finite m0, epsilon and T, non-negative
    dissipation and epsilon, matching periods, positivity of the perturbed
    mass square and the normalization sup|m1| = 1.  Instances are immutable.
    """

    def __init__(self, b: PeriodicCoefficient, m0, epsilon=0.0, m1: PeriodicCoefficient | None = None, T=None):
        self.b = b
        self.m0 = float(m0)
        self.epsilon = float(epsilon)
        self.m1 = m1 if self.epsilon > 0.0 else None
        self.T = float(T) if T is not None else b.period
        for name, value in (("m0", self.m0), ("epsilon", self.epsilon), ("T", self.T)):
            if not math.isfinite(value):
                raise ModelAssumptionError(f"{name} must be finite, got {value!r}")
        if abs(b.period - self.T) > PERIOD_MATCH_RTOL * self.T:
            raise ModelAssumptionError(
                f"dissipation period {b.period} does not match T = {self.T}"
            )
        if b.minimum < 0.0:
            raise ModelAssumptionError("dissipation must be non-negative")
        #: True when b > 0 everywhere (required for certificate-grade runs;
        #: b >= 0 with zeros is accepted with this flag cleared).
        self.b_strictly_positive = b.minimum > 0.0

        if self.epsilon < 0.0:
            raise ModelAssumptionError("epsilon must be non-negative")
        if self.epsilon == 0.0:
            if self.m0 < 0.0:
                raise ModelAssumptionError("m0 must be non-negative")
            return
        if self.m0 <= 0.0:
            raise ModelAssumptionError("perturbed mode requires m0 > 0")
        if m1 is None:
            raise ModelAssumptionError("epsilon > 0 requires m1")
        if abs(m1.period - self.T) > PERIOD_MATCH_RTOL * self.T:
            raise ModelAssumptionError(
                f"m1 period {m1.period} does not match T = {self.T}"
            )
        if abs(m1.sup_abs - 1.0) > M1_NORMALIZATION_TOL:
            raise ModelAssumptionError(
                f"sup|m1| must equal 1 (got {m1.sup_abs!r}); rescale m1"
            )
        if not self.m0**2 + self.epsilon * m1.minimum > 0.0:
            raise ModelAssumptionError("m0^2 + epsilon*m1(t) must stay positive")

    # -- derived quantities --------------------------------------------------

    @property
    def beta(self):
        """Mean of the dissipation over one period."""
        return self.b.mean

    def m_squared(self, t):
        """m(t)^2, vectorized over ``t``."""
        if self.epsilon > 0.0:
            return self.m0**2 + self.epsilon * self.m1.eval(t)
        return np.full(np.shape(t), self.m0**2)

    def breakpoints_in(self, t0, t1):
        """Union of coefficient breakpoints within (t0, t1)."""
        pts = self.b.breakpoints_in(t0, t1)
        if self.epsilon > 0.0:
            pts = _sorted_unique(np.concatenate([pts, self.m1.breakpoints_in(t0, t1)]))
        return pts

    def constant_mass_version(self):
        """The same model with the perturbation switched off."""
        return ModelSpec(self.b, self.m0, T=self.T) if self.epsilon > 0.0 else self

    def describe(self):
        """Plain-dict description for reports."""
        return {
            "T": self.T,
            "b": self.b.describe(),
            "beta": self.beta,
            "b_min": self.b.minimum,
            "b_strictly_positive": self.b_strictly_positive,
            "m0": self.m0,
            "epsilon": self.epsilon,
            "m1": self.m1.describe() if self.epsilon > 0.0 else None,
        }
