"""Periodic coefficients and model instances.

A :class:`PeriodicCoefficient` is a T-periodic scalar function given either by
a closed-form rule registered by name, or by uniform samples over one period
with step (order 0) or linear (order 1) interpolation.  A :class:`ModelSpec`
bundles the dissipation b(t), the mass specification (constant m0, or
m0^2 + eps*m1(t)), and the shared period T, and validates the standing model
assumptions on a fixed grid at construction time.

All objects are immutable after construction; derived quantities (mean,
total variation) are cached eagerly, never lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import InvalidCoefficientError, ModelAssumptionError

# Number of uniform points per period used for assumption checks.
VALIDATION_GRID_SIZE = 4096

# Relative tolerance for "all coefficients share the same period".
PERIOD_MATCH_RTOL = 1e-12

# sup|m1| must equal one within this tolerance (perturbed-mass normalization).
M1_NORMALIZATION_TOL = 1e-12

# A linearly interpolated sample is a kink when its second difference exceeds
# this many units of rounding of the largest sample.
KINK_ROUNDING_UNITS = 64


def _form_constant(period, value):
    value = float(value)
    return (lambda tr: np.full_like(np.asarray(tr, dtype=float), value)), []


def _form_sin_offset(period, mean, amp, phase=0.0):
    mean, amp, phase = float(mean), float(amp), float(phase)
    w = 2.0 * math.pi / period
    return (lambda tr: mean + amp * np.sin(w * np.asarray(tr, dtype=float) + phase)), []


def _form_triangle(period, lo, hi):
    # rises lo -> hi on [0, T/2], falls back to lo on [T/2, T]
    lo, hi = float(lo), float(hi)

    def f(tr):
        u = np.asarray(tr, dtype=float) / period
        return lo + (hi - lo) * (1.0 - np.abs(2.0 * u - 1.0))

    return f, [0.5 * period]


def _form_square(period, lo, hi, duty=0.5):
    # hi on [0, duty*T), lo on [duty*T, T)
    lo, hi, duty = float(lo), float(hi), float(duty)

    def f(tr):
        u = np.asarray(tr, dtype=float) / period
        return np.where(u < duty, hi, lo)

    return f, [duty * period]


#: Registered closed-form rules: name -> factory(period, **params) returning
#: (vectorized eval on reduced time, list of kink/jump offsets within [0, T)).
FORMS = {
    "constant": _form_constant,
    "sin_offset": _form_sin_offset,
    "triangle": _form_triangle,
    "square": _form_square,
}


class PeriodicCoefficient:
    """A T-periodic scalar coefficient with cached derived quantities.

    Evaluation reduces time modulo the period before interpolation, so
    ``eval(t + T)`` and ``eval(t)`` agree bit-exactly whenever ``t + T`` is
    exactly representable.

    Use the classmethods :meth:`from_samples`, :meth:`from_closed_form` and
    :meth:`from_csv` instead of the constructor.
    """

    def __init__(self, period, *, samples=None, order=1, name=None, params=None):
        period = float(period)
        if not (period > 0.0 and math.isfinite(period)):
            raise InvalidCoefficientError(f"period must be positive and finite, got {period}")
        self.period = period
        self.name = name
        self.params = dict(params) if params else None
        self._eval_fn = None
        self._kinks = []

        if samples is not None:
            samples = np.asarray(samples, dtype=float)
            if samples.ndim != 1 or samples.size < 1:
                raise InvalidCoefficientError("samples must be a non-empty 1-d array")
            if not np.all(np.isfinite(samples)):
                raise InvalidCoefficientError("coefficient samples contain non-finite values")
            if order not in (0, 1):
                raise InvalidCoefficientError(f"interpolation order must be 0 or 1, got {order}")
            self.samples = samples
            self.order = int(order)
            if self.order == 1:
                second = np.roll(samples, -1) - 2.0 * samples + np.roll(samples, 1)
                noise = KINK_ROUNDING_UNITS * np.finfo(float).eps * np.max(np.abs(samples))
                step = period / samples.size
                self._kinks = [float(i) * step for i in np.flatnonzero(np.abs(second) > noise)]
        elif name is not None:
            if name not in FORMS:
                raise InvalidCoefficientError(
                    f"unknown coefficient form {name!r}; known: {sorted(FORMS)}"
                )
            try:
                self._eval_fn, self._kinks = FORMS[name](period, **(params or {}))
            except TypeError as exc:
                raise InvalidCoefficientError(f"bad parameters for form {name!r}: {exc}") from exc
            self.samples = None
            self.order = None
        else:
            raise InvalidCoefficientError("either samples or a registered form name is required")

        self._finalize()

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_samples(cls, values, period, order=1):
        """Coefficient from uniform samples over [0, T)."""
        return cls(period, samples=values, order=order)

    @classmethod
    def from_closed_form(cls, name, period, **params):
        """Coefficient from a registered closed-form rule."""
        return cls(period, name=name, params=params)

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
        return cls(float(len(vals) * dt), samples=vals, order=order)

    # -- construction-time caches -----------------------------------------

    def _finalize(self):
        n = VALIDATION_GRID_SIZE
        grid = np.arange(n) * (self.period / n)
        vals = self.eval(grid)
        if not np.all(np.isfinite(vals)):
            raise InvalidCoefficientError("coefficient evaluates to non-finite values")
        self.grid_min = float(np.min(vals))
        self.grid_max = float(np.max(vals))
        self.sup_abs = float(np.max(np.abs(vals)))

        if self.samples is not None:
            s = self.samples
            # total variation of the periodic extension over one period
            self.total_variation = float(np.sum(np.abs(np.diff(s))) + abs(s[0] - s[-1]))
            # uniform samples integrate exactly to the sample mean for both
            # step and linear (trapezoid with wrap-around) interpolation
            self.mean = float(np.mean(s))
        else:
            self.total_variation = float(
                np.sum(np.abs(np.diff(vals))) + abs(vals[0] - vals[-1])
            )
            val, _ = quad(
                lambda x: float(self._eval_fn(np.asarray(x % self.period))),
                0.0,
                self.period,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-13,
                points=self._kinks or None,
            )
            self.mean = val / self.period

    # -- evaluation --------------------------------------------------------

    def eval(self, t):
        """Evaluate at time(s) ``t`` (vectorized, T-periodic)."""
        tr = np.mod(np.asarray(t, dtype=float), self.period)
        if self._eval_fn is not None:
            return self._eval_fn(tr)
        s = self.samples
        n = s.size
        pos = tr * (n / self.period)
        idx = np.minimum(pos.astype(np.int64), n - 1)
        if self.order == 0:
            return s[idx]
        frac = pos - idx
        nxt = s[(idx + 1) % n]
        return s[idx] + frac * (nxt - s[idx])

    def breakpoints_in(self, t0, t1):
        """Interior non-smooth points of the representation in (t0, t1).

        Step-interpolated samples contribute every cell edge; linearly
        interpolated samples contribute the sample points where the slope
        changes; closed forms contribute their registered kink/jump offsets and
        the period boundary.  The propagator samples coefficients only inside a
        step, so a kink it is not told about is invisible to its error control.
        """
        t0, t1 = float(t0), float(t1)
        lo, hi = min(t0, t1), max(t0, t1)
        pts = []
        if self.samples is not None and self.order == 0:
            dt = self.period / self.samples.size
            k0 = math.floor(lo / dt) + 1
            k1 = math.ceil(hi / dt) - 1
            if k1 >= k0:
                pts.append(np.arange(k0, k1 + 1) * dt)
        elif self._kinks:
            j0 = math.floor(lo / self.period) - 1
            j1 = math.ceil(hi / self.period) + 1
            offs = np.asarray(self._kinks if self.samples is not None else self._kinks + [0.0])
            cand = (np.arange(j0, j1 + 1)[:, None] * self.period + offs[None, :]).ravel()
            pts.append(cand)
        if not pts:
            return np.empty(0)
        out = np.concatenate(pts)
        return np.unique(out[(out > lo) & (out < hi)])

    def describe(self):
        """Config-style one-line description (used in reports)."""
        if self.name is not None:
            args = " ".join(f"{k}={v:g}" for k, v in (self.params or {}).items())
            return f"{self.name} {args}".strip()
        return f"samples n={self.samples.size} order={self.order}"


# -- mass specifications ----------------------------------------------------


@dataclass(frozen=True)
class ConstantMass:
    """Constant mass m(t) = m0 >= 0."""

    m0: float


@dataclass(frozen=True)
class PerturbedMass:
    """Perturbed mass m(t)^2 = m0^2 + epsilon * m1(t), sup|m1| = 1."""

    m0: float
    epsilon: float
    m1: PeriodicCoefficient


class ModelSpec:
    """A full problem instance: dissipation, mass and shared period.

    Validates at construction: non-negative dissipation, matching periods,
    positivity of the perturbed mass square and normalization sup|m1| = 1 on
    the validation grid.  Instances are immutable.
    """

    def __init__(self, b: PeriodicCoefficient, mass, T=None):
        if not isinstance(mass, (ConstantMass, PerturbedMass)):
            raise ModelAssumptionError("mass must be ConstantMass or PerturbedMass")
        self.b = b
        self.mass = mass
        self.T = float(T) if T is not None else b.period
        if abs(b.period - self.T) > PERIOD_MATCH_RTOL * self.T:
            raise ModelAssumptionError(
                f"dissipation period {b.period} does not match T = {self.T}"
            )
        if b.grid_min < 0.0:
            raise ModelAssumptionError("dissipation must be non-negative")
        #: True when b > 0 on the whole validation grid (required for
        #: certificate-grade runs; b >= 0 with zeros is accepted with this
        #: flag cleared).
        self.b_strictly_positive = b.grid_min > 0.0

        if isinstance(mass, ConstantMass):
            if mass.m0 < 0.0:
                raise ModelAssumptionError("m0 must be non-negative")
        else:
            if mass.m0 <= 0.0:
                raise ModelAssumptionError("perturbed mode requires m0 > 0")
            if mass.epsilon < 0.0:
                raise ModelAssumptionError("epsilon must be non-negative")
            if abs(mass.m1.period - self.T) > PERIOD_MATCH_RTOL * self.T:
                raise ModelAssumptionError(
                    f"m1 period {mass.m1.period} does not match T = {self.T}"
                )
            if abs(mass.m1.sup_abs - 1.0) > M1_NORMALIZATION_TOL:
                raise ModelAssumptionError(
                    f"sup|m1| must equal 1 (got {mass.m1.sup_abs!r}); rescale m1"
                )
            n = VALIDATION_GRID_SIZE
            grid = np.arange(n) * (self.T / n)
            msq = mass.m0**2 + mass.epsilon * mass.m1.eval(grid)
            if np.min(msq) <= 0.0:
                raise ModelAssumptionError(
                    "m0^2 + epsilon*m1(t) must stay positive on the validation grid"
                )

    # -- derived quantities --------------------------------------------------

    @property
    def m0(self):
        return self.mass.m0

    @property
    def epsilon(self):
        return self.mass.epsilon if isinstance(self.mass, PerturbedMass) else 0.0

    @property
    def beta(self):
        """Mean of the dissipation over one period."""
        return self.b.mean

    def m_squared(self, t):
        """m(t)^2, vectorized over ``t``."""
        if isinstance(self.mass, ConstantMass):
            return np.broadcast_to(self.mass.m0**2, np.shape(t)).copy() if np.ndim(t) else self.mass.m0**2
        return self.mass.m0**2 + self.mass.epsilon * self.mass.m1.eval(t)

    def symbol(self, t, xi):
        """The coupling symbol sqrt(xi^2 + m(t)^2); ``t`` and ``xi`` broadcast."""
        rad = np.asarray(xi, dtype=float) ** 2 + self.m_squared(t)
        if np.any(np.asarray(rad) < 0.0):
            raise ModelAssumptionError("negative radicand in symbol: perturbed mass not positive")
        return np.sqrt(rad)

    def breakpoints_in(self, t0, t1):
        """Union of coefficient breakpoints within (t0, t1)."""
        pts = [self.b.breakpoints_in(t0, t1)]
        if isinstance(self.mass, PerturbedMass):
            pts.append(self.mass.m1.breakpoints_in(t0, t1))
        out = np.unique(np.concatenate(pts))
        return out

    def constant_mass_version(self):
        """The same model with the perturbation switched off."""
        if isinstance(self.mass, ConstantMass):
            return self
        return ModelSpec(self.b, ConstantMass(self.mass.m0), self.T)

    def describe(self):
        """Plain-dict description for reports."""
        d = {
            "T": self.T,
            "b": self.b.describe(),
            "beta": self.beta,
            "b_min": self.b.grid_min,
            "b_strictly_positive": self.b_strictly_positive,
            "m0": self.m0,
            "epsilon": self.epsilon,
            "m1": self.mass.m1.describe() if isinstance(self.mass, PerturbedMass) else None,
        }
        return d

