"""Exception types shared across the package."""


class KgDecayError(Exception):
    """Base class for all package errors."""


class InvalidCoefficientError(KgDecayError):
    """A coefficient has non-finite samples or an unusable representation."""


class ModelAssumptionError(KgDecayError):
    """A standing model assumption is violated (positivity, normalization, periods)."""


class IntegrationFailureError(KgDecayError):
    """Adaptive time stepping underflowed; carries the failure time."""

    def __init__(self, message: str, t_fail: float):
        super().__init__(message)
        self.t_fail = t_fail


class ThresholdSearchError(KgDecayError):
    """The frequency-threshold search exhausted its range without success."""


class NoContractionError(KgDecayError):
    """No uniform contraction power was found up to CONTRACTION_K_MAX; carries the worst sample."""

    def __init__(self, message: str, worst: tuple):
        super().__init__(message)
        self.worst = worst  # (t, xi, norm)


class FitError(KgDecayError):
    """Rate fitting received unusable data."""


class ConfigError(KgDecayError):
    """The run configuration failed to parse or validate."""
