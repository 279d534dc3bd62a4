"""Exception types shared across the package.  A run stops by raising one where
the stop is found: :class:`BlowUpSuspected` ends it ``BlowUpSuspected``, any
other :class:`FluxksError` ``NumericalFailure``."""


class FluxksError(Exception):
    """Base class for package errors."""


class ConfigError(FluxksError, ValueError):
    """Invalid run/sweep configuration; maps to CLI exit code 3."""


class SolverError(FluxksError, RuntimeError):
    """Linear solve failed to reach its residual target."""


class BlowUpSuspected(FluxksError, RuntimeError):
    """The solution grew past what the run resolves: a physical stop."""


class PositivityError(FluxksError, RuntimeError):
    """Negative cell values beyond roundoff, which inverse-positive solves rule out."""
