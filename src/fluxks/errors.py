"""Exception types shared across the package."""


class FluxksError(Exception):
    """Base class for package errors."""


class ConfigError(FluxksError, ValueError):
    """Invalid run/sweep configuration; maps to CLI exit code 3."""


class SolverError(FluxksError, RuntimeError):
    """Linear solve failed to reach its residual target."""


class TimeStepCollapse(FluxksError, RuntimeError):
    """Selected time step fell below dt_min; treated as suspected blow-up."""


class PositivityError(FluxksError, RuntimeError):
    """Negative cell values beyond roundoff, which inverse-positive solves rule out."""
