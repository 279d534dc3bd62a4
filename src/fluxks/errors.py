"""Exception types shared across the package."""


class FluxksError(Exception):
    """Base class for package errors."""


class ConfigError(FluxksError, ValueError):
    """Invalid run/sweep configuration; maps to CLI exit code 3."""


class SolverError(FluxksError, RuntimeError):
    """Linear solve failed to reach its residual target."""


class TimeStepCollapse(FluxksError, RuntimeError):
    """CFL-selected time step fell below dt_min; treated as suspected blow-up."""


class PositivityError(FluxksError, RuntimeError):
    """Negative cell values beyond roundoff: signals CFL misconfiguration.

    ``outflow_rate`` is the largest outflow rate of the flux that moved them, or 0."""

    def __init__(self, message: str, outflow_rate: float = 0.0):
        super().__init__(message)
        self.outflow_rate = outflow_rate
