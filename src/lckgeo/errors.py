"""Exception hierarchy for chart evaluation and verification suites, and
:func:`in_item_order`, the one rule for which error a stacked call raises."""


class LckError(Exception):
    """Base class for all package errors."""


class ChartDomainError(LckError):
    """A point (or a finite-difference stencil around it) leaves the chart box."""


class DomainExitError(ChartDomainError):
    """A trajectory left the chart domain; carries the exit time and last point."""

    def __init__(self, message, exit_time=None, point=None):
        super().__init__(message)
        self.exit_time = exit_time
        self.point = point


class MetricError(LckError):
    """The metric is not symmetric positive definite where it was evaluated."""


class IntegrationError(LckError):
    """An ODE integration produced non-finite values."""


class CompatibilityError(LckError):
    """J is not compatible with the metric (J^2 != -Id or g(J.,J.) != g)."""


class NotLcKError(LckError):
    """The extracted Lee form does not satisfy the lcK structure equations."""


class SingularPointError(LckError):
    """An identity dividing by |theta|^2 (or |xi|) was evaluated where it vanishes."""


class PreconditionError(LckError):
    """A suite precondition failed (Einstein deviation, parallel-field defect, ...)."""


class InconsistencyError(LckError):
    """Structure classification produced conflicting evidence."""


class ParameterError(LckError):
    """Invalid constructor or selector parameters."""


class BundleError(LckError):
    """The circle-bundle normalization d(omega) = pullback(Omega_N) is broken."""


class LoopTooLargeError(LckError):
    """Transport around a loop is too far from the identity for a safe logarithm."""


def in_item_order(stacked, each, items):
    """``stacked()``, the evaluation of all the items at once.  Where it
    raises, ``each(item)`` is called on the items in order and the first
    item that raises on its own raises, as a loop over the items would; the
    stacked error is raised only if none does.  A stacked evaluation works
    stage by stage across its stack, so its own error may belong to a later
    item than the first one that fails."""
    try:
        return stacked()
    except Exception:
        for item in items:
            each(item)
        raise
