"""Exception hierarchy shared across the toolkit."""


class DelaySyncError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DelaySyncError, ValueError):
    """Matrix or vector shapes are inconsistent with the operation."""


class NumericError(DelaySyncError, RuntimeError):
    """A numeric routine failed (non-finite data, iteration breakdown)."""


class ConvergenceError(NumericError):
    """An iterative solver ran out of iterations.

    Carries the last residual so callers can report how close it got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class AssumptionError(DelaySyncError, ValueError):
    """The model violates a structural assumption (stabilizability,
    detectability, or spectrum outside the closed unit disc)."""


class DegenerateInputError(AssumptionError):
    """The input channel carries no gain (B'PB has zero largest eigenvalue)."""


class DesignError(DelaySyncError, RuntimeError):
    """A protocol design stage failed; the message carries the stage tag."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ScenarioError(DelaySyncError, ValueError):
    """A scenario config is invalid. Collects every violation, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class GridSizeError(DelaySyncError, ValueError):
    """A sweep would exceed the evaluation budget."""
