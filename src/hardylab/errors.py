"""Exception types shared across the package."""


class HardyLabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(HardyLabError, ValueError):
    """An argument violates a documented precondition: a point off its domain,
    a case or domain a rule is not stated for, a vanishing input, a bad value."""


class EvaluationError(HardyLabError, ArithmeticError):
    """An integrand produced a non-finite value.

    Carries the offending quadrature node (if known) in ``node``.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
