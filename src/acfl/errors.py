"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class NumericError(ArithmeticError):
    """A numerical run failed (a diverged iterate, a probe that saw only zero norms)."""
