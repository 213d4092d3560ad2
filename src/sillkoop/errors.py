"""Exception types shared across the package.

Bad input (shapes, parameters, malformed files) raises ValueError.  The
CLI exits 3 on the numerical failures: the two RuntimeErrors below,
FloatingPointError and numpy's LinAlgError (a ValueError, caught first).
"""

__all__ = ["QuadratureError", "ClosureBoundError"]


class QuadratureError(RuntimeError):
    """A quadrature rule and its check rule with twice the panels disagree."""


class ClosureBoundError(RuntimeError):
    """A fitted model's residual exceeded its analytic closure bound."""
