"""Exception types shared across the package.

Contract violations (bad shapes, bad parameters, malformed files) raise
ValueError or a subclass of it; numerical failures raise RuntimeError
subclasses so callers can tell the two apart.
"""

__all__ = ["QuadratureError", "ClosureBoundError"]


class QuadratureError(RuntimeError):
    """A quadrature rule and its check rule with twice the panels disagree."""


class ClosureBoundError(RuntimeError):
    """A fitted model's residual exceeded its analytic closure bound."""
