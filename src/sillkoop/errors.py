"""Exception types shared across the package.

Contract violations (bad shapes, bad parameters, malformed files) raise
ValueError or a subclass of it; numerical failures raise RuntimeError
subclasses so callers can tell the two apart.
"""

__all__ = ["IncomparableCentersError", "QuadratureError", "ClosureBoundError"]


class IncomparableCentersError(ValueError):
    """Two conjunctive logistics admit no dominance order.

    Raised by operations that require a componentwise order between the
    center vectors of a pair (the steepness-decay analysis).  The fix is
    to join-complete the dictionary or pick a comparable pair.
    """


class QuadratureError(RuntimeError):
    """A quadrature rule and its check rule with twice the panels disagree."""


class ClosureBoundError(RuntimeError):
    """A fitted model's residual exceeded its analytic closure bound."""
