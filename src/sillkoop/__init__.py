"""State-inclusive logistic lifting (SILL) dictionaries for Koopman models.

The package identifies finite Koopman generator approximations over
dictionaries of the form [1, y, conjunctive logistics] and demonstrates,
numerically, that such dictionaries are approximately closed: products of
logistics collapse onto their componentwise-max joins as steepness grows,
so the fitted generator's residual admits explicit, decaying bounds.

Modules
-------
dictionary  evaluation, gradients, dominance order, join completion
regression  generator / operator least squares, prediction, residuals
closure     Lie-derivative approximation chain, bounds, experiments
stats       moments of randomly parameterized logistics, MC cross-checks
bench       vector fields, RK4, exact snapshots, polynomial non-closure
cli         experiment runner producing CSV/JSON artifacts
"""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
from .dictionary import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403
from .closure import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
