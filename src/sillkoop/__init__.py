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
bench       benchmark fields, exact snapshots, polynomial non-closure
cli         experiment runner producing CSV/JSON artifacts
"""

__version__ = "0.1.0"

from .dictionary import (
    ConjLogistic,
    OrderCheckResult,
    ScalarLogisticParams,
    SillDictionary,
    check_total_order,
    dominates,
    eval_conjunctive,
    eval_scalar_logistic,
    grad_conjunctive,
    join_completion,
    join_params,
    lift,
    lift_jacobian,
    load_dictionary,
    save_dictionary,
)
from .regression import (
    KoopmanModel,
    ResidualReport,
    SnapshotSet,
    Trajectory,
    fit_edmd,
    fit_generator,
    lift_derivatives,
    load_model,
    load_snapshots,
    predict_ct,
    project_state,
    residual,
    save_model,
    save_snapshots,
    solve_koopman_ls,
)
from .closure import (
    ClosureReport,
    DecayFit,
    LieForms,
    SpannedField,
    closure_experiment,
    compute_bounds,
    half_cell_shift,
    hyperplane_distance,
    lattice_grid,
    lie_forms,
    product_approx_decay,
    product_approx_error,
)
from .stats import (
    ErrorRateRow,
    MomentReport,
    UniformIntervalSpec,
    expected_error_rates,
    expected_logistic,
    mc_conjunctive,
    mc_conjunctive_table,
    moment_sweep,
    product_cdf,
    product_pdf,
    product_pdf_normalization,
    triangular_pdf,
)
from .bench import (
    PolynomialDictionary,
    PolynomialGrowthResult,
    VectorField,
    builtin_fields,
    corpus_manifest,
    make_snapshots,
    polynomial_residual_growth,
    rk4_integrate,
    spanned_field,
)
from .errors import ClosureBoundError, IncomparableCentersError, QuadratureError
