"""Lower bounds on estimator variance via likelihood-ratio kernel projections.

The kernel of an estimation problem at a reference parameter x0 is the
correlation of likelihood ratios under x0; classical variance bounds arise as
squared norms of the projection of the prescribed estimator mean onto finite
subspaces of the associated function space.  Canonical exponential families
admit closed forms through their moment-generating function.
"""

from .bounds import (
    BarankinSearch,
    BoundResult,
    MethodSpec,
    TestPointSet,
    barankin_approx,
    bhattacharyya,
    constrained_crb,
    crb,
    evaluate_bound,
    expfam_bound,
    expfam_crb,
    fisher_info,
    hcrb,
    null_space_onb,
)
from .calculus import (
    FDConfig,
    MultiIndex,
    moment,
    moment_table,
    multi_binomial,
    multi_indices_leq,
    partial_derivative,
)
from .errors import (
    ConfigurationError,
    ConstraintRankError,
    DataError,
    KernelEvaluationError,
    NaturalSpaceError,
    ReferenceSupportError,
    StencilError,
    VarBoundsError,
)
from .harness import (
    EstimatorSpec,
    ReductionReport,
    ScanReport,
    ValidationReport,
    constant_estimator,
    estimator_variance_mc,
    phi_estimator,
    reduction_experiment,
    semicontinuity_scan,
    validate_bounds,
)
from .kernel import (
    DerivBasis,
    DiffBasis,
    ExpfamKernelEvaluator,
    GramSystem,
    MonteCarloKernelEvaluator,
    PointBasis,
    SufficientStatistic,
    SummationKernelEvaluator,
    derivative_kernel_function,
    gram,
    gram_system,
    kernel_expfam,
    kernel_mc,
    make_gram_system,
    projected_sq_norm,
    suffstat_kernel_check,
)
from .models import (
    BUILTIN_FAMILIES,
    ExponentialFamilyModel,
    GenericModel,
    MeanFunction,
    as_generic,
    bernoulli,
    constant_mean,
    expfam_mean,
    exponential_rate,
    gaussian_iid,
    gaussian_mean,
    gaussian_mean_nd,
    gaussian_sum,
    identity_mean,
    likelihood_ratio,
    log_density,
    make_model,
    mean_partial,
    natural_space_contains,
    poisson,
    polynomial_mean,
    sample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
