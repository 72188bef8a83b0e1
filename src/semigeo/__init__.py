"""Semi-Riemannian curvature certification toolkit.

Four building blocks:

* ``charts`` - chart-level tensor calculus and the sampled R >= k check;
* ``spaces`` - model spaces, (warped) products, submersion curvature
  relations, the conformal scalar-curvature formula on tori;
* ``su21`` - the exact su(2,1) homogeneous example: brackets, the invariant
  form, the curvature quartic, feasibility scans, the reduced geodesic flow;
* ``geodesics`` - ODE integration with blow-up detection: geodesics,
  parallel transport, incompleteness demonstrations, the scalar comparison
  equation, and the algebra flow.

The ``semigeo`` console script exposes the verification suites.
"""

from .charts import (
    ChartMetric,
    Conformal,
    CurvatureReport,
    TangentPair,
    TangentSampler,
    area_form,
    check_r_ge_k,
    christoffel,
    curvature_quadform,
    negate,
    riemann,
    riemann_lowered,
    scalar_curvature,
    sectional,
    verify_chart,
)
from .errors import (
    BasisDecompositionError,
    DegeneratePlaneError,
    DomainError,
    EmptySampleError,
    NonTangentError,
    RhsDomainError,
    SemigeoError,
    SingularMetricError,
    StepBudgetError,
    UnsupportedSpaceError,
)
from .geodesics import (
    BLOWUP,
    COMPLETED,
    STEP_UNDERFLOW,
    AlgebraFlowReport,
    BreakdownRun,
    IncompletenessReport,
    IntegrationStats,
    IntegratorConfig,
    ODESystem,
    RiccatiReport,
    RiccatiRun,
    Trajectory,
    TrajectoryStatus,
    breakdown_run,
    euler_arnold_integrate,
    geodesic_rhs,
    horizontality_check,
    incompleteness_demo,
    incompleteness_space,
    integrate,
    lightlike_s,
    lightlike_singular_time,
    make_curve,
    parallel_transport,
    riccati_experiment,
    s_ode_residual,
    timelike_s,
    timelike_singular_time,
    velocity_norm_sq,
    warped_geodesic_rhs,
)
from .spaces import (
    BusemannField,
    VerticalPair,
    Warping,
    WarpedProductSpec,
    assemble,
    base_curvature_bound_check,
    build_space,
    busemann_field,
    busemann_warping,
    conformal_scalar_torus,
    constant_warping,
    euclidean,
    fiber_chart_at,
    flat_torus,
    hyperbolic,
    minkowski,
    oneill_T,
    oneill_relation_check,
    parse_space,
    plain_product,
    sphere,
    twisted_product,
    warped_product,
)
from .su21 import (
    AlgebraElement,
    FeasibilityGrid,
    FeasibilityResult,
    GridCell,
    ModelParams,
    XYZ,
    basis_element,
    bracket,
    curvature_quartic,
    curvature_quartic_first_form,
    det_identity_check,
    eta,
    euler_arnold_rhs,
    feasible,
    feasible_k_interval,
    form_B,
    from_coords,
    from_matrix,
    ineq4_lhs,
    lower_bound_coefficients,
    matrix_commutator,
    metric_t,
    nonintegrability_witness,
    parse_element,
    project,
    sample_margins,
    sample_tangent_pairs,
    scan_region,
    serialize_element,
    xyz_and_gram,
    zero_element,
)

__version__ = "0.1.0"
