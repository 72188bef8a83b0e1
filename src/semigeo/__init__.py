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

The package loads lazily (PEP 562): ``import semigeo`` loads none of the
four, and ``semigeo.<name>`` imports the submodule that defines ``name`` on
first use.  Each access reads the name from its submodule, so a function
replaced there (a test's monkeypatch, a tracing wrapper) is what the package
hands out.

The ``semigeo`` console script (or ``python -m semigeo``) exposes the
verification suites.
"""

from importlib import import_module as _import_module

_EXPORTS = {  # submodule -> the public names it defines
    "charts": (
        "ChartMetric", "Conformal", "CurvatureReport", "TangentPair", "area_form", "check_r_ge_k",
        "christoffel", "curvature_quadform", "negate", "riemann", "riemann_lowered", "sample_block",
        "scalar_curvature", "sectional", "verify_chart",
    ),
    "errors": (
        "BasisDecompositionError", "DegeneratePlaneError", "DomainError", "EmptySampleError",
        "NonTangentError", "RhsDomainError", "SemigeoError", "SingularMetricError", "StepBudgetError",
        "UnsupportedSpaceError",
    ),
    "geodesics": (
        "BLOWUP", "COMPLETED", "STEP_UNDERFLOW", "AlgebraFlowReport", "BreakdownRun", "IncompletenessReport",
        "IntegrationStats", "IntegratorConfig", "ODESystem", "RiccatiReport", "RiccatiRun", "Trajectory",
        "TrajectoryStatus", "breakdown_run", "euler_arnold_integrate", "geodesic_rhs", "horizontality_check",
        "incompleteness_demo", "incompleteness_space", "integrate", "lightlike_s", "lightlike_singular_time",
        "make_curve", "parallel_transport", "riccati_experiment", "s_ode_residual", "timelike_s",
        "timelike_singular_time", "velocity_norm_sq", "warped_geodesic_rhs",
    ),
    "spaces": (
        "BusemannField", "VerticalPair", "Warping", "WarpedProductSpec", "assemble",
        "base_curvature_bound_check", "build_space", "busemann_field", "busemann_warping",
        "conformal_scalar_torus", "constant_warping", "euclidean", "fiber_chart_at", "flat_torus",
        "hyperbolic", "minkowski", "oneill_T", "oneill_relation_check", "parse_space", "plain_product",
        "sphere", "twisted_product", "warped_product",
    ),
    "su21": (
        "AlgebraElement", "FeasibilityGrid", "FeasibilityResult", "GridCell", "ModelParams", "XYZ",
        "basis_element", "bracket", "curvature_quartic", "curvature_quartic_first_form",
        "det_identity_check", "eta", "euler_arnold_rhs", "feasible", "feasible_k_interval", "form_B",
        "from_coords", "from_matrix", "ineq4_lhs", "lower_bound_coefficients", "matrix_commutator",
        "metric_t", "nonintegrability_witness", "parse_element", "project", "sample_margins",
        "scan_region", "serialize_element", "xyz_and_gram", "zero_element",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package globals: the next access reads the submodule again.
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
