"""Horizontal calculus and verification tools on Carnot groups.

The package centers on the Heisenberg family: graded coordinates with an
explicit horizontal frame, gauge-radial calculus with closed-form
horizontal Hessians, extremal (Pucci-type) operators, semiconvexity
checkers along horizontal lines, and Monte-Carlo estimates that verify
the scaling behavior of a spliced gauge-power family near its critical
integrability exponent.
"""

__version__ = "0.1.0"

from .calculus import (
    DEFAULT_SCHEME,
    DomainError,
    FDScheme,
    RadialProfile,
    ScalarField,
    SingularPointError,
    add_horizontal_quadratic,
    check_field_consistency,
    check_profile_consistency,
    euclid_gradient,
    euclid_hessian,
    field_from_profile,
    horizontal_gradient,
    horizontal_hessian_sym,
    radial_frame,
    radial_hessian,
    radial_hessian_eigenvalues,
    sublaplacian,
)
from .catalog import (
    ConvexityCase,
    constant_field,
    convexity_catalog,
    coordinate_field,
    coordinate_product,
    gauge_quartic,
    horizontal_quadratic,
    saddle_field,
)
from .convexity import (
    DEFAULT_STEP_SIZES,
    SemiconvexityReport,
    XLine,
    check_semiconvex_eigen,
    check_semiconvex_lines,
    integrate_xline,
    xline,
)
from .estimates import (
    AnnihilationReport,
    CounterexampleConfig,
    IllPosedIntegrandError,
    LqEstimate,
    McEstimate,
    PointwiseBoundReport,
    QuadratureSpec,
    SweepReport,
    SweepRow,
    alpha_for_critical_q,
    ball_volume,
    counterexample_field,
    counterexample_profile,
    counterexample_rhs,
    counterexample_rhs_field,
    gauge_ball_sampler,
    lq_norm,
    pointwise_bound_check,
    q_star,
    sweep_scaling,
    verify_pucci_annihilation,
)
from .group import (
    GroupDescriptor,
    UnsupportedGroupError,
    dilate,
    group_inverse,
    group_multiply,
    heisenberg,
    homogeneous_norm,
    left_translation,
)
from .pucci import (
    Ellipticity,
    Spectrum,
    isaacs_gap,
    pucci_minus,
    pucci_minus_of_eigenvalues,
    pucci_oracle_check,
    pucci_plus,
    pucci_plus_of_eigenvalues,
    sym_eigenvalues,
)
from .report import (
    SCHEMA_VERSION,
    dumps,
    sweep_report_dict,
    write_json,
    write_rows_csv,
)
from .rng import substream

__all__ = [
    "__version__",
    # group
    "GroupDescriptor",
    "UnsupportedGroupError",
    "heisenberg",
    "dilate",
    "group_multiply",
    "group_inverse",
    "left_translation",
    "homogeneous_norm",
    # calculus
    "DomainError",
    "SingularPointError",
    "FDScheme",
    "DEFAULT_SCHEME",
    "ScalarField",
    "RadialProfile",
    "euclid_gradient",
    "euclid_hessian",
    "horizontal_gradient",
    "horizontal_hessian_sym",
    "sublaplacian",
    "radial_frame",
    "radial_hessian",
    "radial_hessian_eigenvalues",
    "field_from_profile",
    "add_horizontal_quadratic",
    "check_field_consistency",
    "check_profile_consistency",
    # pucci
    "Ellipticity",
    "Spectrum",
    "sym_eigenvalues",
    "pucci_plus",
    "pucci_minus",
    "pucci_plus_of_eigenvalues",
    "pucci_minus_of_eigenvalues",
    "pucci_oracle_check",
    "isaacs_gap",
    # convexity
    "DEFAULT_STEP_SIZES",
    "XLine",
    "xline",
    "integrate_xline",
    "SemiconvexityReport",
    "check_semiconvex_lines",
    "check_semiconvex_eigen",
    # catalog
    "ConvexityCase",
    "convexity_catalog",
    "constant_field",
    "coordinate_field",
    "coordinate_product",
    "horizontal_quadratic",
    "saddle_field",
    "gauge_quartic",
    # estimates
    "QuadratureSpec",
    "McEstimate",
    "LqEstimate",
    "IllPosedIntegrandError",
    "CounterexampleConfig",
    "AnnihilationReport",
    "PointwiseBoundReport",
    "SweepRow",
    "SweepReport",
    "ball_volume",
    "lq_norm",
    "gauge_ball_sampler",
    "q_star",
    "alpha_for_critical_q",
    "counterexample_profile",
    "counterexample_field",
    "counterexample_rhs",
    "counterexample_rhs_field",
    "verify_pucci_annihilation",
    "sweep_scaling",
    "pointwise_bound_check",
    # report
    "SCHEMA_VERSION",
    "dumps",
    "write_json",
    "write_rows_csv",
    "sweep_report_dict",
    # rng
    "substream",
]
