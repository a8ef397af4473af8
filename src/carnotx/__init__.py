"""Horizontal calculus and verification tools on the Heisenberg groups H^d.

Graded coordinates with an explicit horizontal frame, gauge-radial
calculus with closed-form horizontal Hessians, extremal (Pucci-type)
operators, semiconvexity checkers along horizontal lines, and Monte-Carlo estimates that verify
the scaling behavior of a spliced gauge-power family near its critical
integrability exponent.
"""

__version__ = "0.1.0"

from .calculus import (
    DomainError,
    RadialProfile,
    ScalarField,
    SingularPointError,
    field_from_profile,
    horizontal_hessian_sym,
    radial_hessian,
    sublaplacian,
)
from .catalog import (
    ConvexityCase,
    add_horizontal_quadratic,
    constant_field,
    convexity_catalog,
    coordinate_field,
    gauge_quartic,
    horizontal_quadratic,
    saddle_field,
)
from .convexity import (
    check_semiconvex_eigen,
    check_semiconvex_lines,
    integrate_xline,
)
from .estimates import (
    CounterexampleConfig,
    IllPosedIntegrandError,
    McEstimate,
    QuadratureSpec,
    ball_volume,
    counterexample_profile,
    counterexample_rhs_field,
    gauge_ball_sampler,
    lq_norm,
    pointwise_bound_check,
    sweep_scaling,
    verify_pucci_annihilation,
)
from .group import (
    GroupDescriptor,
    heisenberg,
)
from .pucci import (
    Ellipticity,
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
    write_json,
    write_rows_csv,
)
from .rng import substream

__all__ = [
    "__version__",
    # group
    "GroupDescriptor",
    "heisenberg",
    # calculus
    "DomainError",
    "SingularPointError",
    "ScalarField",
    "RadialProfile",
    "horizontal_hessian_sym",
    "sublaplacian",
    "radial_hessian",
    "field_from_profile",
    # pucci
    "Ellipticity",
    "sym_eigenvalues",
    "pucci_plus",
    "pucci_minus",
    "pucci_plus_of_eigenvalues",
    "pucci_minus_of_eigenvalues",
    "pucci_oracle_check",
    "isaacs_gap",
    # convexity
    "integrate_xline",
    "check_semiconvex_lines",
    "check_semiconvex_eigen",
    # catalog
    "ConvexityCase",
    "convexity_catalog",
    "constant_field",
    "coordinate_field",
    "horizontal_quadratic",
    "add_horizontal_quadratic",
    "saddle_field",
    "gauge_quartic",
    # estimates
    "QuadratureSpec",
    "McEstimate",
    "IllPosedIntegrandError",
    "CounterexampleConfig",
    "ball_volume",
    "lq_norm",
    "gauge_ball_sampler",
    "counterexample_profile",
    "counterexample_rhs_field",
    "verify_pucci_annihilation",
    "sweep_scaling",
    "pointwise_bound_check",
    # report
    "SCHEMA_VERSION",
    "dumps",
    "write_json",
    "write_rows_csv",
    # rng
    "substream",
]
