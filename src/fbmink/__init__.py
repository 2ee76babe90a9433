"""Numerical verification of weighted geometric inequalities for
free-boundary hypersurfaces supported on umbilical hypersurfaces in
space forms.

The package builds exactly representable cap scenarios (spherical caps
meeting their support orthogonally, plus controlled radial
perturbations), equips them with the closed-form static weight attached
to each support, and integrates both sides of the weighted volumetric,
curvature-quadratic, and scalar-curvature-pinching inequalities with
tensor-product Gauss-Legendre quadrature.  A weighted integral identity
with boundary terms serves as an end-to-end consistency check of every
geometric ingredient at once.
"""

__version__ = "0.1.0"

from .ambient import (
    SpaceFormModel,
    euclidean,
    poincare_ball,
    sectional_curvature_probe,
    sphere_stereographic,
    upper_half_space,
)
from .errors import (
    ConfigError,
    DegenerateImmersion,
    DegeneratePlane,
    DimensionTooLow,
    FbminkError,
    InadmissiblePlacement,
    IOFailure,
    NoBoundary,
    NonSmoothTestFunction,
    OrthogonalityInfeasible,
    PointNotOnSupport,
    PointOutsideChart,
    StarShapeViolated,
    ValidationFailed,
    WeightNonpositive,
)
from .families import (
    CapScenario,
    CapSpec,
    PerturbationSpec,
    default_cap_spec,
    make_perturbed_cap,
    make_umbilical_cap,
    perturb_cap,
    region_margins,
    validate_scenario,
)
from .inequalities import (
    HypothesisAudit,
    InequalityReport,
    ReillyReport,
    af_report,
    hypothesis_audit,
    minkowski_report,
    reilly_residual,
    schur_report,
)
from .quadrature import (
    ConvergenceTable,
    QuadratureRule,
    default_level,
    refine_study,
)
from .supports import (
    SupportKind,
    SupportSpec,
    make_support,
)
from .weights import (
    WeightField,
    WeightFormula,
    hessian_identity_residual,
    neumann_identity_residual,
    weight_for_support,
)

__all__ = [
    "__version__",
    "SpaceFormModel",
    "euclidean",
    "poincare_ball",
    "upper_half_space",
    "sphere_stereographic",
    "sectional_curvature_probe",
    "FbminkError",
    "ConfigError",
    "IOFailure",
    "PointOutsideChart",
    "DegeneratePlane",
    "PointNotOnSupport",
    "DegenerateImmersion",
    "NoBoundary",
    "WeightNonpositive",
    "InadmissiblePlacement",
    "OrthogonalityInfeasible",
    "StarShapeViolated",
    "DimensionTooLow",
    "ValidationFailed",
    "NonSmoothTestFunction",
    "CapScenario",
    "CapSpec",
    "PerturbationSpec",
    "default_cap_spec",
    "make_umbilical_cap",
    "make_perturbed_cap",
    "perturb_cap",
    "region_margins",
    "validate_scenario",
    "HypothesisAudit",
    "InequalityReport",
    "ReillyReport",
    "hypothesis_audit",
    "minkowski_report",
    "af_report",
    "schur_report",
    "reilly_residual",
    "QuadratureRule",
    "ConvergenceTable",
    "default_level",
    "refine_study",
    "SupportKind",
    "SupportSpec",
    "make_support",
    "WeightField",
    "WeightFormula",
    "weight_for_support",
    "hessian_identity_residual",
    "neumann_identity_residual",
]
