"""Plane-strain finite elements for transversely isotropic linear elasticity."""

from .material import (
    DegenerateDenominator,
    EngineeringConstants,
    FibreFrame,
    MaterialParameters,
    ParameterOverflow,
    SingularStiffness,
    StabilityVerdict,
    check_stability,
    compliance_matrix_e3,
    derive_parameters,
    error_bound_constant,
    plane_strain_compliance,
    plane_strain_stiffness,
    stiffness_apply,
    stiffness_matrix_e3,
)
from .mesh import QuadMesh, cook_mesh, rectangle_mesh
from .elements import (
    FormulationVariant,
    NonPositiveJacobian,
    QuadratureRule,
    element_stiffness,
    gauss_rule,
    one_point_term,
    p0_projected_term,
    shape_functions,
)
from .assembly import (
    FieldSolution,
    IndefiniteSystem,
    LinearSystem,
    SingularSystem,
    UnknownBoundaryTag,
    apply_dirichlet,
    assemble,
    h1_error,
    solve,
)
from .benchmarks import (
    CSV_HEADER,
    DEFAULT_ANGLES,
    BeamConfig,
    CookConfig,
    ErrorReport,
    LockingRow,
    MissingReference,
    ReportRow,
    beam_edge_profile,
    beam_exact,
    locking_diagnostic,
    run_beam,
    run_cook,
)

__all__ = [name for name in dir() if not name.startswith("_")]
