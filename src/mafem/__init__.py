"""Finite elements for the elliptic Monge-Ampere equation on convex polygons."""

from .assembly import (
    jacobian,
    linearized_operator_check,
    load_vector,
    residual,
)
from .convexity import ConvexityReport, analyze, strictify
from .errors import (
    DegeneratePolygonError,
    EmptySubdomainError,
    MafemError,
    NonConvergenceError,
    NonConvexInputError,
    SingularJacobianError,
)
from .fespace import (
    FeFunction,
    FeSpace,
    Quadrature,
    broken_error_h2,
    interpolate,
    l2_error,
    sup_error,
)
from .geometry import ConvexPolygon
from .ma_measure import (
    MaMeasure,
    P1Function,
    aleksandrov_bound,
    convex_envelope_boundary,
    interpolate_p1,
    measure_pairing,
    partial_ma_measure,
    subdifferential_p1,
    weak_convergence_residual,
)
from .mesh import (
    Mesh,
    check_mesh,
    interior_subdomain,
    refine_uniform,
    regular_polygon,
    shape_metrics,
    triangulate,
    unit_square,
)
from .problems import CATALOGUE, Problem, get_problem, problem_from_json
from .regularize import mollify, shift, truncate
from .solver import (
    SolverConfig,
    SolveReport,
    continuation_solve,
    default_initial_guess,
    newton_solve,
)
from .study import (
    StudyReport,
    run_convergence_study,
    run_measure_verification,
    solve_problem,
)

__all__ = [
    "CATALOGUE",
    "ConvexPolygon",
    "ConvexityReport",
    "DegeneratePolygonError",
    "EmptySubdomainError",
    "FeFunction",
    "FeSpace",
    "MaMeasure",
    "MafemError",
    "Mesh",
    "NonConvergenceError",
    "NonConvexInputError",
    "P1Function",
    "Problem",
    "Quadrature",
    "SingularJacobianError",
    "SolveReport",
    "SolverConfig",
    "StudyReport",
    "aleksandrov_bound",
    "analyze",
    "broken_error_h2",
    "check_mesh",
    "continuation_solve",
    "convex_envelope_boundary",
    "default_initial_guess",
    "get_problem",
    "interior_subdomain",
    "interpolate",
    "interpolate_p1",
    "jacobian",
    "l2_error",
    "linearized_operator_check",
    "load_vector",
    "measure_pairing",
    "mollify",
    "newton_solve",
    "partial_ma_measure",
    "problem_from_json",
    "refine_uniform",
    "regular_polygon",
    "residual",
    "run_convergence_study",
    "run_measure_verification",
    "shape_metrics",
    "shift",
    "solve_problem",
    "strictify",
    "subdifferential_p1",
    "sup_error",
    "triangulate",
    "truncate",
    "unit_square",
    "weak_convergence_residual",
]

__version__ = "0.1.0"
