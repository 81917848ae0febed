"""Numerical tensor calculus for weak metric f-manifolds in a chart.

The package evaluates the structure tensors (f, Q, xi_i, eta^i, g) of a
weak metric f-manifold from closed-form expressions, computes exact
first, second and third derivatives by jet propagation, and checks the
axioms, the beta-Kenmotsu defining condition, curvature identities,
*-Ricci relations, and *-eta-Ricci-soliton equations against stated
tolerances.
"""

__version__ = "0.1.0"

from .expr import (
    ExprAst,
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    evaluate_jet,
    parse_expression,
    to_source,
)
from .geometry import (
    FieldSpec,
    Geometry,
    MetricError,
    MetricField,
    coboundary_2form,
    gradient_and_hessian,
    lie_derivative_1form,
    lie_derivative_connection,
    lie_derivative_curvature,
    lie_derivative_metric,
)
from .weakf import (
    StructureAtPoint,
    WeakFManifold,
    check_axioms,
    f_basis,
    normality_tensor,
    theorem1_check,
)
from .kenmotsu import (
    EinsteinFit,
    FiberSpec,
    audit_identities,
    build_example2,
    build_twisted_product,
    eta_einstein_fit,
    kenmotsu_residual,
    twisted_product_audit,
)
from .star_soliton import (
    SolitonData,
    SolitonVerdict,
    contact_fit,
    fit_soliton_constants,
    gradient_soliton_residual,
    lemma2_audit,
    soliton_residual,
    star_eta_einstein_fit,
    theorem4_residual,
)
from .checks import CATALOGUE, CheckContext, applicable_ids, run_check_ids

__all__ = [name for name in dir() if not name.startswith("_")]
