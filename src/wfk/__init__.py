"""Numerical tensor calculus for weak metric f-manifolds in a chart.

The package evaluates the structure tensors (f, Q, xi_i, eta^i, g) of a
weak metric f-manifold from closed-form expressions, computes exact
first, second and third derivatives by jet propagation, and checks the
axioms, the beta-Kenmotsu defining condition, curvature identities,
*-Ricci relations, and *-eta-Ricci-soliton equations against stated
tolerances.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input; the command line maps it, and nothing else, to exit code 2."""
