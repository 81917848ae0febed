"""The fundamental form as a symbolic 2-form field, kept as a test reference.

``wfk.weakf.theorem1_check`` differentiates Phi = g f at the point from the
jets of g and f.  This field builds Phi from the expression entries of g and
f instead, so its jets are an independent route to d Phi.
"""
from functools import reduce

from wfk.expr import ExprAst, Node
from wfk.geometry import FieldSpec


def fundamental_form_field(m) -> FieldSpec:
    """Phi(X, Y) = g(X, fY) of a ``WeakFManifold`` as a symbolic 2-form field:
    entry [a][b] is the expression g_a1 f_1b + ... + g_an f_nb, as it parses."""
    n, g, f = m.dim, m.metric.entries, m.f.entries

    def entry(a: int, b: int) -> ExprAst:
        terms = (Node("mul", (g[a][k].root, f[k][b].root)) for k in range(n))
        return ExprAst(reduce(lambda x, y: Node("add", (x, y)), terms), n)

    return FieldSpec(n, tuple(tuple(entry(a, b) for b in range(n)) for a in range(n)))
