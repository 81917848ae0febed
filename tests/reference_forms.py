"""The fundamental form as a symbolic 2-form field, kept as a test reference.

``wfk.weakf.theorem1_check`` differentiates Phi = g f at the point from the
jets of g and f.  This field builds Phi from the expression entries of g and
f instead, so its jets are an independent route to d Phi.
"""
from wfk import expr as ex
from wfk.geometry import FieldSpec


def fundamental_form_field(m) -> FieldSpec:
    """Phi(X, Y) = g(X, fY) of a ``WeakFManifold`` as a symbolic 2-form field."""
    n = m.dim
    rows = [
        [
            ex.add_many([ex.mul(m.metric.entries[a][k], m.f.entries[k][b]) for k in range(n)], n)
            for b in range(n)
        ]
        for a in range(n)
    ]
    return FieldSpec(n, tuple(map(tuple, rows)))
