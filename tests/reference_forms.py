"""The fundamental form as a symbolic 2-form field, kept as a test reference.

``wfk.weakf.theorem1_check`` differentiates Phi = g f at the point from the
jets of g and f.  This field builds Phi from the manifest's expression
entries of g and f instead, so its jets are an independent route to d Phi.
"""
from functools import reduce

from wfk.expr import Node, Tape, compile_tape

from conftest import exprs


def fundamental_form_field(data) -> Tape:
    """Phi(X, Y) = g(X, fY) of a manifest's model as a symbolic 2-form field:
    entry [a][b] is the expression g_a1 f_1b + ... + g_an f_nb, as it parses."""
    n = 2 * data["n"] + data["s"]
    lower, f = exprs(data["metric"], n), exprs(data["f"], n)

    def entry(a: int, b: int) -> Node:
        g = (lower[max(a, k)][min(a, k)] for k in range(n))
        terms = (Node("mul", (g_ak, f[k][b])) for k, g_ak in enumerate(g))
        return reduce(lambda x, y: Node("add", (x, y)), terms)

    return compile_tape([entry(a, b) for a in range(n) for b in range(n)], n, (n, n))
