"""Pull a manifest back along a change of chart x = Phi(y), with sympy.

The pullback is the same manifold written in the chart y.  With
J = dPhi/dy, its fields are

    g' = J^T g(Phi) J,   f' = J^-1 f(Phi) J,   Q' = J^-1 Q(Phi) J,
    xi' = J^-1 xi(Phi),  eta' = eta(Phi) J,    V' = J^-1 V(Phi),

and sigma' = sigma o Phi (a soliton potential v likewise); n, s, beta and c
do not change.  Entries are expanded, not simplified (a pullback takes well
under a second expanded, several seconds simplified), and written back as
manifest source with ``^`` for powers; the new coordinates are named
x1..xN again.

A shear is a function of the coordinate sequence y, written with +, * and /
only, so that it maps sympy symbols to the exact chart change and numpy
arrays to the points Phi(y).
"""
from __future__ import annotations

import numpy as np
import sympy


def linear_shear(y):
    """x1 = y1 + y2/2, then x_dim = y_dim + x1/4."""
    x = list(y)
    x[0] = y[0] + y[1] / 2
    x[-1] = y[-1] + x[0] / 4
    return x


def polynomial_shear(y):
    """x2 = y2 + y_dim^2/5 and x1 = y1 + 3/10 y2 y_dim."""
    x = list(y)
    x[1] = y[1] + y[-1] ** 2 / 5
    x[0] = y[0] + 3 * y[1] * y[-1] / 10
    return x


SHEARS = {"linear": linear_shear, "polynomial": polynomial_shear}


def chart_points(shear, points) -> np.ndarray:
    """Phi(y) for each row y of ``points``."""
    pts = np.asarray(points, dtype=float)
    return np.stack(shear(list(pts.T)), axis=-1)


def _source(e) -> object:
    """A sympy expression as a manifest entry: a number, or ``^`` source."""
    if e.is_Number:
        return int(e) if e.is_Integer else float(e)
    text = str(e).replace("**", "^")
    assert "^(" not in text, f"the expression grammar has no such power: {text}"
    return text


def pullback(data: dict, shear) -> dict:
    """The manifest ``data`` pulled back along ``shear``."""
    dim = data["dim"]
    old = sympy.symbols(f"u1:{dim + 1}")  # the original chart's x, renamed
    y = sympy.symbols(f"x1:{dim + 1}")
    phi = shear(list(y))
    at_phi = dict(zip(old, phi))
    names = {f"x{i + 1}": u for i, u in enumerate(old)}

    def read(raw):
        """A manifest entry over the original chart, evaluated at Phi(y)."""
        if not isinstance(raw, str):
            return sympy.nsimplify(raw, rational=True)
        e = sympy.sympify(raw.replace("^", "**"), locals=names, rational=True)
        return e.xreplace(at_phi)

    def matrix(rows):
        return sympy.Matrix([[read(e) for e in row] for row in rows])

    def write(m):
        return [[_source(sympy.expand(e)) for e in row] for row in m.tolist()]

    jac = sympy.Matrix(phi).jacobian(y)
    inv = jac.inv()
    lower = data["metric"]
    g = sympy.Matrix(dim, dim, lambda i, j: read(lower[max(i, j)][min(i, j)]))
    metric = write(jac.T * g * jac)
    out = dict(data)
    out["metric"] = [row[: i + 1] for i, row in enumerate(metric)]
    for key in ("f", "Q"):
        out[key] = write(inv * matrix(data[key]) * jac)
    out["xi"] = write((inv * matrix(data["xi"]).T).T)
    out["eta"] = write(matrix(data["eta"]) * jac)
    if data.get("sigma") is not None:
        out["sigma"] = _source(sympy.expand(read(data["sigma"])))
    soliton = data.get("soliton")
    if soliton is not None:
        out["soliton"] = dict(soliton)
        if "V" in soliton:
            out["soliton"]["V"] = write((inv * matrix([soliton["V"]]).T).T)[0]
        else:
            out["soliton"]["v"] = _source(sympy.expand(read(soliton["v"])))
    return out
