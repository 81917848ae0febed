"""A sympy oracle for the geometry at a point: Gamma, Riem, Ric, Ric*, nabla Ric# and L_V R.

sympy differentiates each metric and field entry symbolically and turns it
into its degree-3 Taylor polynomial at the point, in 40-digit arithmetic.
Everything at the point up to third order follows from those polynomials,
so the oracle forms Gamma, Riem, Ric# and L_V nabla as truncated
polynomials and differentiates them as polynomials: no jets, no contracted
formulas.  Ric* reads only the values of f, so a seeded matrix that is not
symmetric stands for f; the oracle traces its 40-digit Riem with it.
L_V R is taken as nabla_i (L_V nabla)^k_jm - nabla_j (L_V nabla)^k_im
with (L_V Gamma)^k_ij in its coordinate form, a different route from the
tensor Lie derivative that ``wfk.geometry`` computes.
"""
import itertools
import math

import numpy as np
import pytest

from wfk.geometry import FieldSpec, MetricField, lie_derivative_curvature

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import RealField  # noqa: E402

_F = RealField(dps=40)


class _Taylor:
    """Truncated Taylor polynomials in y = x - p over a chart of dimension ``dim``."""

    def __init__(self, dim: int, point):
        self.dim = dim
        self.xs = sympy.symbols(f"x1:{dim + 1}")
        self.ys = sympy.symbols(f"y1:{dim + 1}")
        self.at = {x: sympy.Float(repr(float(c)), 40) for x, c in zip(self.xs, point)}
        self.zero = self.poly({})

    def poly(self, terms: dict):
        return sympy.Poly.from_dict(terms or {(0,) * self.dim: 0}, *self.ys, domain=_F)

    def of(self, text):
        """The degree-3 Taylor polynomial at the point of an expression string."""
        loc = {str(x): x for x in self.xs}
        expr = sympy.sympify(str(text).replace("^", "**"), locals=loc)
        terms = {}
        for alpha in itertools.product(range(4), repeat=self.dim):
            if sum(alpha) > 3:
                continue
            d = expr
            for x, k in zip(self.xs, alpha):
                d = sympy.diff(d, x, k) if k else d
            c = d.evalf(40, subs=self.at) / math.prod(math.factorial(k) for k in alpha)
            terms[alpha] = _F(c)
        return self.poly(terms)

    def trunc(self, p, deg: int):
        return self.poly({m: c for m, c in p.as_dict().items() if sum(m) <= deg})

    def total(self, parts, deg: int):
        return self.trunc(sum(parts, self.zero), deg)

    def d(self, p, i: int):
        return p.diff(self.ys[i])

    def value(self, p) -> float:
        return float(p.as_dict().get((0,) * self.dim, 0))


def _oracle(rows, field, point, f):
    """Gamma, Riem, Ric, Ric* for the matrix ``f``, nabla Ric# and L_V R at the
    point, as float arrays."""
    n = len(rows)
    tp = _Taylor(n, point)
    d, total, r = tp.d, tp.total, range(n)
    g = [[None] * n for _ in r]
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            g[i][j] = g[j][i] = tp.of(entry)
    v = [tp.of(entry) for entry in field]
    # g^-1 = sum_k (-G0^-1 H)^k G0^-1 to degree 2, with H = g - G0
    g0inv = sympy.Matrix(n, n, lambda i, j: tp.value(g[i][j])).inv()
    c = [[tp.poly({(0,) * n: _F(g0inv[i, j])}) for j in r] for i in r]
    m = [[total((c[i][a] * (g[a][j] - tp.poly({(0,) * n: _F(tp.value(g[a][j]))}))
                 for a in r), 2) for j in r] for i in r]
    ginv, term = c, c
    for _ in range(2):
        term = [[-total((m[i][a] * term[a][j] for a in r), 2) for j in r] for i in r]
        ginv = [[ginv[i][j] + term[i][j] for j in r] for i in r]
    half = _F(0.5)
    gam = [[[total((ginv[k][l] * (d(g[j][l], i) + d(g[i][l], j) - d(g[i][j], l)) * half
                    for l in r), 2) for j in r] for i in r] for k in r]
    riem = {
        (l, i, j, k): total(
            [d(gam[l][j][k], i), -d(gam[l][i][k], j)]
            + [gam[l][i][a] * gam[a][j][k] - gam[l][j][a] * gam[a][i][k] for a in r],
            1,
        )
        for l, i, j, k in itertools.product(r, repeat=4)
    }
    ric = [[sum((riem[i, i, j, k] for i in r), tp.zero) for k in r] for j in r]
    # Ric*_ab = (1/2) f^k_l f^j_b R^l_ajk
    fv = [[_F(repr(float(x))) for x in row] for row in f]
    rv = {idx: _F(p.as_dict().get((0,) * n, 0)) for idx, p in riem.items()}
    ric_star = [
        [
            float(sum((fv[k][l] * fv[j][b] * rv[l, a, j, k]
                       for l, j, k in itertools.product(r, repeat=3)), _F(0)) / 2)
            for b in r
        ]
        for a in r
    ]
    rs = [[total((ginv[k][a] * ric[a][j] for a in r), 1) for j in r] for k in r]
    nab = {
        (k, j, a): total(
            [d(rs[k][j], a)] + [gam[k][a][b] * rs[b][j] - gam[b][a][j] * rs[k][b] for b in r], 0
        )
        for k, j, a in itertools.product(r, repeat=3)
    }
    # (L_V Gamma)^k_ij = d_i d_j V^k + V^m d_m G^k_ij - G^m_ij d_m V^k
    #                    + G^k_mj d_i V^m + G^k_im d_j V^m
    lie = {
        (k, i, j): total(
            [d(d(v[k], i), j)]
            + [
                v[a] * d(gam[k][i][j], a) - gam[a][i][j] * d(v[k], a)
                + gam[k][a][j] * d(v[a], i) + gam[k][i][a] * d(v[a], j)
                for a in r
            ],
            1,
        )
        for k, i, j in itertools.product(r, repeat=3)
    }
    nabla_lie = {
        (k, i, j, m): total(
            [d(lie[k, j, m], i)]
            + [
                gam[k][i][a] * lie[a, j, m] - gam[a][i][j] * lie[k, a, m]
                - gam[a][i][m] * lie[k, j, a]
                for a in r
            ],
            0,
        )
        for k, i, j, m in itertools.product(r, repeat=4)
    }

    def array(table, rank):
        return np.array(
            [tp.value(table[idx]) for idx in itertools.product(r, repeat=rank)]
        ).reshape((n,) * rank)

    lie_r = array(nabla_lie, 4) - array(nabla_lie, 4).transpose(0, 2, 1, 3)
    return {
        "gamma": np.array([[[tp.value(gam[k][i][j]) for j in r] for i in r] for k in r]),
        "riem": array(riem, 4),
        "ric": np.array([[tp.value(e) for e in row] for row in ric]),
        "ric_star": np.array(ric_star),
        "nabla_ric_sharp": array(nab, 3),
        "lie_r": lie_r,
    }


def _random_case(seed: int, dim: int, diagonal: bool):
    """A metric (lower-triangle rows), a nonlinear field and a point, from ``seed``."""
    rng = np.random.default_rng(seed)

    def x():
        return f"x{rng.integers(1, dim + 1)}"

    def coef(lo, hi):
        return f"{rng.uniform(lo, hi):.3f}"

    rows = []
    for i in range(dim):
        row = [] if diagonal else [
            f"{coef(-0.2, 0.2)}*{x()}*exp({coef(-0.5, 0.5)}*{x()})+{coef(-0.1, 0.1)}*{x()}^2"
            for _ in range(i)
        ]
        row += [0] * (i if diagonal else 0)
        row.append(
            f"{coef(1.5, 2.5)}+{coef(-0.6, 0.6)}*{x()}*{x()}"
            f"+{coef(0.3, 0.8)}*exp({coef(-2, 2)}*{x()})"
        )
        rows.append(row)
    field = [
        f"{x()}*{x()}+{coef(-1, 1)}*exp({coef(-1, 1)}*{x()})-{x()}^3" for _ in range(dim)
    ]
    return rows, field, rng.uniform(-0.5, 0.5, dim)


@pytest.mark.parametrize(
    "seed, dim, diagonal",
    [(3, 2, True), (5, 2, False), (7, 3, False)],
    ids=["dim2-diagonal", "dim2-dense", "dim3-dense"],
)
def test_geometry_matches_sympy(seed, dim, diagonal):
    rows, field, p = _random_case(seed, dim, diagonal)
    for name, (got, want) in _compare(rows, field, p).items():
        scale = np.abs(want).max()
        assert scale > 1e-3, name  # the case exercises the quantity
        assert np.abs(got - want).max() <= 1e-12 * scale, name


def _compare(rows, field, p) -> dict:
    """(wfk's value, the oracle's) of every quantity the oracle forms."""
    dim = len(rows)
    f = np.random.default_rng(dim).uniform(-1.0, 1.0, (dim, dim))
    assert np.abs(f - f.T).max() > 0.1
    metric = MetricField.from_entries(rows, dim)
    V = FieldSpec.from_entries(field, dim)
    geo = metric.at(p)
    got = {
        "gamma": geo.gamma,
        "riem": geo.riem,
        "ric": geo.ric,
        "ric_star": geo.ric_star(f),
        "nabla_ric_sharp": geo.nabla_ric_sharp,
        "lie_r": lie_derivative_curvature(metric.at(p), V.jets(p)),
    }
    return {name: (got[name], want) for name, want in _oracle(rows, field, p, f).items()}


def test_metric_on_part_of_the_chart_matches_sympy():
    # the metric reads x2 and x3 only, so its third-order jets run over those
    # two; V reads every coordinate
    rows = [
        ["2+0.4*x2*x3+0.5*exp(0.7*x3)"],
        ["0.1*x2*exp(-0.3*x3)", "1.8-0.3*x3^2+0.6*exp(-1.1*x2)"],
        ["0.05*x3^2", "0.15*x2*x3", "2.2+0.2*x2*x3+0.4*exp(0.9*x2)"],
    ]
    _, field, p = _random_case(11, 3, False)
    assert MetricField.from_entries(rows, 3).tape.support == (1, 2)
    for name, (got, want) in _compare(rows, field, p).items():
        scale = np.abs(want).max()
        assert scale > 1e-3, name
        assert np.abs(got - want).max() <= 1e-12 * scale, name


def test_constant_metric_matches_sympy():
    # no coordinate in the metric: an empty support, and every quantity is 0
    rows = [[2], [0.3, 1.5], [0.1, -0.2, 1.8]]
    _, field, p = _random_case(13, 3, False)
    for name, (got, want) in _compare(rows, field, p).items():
        assert not want.any() and not got.any(), name
