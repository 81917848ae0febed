"""Riemannian machinery on a single global chart.

All metric derivatives come from analytic jets of the metric's expression
entries.  Quantities that need third derivatives (the Lie derivative of
curvature, nabla Ric# and d(scal)) are built from third-order jets at the
same point, so every quantity at a point needs one ``_PointGeometry``.
Functions of a vector field or a potential take its jets ``(value, d, d2)``
at the point, so a field jetted for a batch of points is not jetted again.

Index conventions used throughout:

* ``Gamma[k, i, j]``  = Christoffel symbol of the second kind.
* ``Riem[l, i, j, k]`` = component of ``R(e_i, e_j) e_k`` along ``e_l``
  for ``R_{X,Y} = [nabla_X, nabla_Y] - nabla_[X,Y]``.
* ``Ric[j, k]`` = trace of ``Z -> R(Z, e_j) e_k``.

Exterior derivatives carry the 1/2 (1-forms) and 1/3 (2-forms)
normalization factors of the co-boundary formulas the identity checks
are written against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import ExprAst

__all__ = [
    "MetricError",
    "MetricField",
    "TensorValue",
    "FieldSpec",
    "metric_at",
    "metric_inverse_at",
    "christoffel",
    "riemann",
    "ricci",
    "ricci_operator",
    "scalar_curvature",
    "lie_derivative_metric",
    "lie_derivative_1form",
    "exterior_derivative_1form",
    "exterior_derivative_2form",
    "coboundary_2form",
    "gradient_and_hessian",
    "lie_derivative_connection",
    "lie_derivative_curvature",
]


class MetricError(Exception):
    """Metric evaluation failed (not symmetric positive definite)."""


def _as_ast(entry, dim: int) -> ExprAst:
    if isinstance(entry, ExprAst):
        return entry
    if isinstance(entry, str):
        return ex.parse_expression(entry, dim)
    return ex.const(float(entry), dim)


@dataclass(frozen=True)
class TensorValue:
    """Dense components of a tensor at a point with a variance signature."""

    variance: tuple[str, ...]  # each slot "up" or "down"
    components: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        if self.components.ndim != len(self.variance):
            raise ValueError("component rank does not match variance signature")
        n = self.components.shape[0] if self.components.ndim else 0
        if any(extent != n for extent in self.components.shape):
            raise ValueError("all component extents must equal the dimension")


@dataclass(frozen=True)
class FieldSpec:
    """A field given by expression entries: one per component or a square of rows.

    A tuple of ``dim`` expressions is a vector field or a 1-form; a tuple
    of ``dim`` rows of ``dim`` expressions is a (1,1)-tensor (``[k][j]`` is
    the ``e_k`` component of the image of ``e_j``) or a 2-form.
    """

    dim: int
    entries: tuple

    @classmethod
    def from_entries(cls, entries, dim: int) -> "FieldSpec":
        """Coerce numbers and strings to expressions; every extent must be ``dim``."""
        out = tuple(
            tuple(_as_ast(e, dim) for e in item)
            if isinstance(item, (list, tuple, np.ndarray))
            else _as_ast(item, dim)
            for item in entries
        )
        extents = {len(item) if isinstance(item, tuple) else None for item in out}
        if len(out) != dim or extents not in ({None}, {dim}):
            raise ValueError(f"every extent of the field must equal {dim}")
        return cls(dim, out)

    @cached_property
    def tape(self) -> ex.Tape:
        """The entries compiled into one tape, row by row, once."""
        flat = self.entries
        if isinstance(flat[0], tuple):
            flat = [e for row in flat for e in row]
        return ex.compile_tape(flat, self.dim)

    def jets(self, p, third: bool = False):
        """(value, d, d2) and with ``third`` also d3, derivative axes last.

        ``p`` is a point ``(dim,)`` or a batch of points ``(P, dim)``; a batch
        adds a leading axis to every array.  d[..., a] = d_a entry and so on.
        """
        n = self.dim
        shape = (n, n) if isinstance(self.entries[0], tuple) else (n,)
        return self.tape.jets(p, third, shape)


# ---------------------------------------------------------------------------
# metric field and the geometry at a point

class _PointGeometry:
    """All jet-derived geometric data of a metric at one point."""

    def __init__(self, metric: "MetricField", p: np.ndarray, jets=None):
        self.point = p
        self._metric = metric
        # dg[i, j, k] = d_k g_ij, d2g[i, j, k, l] = d_k d_l g_ij; ``jets`` is
        # this point's slice of a batched metric.jets, when one was evaluated
        g, dg, d2g = metric.jets(p) if jets is None else jets
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise MetricError(
                f"metric is not positive definite at point {p.tolist()}"
            ) from None
        inv_l = np.linalg.inv(chol)
        self.g = g
        self.ginv = inv_l.T @ inv_l
        self.dg = dg
        self.d2g = d2g

    @cached_property
    def gamma(self) -> np.ndarray:
        dg = self.dg
        # 0.5 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        core = (
            np.einsum("jli->lij", dg)
            + np.einsum("ilj->lij", dg)
            - np.einsum("ijl->lij", dg)
        )
        return 0.5 * np.einsum("kl,lij->kij", self.ginv, core)

    @cached_property
    def dginv(self) -> np.ndarray:
        """dginv[k, l, m] = d_m g^kl = -g^ka d_m g_ab g^bl."""
        return -np.einsum("ka,abm,bl->klm", self.ginv, self.dg, self.ginv)

    @cached_property
    def dgamma(self) -> np.ndarray:
        """dgamma[k, i, j, m] = d_m Gamma^k_ij."""
        dg, d2g, dginv = self.dg, self.d2g, self.dginv
        core = (
            np.einsum("jli->lij", dg)
            + np.einsum("ilj->lij", dg)
            - np.einsum("ijl->lij", dg)
        )
        dcore = (
            np.einsum("jlim->lijm", d2g)
            + np.einsum("iljm->lijm", d2g)
            - np.einsum("ijlm->lijm", d2g)
        )
        return 0.5 * (
            np.einsum("klm,lij->kijm", dginv, core)
            + np.einsum("kl,lijm->kijm", self.ginv, dcore)
        )

    @cached_property
    def riem(self) -> np.ndarray:
        """riem[l, i, j, k] = component of R(e_i, e_j) e_k along e_l."""
        gam, dgam = self.gamma, self.dgamma
        term = np.einsum("ljki->lijk", dgam) + np.einsum("lim,mjk->lijk", gam, gam)
        return term - np.einsum("lijk->ljik", term)

    @cached_property
    def ric(self) -> np.ndarray:
        return np.einsum("iijk->jk", self.riem)

    @cached_property
    def ric_sharp(self) -> np.ndarray:
        return self.ginv @ self.ric

    @property
    def scalar(self) -> float:
        return float(np.einsum("jk,jk->", self.ginv, self.ric))

    @cached_property
    def d3g(self) -> np.ndarray:
        """d3g[i, j, k, l, m] = d_k d_l d_m g_ij, from third-order jets."""
        return self._metric.jets(self.point, third=True)[3]

    # d_mn G^k_ij = g^ka (d_mn G_aij - d_mn g_ab G^b_ij - d_m g_ab d_n G^b_ij
    # - d_n g_ab d_m G^b_ij), with G_aij = g_ak G^k_ij, is never built whole:
    # d Ric needs it traced and L_V R along V only, so g^-1 or V is contracted
    # into the metric jets first and no array below exceeds dim^4.

    @cached_property
    def dric(self) -> np.ndarray:
        """dric[j, k, n] = d_n Ric_jk, for
        Ric_jk = d_i G^i_jk - d_j G^i_ik + G^i_im G^m_jk - G^i_jm G^m_ik."""
        n = self.point.size
        ginv, dg, d2g, d3g = self.ginv, self.dg, self.d2g, self.d3g
        gam, dgam = self.gamma, self.dgamma
        w = ginv.ravel()
        # g^ai d3g traced over (metric, derivative), (derivative, derivative)
        # and (metric, metric) slots, on reshaped views of d3g
        p_tr = (w @ d3g.reshape(n, n * n, n * n)).reshape(n, n, n)  # [k, j, n]
        s_tr = (w @ d3g.reshape(n * n, n * n, n)).reshape(n, n, n)  # [j, k, n]
        t_tr = (w @ d3g.reshape(n * n, n**3)).reshape(n, n, n)  # [k, j, n]
        dgu = np.tensordot(ginv, dg, axes=1)  # [i, b, n] = g^ia d_n g_ab
        u = np.einsum("ibi->b", dgu)
        d2u = np.tensordot(ginv, d2g, axes=([0, 1], [0, 2]))  # [b, n]
        gamu = np.tensordot(ginv, gam, axes=(1, 1))  # [a, b, k] = g^ai G^b_ik
        # e[j, k, n] = g^ia d_j g_ab d_n G^b_ik
        e = np.tensordot(dgu, dgam, axes=([0, 1], [1, 0]))
        # d_n d_i G^i_jk - d_n d_j G^i_ik, less -(g^ia d_in g_ab) G^b_jk and
        # -(g^ia d_i g_ab) d_n G^b_jk, which join the product terms below
        second = 0.5 * (
            p_tr.transpose(1, 0, 2) + p_tr - s_tr - t_tr.transpose(1, 0, 2)
        ) + (
            np.tensordot(d2g, gamu, axes=([0, 1], [0, 1])).transpose(0, 2, 1)
            + e
            + e.transpose(2, 1, 0)
            - np.tensordot(dgam, dgu, axes=([0, 3], [1, 0]))
        )
        c, dc = np.einsum("iim->m", gam), np.einsum("iimn->mn", dgam)
        return (
            second
            + np.tensordot(gam, dc - d2u, axes=(0, 0))
            + np.tensordot(c - u, dgam, axes=(0, 0))
            - np.tensordot(dgam, gam, axes=([0, 2], [1, 0])).transpose(0, 2, 1)
            - np.tensordot(gam, dgam, axes=([0, 2], [1, 0]))
        )

    def riem_along(self, v: np.ndarray) -> np.ndarray:
        """v^n d_n riem[l, i, j, k], from the metric jets contracted with v."""
        ginv, dg, gam, dgam = self.ginv, self.dg, self.gamma, self.dgamma
        d3v, d2v, dgv, dgam_v = self.d3g @ v, self.d2g @ v, self.dg @ v, dgam @ v
        # [a, j, k, i] = d_v d_i G_ajk - d_v d_i g_ab G^b_jk - d_i g_ab d_v G^b_jk
        # - d_v g_ab d_i G^b_jk, less the (1/2) d_v d_i d_j g_ka in d_v d_i G_ajk:
        # symmetric in (i, j), it cancels in riem
        inner = (
            0.5 * (np.einsum("jaki->ajki", d3v) - np.einsum("jkai->ajki", d3v))
            - np.tensordot(d2v, gam, axes=(1, 0)).transpose(0, 2, 3, 1)
            - np.tensordot(dg, dgam_v, axes=(1, 0)).transpose(0, 2, 3, 1)
            - np.tensordot(dgv, dgam, axes=(1, 0))
        )
        # d_v of riem's term[l, i, j, k] = d_i G^l_jk + G^l_im G^m_jk
        term = (
            np.tensordot(ginv, inner, axes=1).transpose(0, 3, 1, 2)
            + np.tensordot(dgam_v, gam, axes=(2, 0))
            + np.tensordot(gam, dgam_v, axes=(2, 0))
        )
        return term - term.transpose(0, 2, 1, 3)

    @cached_property
    def dric_sharp(self) -> np.ndarray:
        """dric_sharp[k, j, n] = d_n (Ric#)^k_j = d_n g^km Ric_mj + g^km d_n Ric_mj."""
        return np.einsum("kmn,mj->kjn", self.dginv, self.ric) + np.einsum(
            "km,mjn->kjn", self.ginv, self.dric
        )

    @cached_property
    def nabla_ric_sharp(self) -> np.ndarray:
        """(nabla_a Ric#)^k_j as [k, j, a]."""
        gam, rs = self.gamma, self.ric_sharp
        return (
            self.dric_sharp
            + np.einsum("kam,mj->kja", gam, rs)
            - np.einsum("maj,km->kja", gam, rs)
        )

    def scalar_derivative(self, v: np.ndarray) -> float:
        """d(scal)(v), the trace of d(Ric#) along v."""
        return float(np.einsum("kkn->n", self.dric_sharp) @ v)


class MetricField(FieldSpec):
    """Symmetric field of metric expressions on a chart of dimension ``dim``.

    Mirrored entries are one object, so the tape evaluates each once.
    """

    @classmethod
    def from_entries(cls, rows, dim: int) -> "MetricField":
        """Build from a full square or lower-triangular nested sequence."""
        asts: list[list[ExprAst | None]] = [[None] * dim for _ in range(dim)]
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                asts[i][j] = _as_ast(entry, dim)
        for i in range(dim):
            for j in range(dim):
                if asts[i][j] is None:
                    if asts[j][i] is None:
                        raise ValueError(f"missing metric entry ({i}, {j})")
                    asts[i][j] = asts[j][i]
        # lower triangle is authoritative
        for i in range(dim):
            for j in range(i + 1, dim):
                asts[i][j] = asts[j][i]
        return cls(dim, tuple(tuple(row) for row in asts))

    @classmethod
    def diagonal(cls, entries, dim: int) -> "MetricField":
        rows = [
            [entries[i] if i == j else 0.0 for j in range(dim)]
            for i in range(dim)
        ]
        return cls.from_entries(rows, dim)

    @classmethod
    def euclidean(cls, dim: int) -> "MetricField":
        return cls.diagonal([1.0] * dim, dim)

    def at(self, p, jets=None) -> _PointGeometry:
        """The geometry at p, built afresh; ``jets`` are the metric's jets at p if known."""
        pt = np.asarray(p, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(
                f"point dimension {pt.shape} does not match chart ({self.dim},)"
            )
        return _PointGeometry(self, pt, jets)


# ---------------------------------------------------------------------------
# operations


def metric_at(g: MetricField, p) -> TensorValue:
    geo = g.at(p)
    return TensorValue(("down", "down"), geo.g, geo.point)


def metric_inverse_at(g: MetricField, p) -> TensorValue:
    geo = g.at(p)
    return TensorValue(("up", "up"), geo.ginv, geo.point)


def christoffel(g: MetricField, p) -> TensorValue:
    geo = g.at(p)
    return TensorValue(("up", "down", "down"), geo.gamma, geo.point)


def riemann(g: MetricField, p) -> TensorValue:
    geo = g.at(p)
    return TensorValue(("up", "down", "down", "down"), geo.riem, geo.point)


def ricci(g: MetricField, p) -> TensorValue:
    geo = g.at(p)
    return TensorValue(("down", "down"), geo.ric, geo.point)


def ricci_operator(g: MetricField, p) -> TensorValue:
    geo = g.at(p)
    return TensorValue(("up", "down"), geo.ric_sharp, geo.point)


def scalar_curvature(g: MetricField, p) -> float:
    return g.at(p).scalar


def lie_derivative_metric(geo: _PointGeometry, V) -> TensorValue:
    """L_V g from the jets ``(v, dv, ...)`` of V at the point."""
    v, dv = V[:2]
    lg = (
        np.einsum("k,ijk->ij", v, geo.dg)
        + np.einsum("kj,ki->ij", geo.g, dv)
        + np.einsum("ik,kj->ij", geo.g, dv)
    )
    return TensorValue(("down", "down"), lg, geo.point)


def lie_derivative_1form(geo: _PointGeometry, omega, V) -> TensorValue:
    """L_V omega from the jets ``(w, dw, ...)`` of omega and ``(v, dv, ...)`` of V."""
    (w, dw), (v, dv) = omega[:2], V[:2]
    lw = dw @ v + w @ dv
    return TensorValue(("down",), lw, geo.point)


def exterior_derivative_1form(omega: FieldSpec, p) -> TensorValue:
    pt = np.asarray(p, dtype=float)
    _, dw, _ = omega.jets(pt)
    # dw[j, i] = d_i w_j; includes the 1/2 of the co-boundary formula
    d = 0.5 * (dw.T - dw)
    return TensorValue(("down", "down"), d, pt)


def exterior_derivative_2form(phi: FieldSpec, p) -> TensorValue:
    pt = np.asarray(p, dtype=float)
    _, dphi, _ = phi.jets(pt)
    return TensorValue(("down", "down", "down"), coboundary_2form(dphi), pt)


def coboundary_2form(dphi: np.ndarray) -> np.ndarray:
    """d phi from dphi[i, j, k] = d_k phi_ij: the cyclic sum with the 1/3 factor."""
    return (np.einsum("jki->ijk", dphi) + np.einsum("kij->ijk", dphi) + dphi) / 3.0


def gradient_and_hessian(geo: _PointGeometry, v) -> tuple[TensorValue, TensorValue]:
    """grad v and Hess v from the jets ``(value, d, d2)`` of a potential v."""
    _, dv, d2v = v
    grad = geo.ginv @ dv
    hess = d2v - np.einsum("kij,k->ij", geo.gamma, dv)
    return (
        TensorValue(("up",), grad, geo.point),
        TensorValue(("down", "down"), hess, geo.point),
    )


def _lie_connection_components(geo: _PointGeometry, V):
    """T[k, i, j] = (L_V nabla)^k_ij from the jets ``(v, dv, d2v)`` of V."""
    v, dv, d2v = V
    gam, dgam = geo.gamma, geo.dgamma
    # A^k_j = nabla_j V^k
    a = dv + np.einsum("kjm,m->kj", gam, v)
    # da[k, j, i] = d_i A^k_j (the V-Hessian block is symmetric in (j, i))
    da = (
        d2v
        + np.einsum("kjmi,m->kji", dgam, v)
        + np.einsum("kjm,mi->kji", gam, dv)
    )
    nabla_a = (
        np.einsum("kji->kij", da)
        + np.einsum("kim,mj->kij", gam, a)
        - np.einsum("mij,km->kij", gam, a)
    )
    return nabla_a + np.einsum("kmij,m->kij", geo.riem, v)


def lie_derivative_connection(geo: _PointGeometry, V) -> TensorValue:
    """(L_V nabla)(X, Y) = nabla_X nabla_Y V - nabla_{nabla_X Y} V + R(V, X) Y."""
    t = _lie_connection_components(geo, V)
    return TensorValue(("up", "down", "down"), t, geo.point)


def lie_derivative_curvature(geo: _PointGeometry, V) -> TensorValue:
    """L_V R as the Lie derivative of the (1,3)-tensor R, exact at the point.

    (L_V R)^l_ijk = V(R^l_ijk) - R^a_ijk d_a V^l + R^l_ajk d_i V^a
    + R^l_iak d_j V^a + R^l_ija d_k V^a, with V(R) from third-order metric
    jets and ``(v, dv, ...)`` the jets of V.
    """
    v, dv = V[:2]
    riem = geo.riem
    lr = (
        geo.riem_along(v)
        - np.tensordot(dv, riem, axes=(1, 0))
        + np.tensordot(riem, dv, axes=(1, 0)).transpose(0, 3, 1, 2)
        + np.tensordot(riem, dv, axes=(2, 0)).transpose(0, 1, 3, 2)
        + riem @ dv
    )
    return TensorValue(("up", "down", "down", "down"), lr, geo.point)
