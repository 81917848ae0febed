"""Riemannian machinery on a single global chart.

All metric derivatives come from analytic jets of the metric's expression
entries.  Quantities that need third derivatives (the Lie derivative of
curvature, nabla Ric# and d(scal)) are built from third-order jets at the
same point, so every quantity at a point needs one ``_PointGeometry``.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import ExprAst

__all__ = [
    "MetricError",
    "MetricField",
    "TensorValue",
    "VectorFieldSpec",
    "CovectorFieldSpec",
    "MatrixFieldSpec",
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

    def with_raised(self, slot: int, ginv: np.ndarray) -> "TensorValue":
        if self.variance[slot] != "down":
            raise ValueError("slot is already contravariant")
        comps = np.tensordot(ginv, self.components, axes=([1], [slot]))
        comps = np.moveaxis(comps, 0, slot)
        variance = tuple(
            "up" if i == slot else v for i, v in enumerate(self.variance)
        )
        return TensorValue(variance, comps, self.point)

    def with_lowered(self, slot: int, g: np.ndarray) -> "TensorValue":
        if self.variance[slot] != "up":
            raise ValueError("slot is already covariant")
        comps = np.tensordot(g, self.components, axes=([1], [slot]))
        comps = np.moveaxis(comps, 0, slot)
        variance = tuple(
            "down" if i == slot else v for i, v in enumerate(self.variance)
        )
        return TensorValue(variance, comps, self.point)


@dataclass(frozen=True)
class VectorFieldSpec:
    """Contravariant vector field given by one expression per component."""

    dim: int
    components: tuple[ExprAst, ...]

    @classmethod
    def from_entries(cls, entries, dim: int) -> "VectorFieldSpec":
        comps = tuple(_as_ast(e, dim) for e in entries)
        if len(comps) != dim:
            raise ValueError(f"expected {dim} components, got {len(comps)}")
        return cls(dim, comps)

    def jets(self, p: np.ndarray):
        """Return (V, dV, d2V) with dV[k, a] = d_a V^k."""
        n = self.dim
        v = np.empty(n)
        dv = np.empty((n, n))
        d2v = np.empty((n, n, n))
        for k, comp in enumerate(self.components):
            jet = ex.evaluate_jet(comp, p)
            v[k] = jet.value
            dv[k] = jet.gradient
            d2v[k] = jet.hessian
        return v, dv, d2v


@dataclass(frozen=True)
class CovectorFieldSpec:
    """Covariant 1-form field given by one expression per component."""

    dim: int
    components: tuple[ExprAst, ...]

    @classmethod
    def from_entries(cls, entries, dim: int) -> "CovectorFieldSpec":
        comps = tuple(_as_ast(e, dim) for e in entries)
        if len(comps) != dim:
            raise ValueError(f"expected {dim} components, got {len(comps)}")
        return cls(dim, comps)

    def jets(self, p: np.ndarray):
        n = self.dim
        w = np.empty(n)
        dw = np.empty((n, n))
        for k, comp in enumerate(self.components):
            jet = ex.evaluate_jet(comp, p)
            w[k] = jet.value
            dw[k] = jet.gradient
        return w, dw


@dataclass(frozen=True)
class MatrixFieldSpec:
    """Square field of expressions: mixed tensors, 2-forms, metric blocks."""

    dim: int
    entries: tuple[tuple[ExprAst, ...], ...]

    @classmethod
    def from_entries(cls, rows, dim: int) -> "MatrixFieldSpec":
        out = tuple(tuple(_as_ast(e, dim) for e in row) for row in rows)
        if len(out) != dim or any(len(r) != dim for r in out):
            raise ValueError("matrix field must be dim x dim")
        return cls(dim, out)

    def jets(self, p: np.ndarray):
        """Return (A, dA) with dA[i, j, k] = d_k A_ij."""
        n = self.dim
        a = np.empty((n, n))
        da = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                jet = ex.evaluate_jet(self.entries[i][j], p)
                a[i, j] = jet.value
                da[i, j] = jet.gradient
        return a, da


# ---------------------------------------------------------------------------
# metric field and per-point geometry cache

class _PointGeometry:
    """All jet-derived geometric data of a metric at one point."""

    def __init__(self, metric: "MetricField", p: np.ndarray):
        n = metric.dim
        self.point = p
        self._metric = metric
        g = np.empty((n, n))
        dg = np.empty((n, n, n))     # dg[i, j, k] = d_k g_ij
        d2g = np.empty((n, n, n, n))  # d2g[i, j, k, l] = d_k d_l g_ij
        for i in range(n):
            for j in range(i, n):
                jet = ex.evaluate_jet(metric.entries[i][j], p)
                g[i, j] = g[j, i] = jet.value
                dg[i, j] = dg[j, i] = jet.gradient
                d2g[i, j] = d2g[j, i] = jet.hessian
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

    @property
    def dginv(self) -> np.ndarray:
        """dginv[k, l, m] = d_m g^kl = -g^ka d_m g_ab g^bl (not kept per point)."""
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

    @property
    def ric_sharp(self) -> np.ndarray:
        return self.ginv @ self.ric

    @property
    def scalar(self) -> float:
        return float(np.einsum("jk,jk->", self.ginv, self.ric))

    @cached_property
    def d3g(self) -> np.ndarray:
        """d3g[i, j, k, l, m] = d_k d_l d_m g_ij, from third-order jets."""
        n = self.point.shape[0]
        entries = self._metric.entries
        d3g = np.empty((n, n, n, n, n))
        for i in range(n):
            for j in range(i, n):
                third = ex.evaluate_jet(entries[i][j], self.point, third=True).third
                d3g[i, j] = d3g[j, i] = third
        return d3g

    @cached_property
    def d2gamma(self) -> np.ndarray:
        """d2gamma[k, i, j, m, n] = d_m d_n Gamma^k_ij.

        With Gamma_aij = g_ak Gamma^k_ij, differentiating twice gives
        d_mn Gamma^k_ij = g^ka (d_mn Gamma_aij - d_mn g_ab Gamma^b_ij
        - d_m g_ab d_n Gamma^b_ij - d_n g_ab d_m Gamma^b_ij).
        """
        d3g = self.d3g
        d2core = (
            np.einsum("jlimn->lijmn", d3g)
            + np.einsum("iljmn->lijmn", d3g)
            - np.einsum("ijlmn->lijmn", d3g)
        )
        # [a, i, j, m, n] = d_m g_ab d_n Gamma^b_ij
        mixed = np.einsum("abm,bijn->aijmn", self.dg, self.dgamma, optimize=True)
        inner = (
            0.5 * d2core
            - np.einsum("abmn,bij->aijmn", self.d2g, self.gamma, optimize=True)
            - mixed
            - mixed.transpose(0, 1, 2, 4, 3)
        )
        return np.tensordot(self.ginv, inner, axes=1)

    @cached_property
    def driem(self) -> np.ndarray:
        """driem[l, i, j, k, n] = d_n riem[l, i, j, k]."""
        gam, dgam = self.gamma, self.dgamma
        # d_n of riem's term[l, i, j, k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
        dterm = (
            np.einsum("ljkin->lijkn", self.d2gamma)
            + np.einsum("limn,mjk->lijkn", dgam, gam, optimize=True)
            + np.einsum("lim,mjkn->lijkn", gam, dgam, optimize=True)
        )
        return dterm - np.einsum("lijkn->ljikn", dterm)

    @cached_property
    def dric_sharp(self) -> np.ndarray:
        """dric_sharp[k, j, n] = d_n (Ric#)^k_j = d_n g^km Ric_mj + g^km d_n Ric_mj."""
        dric = np.einsum("iijkn->jkn", self.driem)
        return np.einsum("kmn,mj->kjn", self.dginv, self.ric) + np.einsum(
            "km,mjn->kjn", self.ginv, dric
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


@dataclass(frozen=True)
class MetricField:
    """Symmetric field of metric expressions on a chart of dimension ``dim``."""

    dim: int
    entries: tuple[tuple[ExprAst, ...], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def at(self, p) -> _PointGeometry:
        pt = np.asarray(p, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(
                f"point dimension {pt.shape} does not match chart ({self.dim},)"
            )
        key = tuple(pt.tolist())
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) > 4096:
                self._cache.clear()
            hit = _PointGeometry(self, pt)
            self._cache[key] = hit
        return hit


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


def lie_derivative_metric(g: MetricField, V: VectorFieldSpec, p) -> TensorValue:
    geo = g.at(p)
    v, dv, _ = V.jets(geo.point)
    lg = (
        np.einsum("k,ijk->ij", v, geo.dg)
        + np.einsum("kj,ki->ij", geo.g, dv)
        + np.einsum("ik,kj->ij", geo.g, dv)
    )
    return TensorValue(("down", "down"), lg, geo.point)


def lie_derivative_1form(omega: CovectorFieldSpec, V: VectorFieldSpec, p) -> TensorValue:
    pt = np.asarray(p, dtype=float)
    w, dw = omega.jets(pt)
    v, dv, _ = V.jets(pt)
    lw = dw @ v + w @ dv
    return TensorValue(("down",), lw, pt)


def exterior_derivative_1form(omega: CovectorFieldSpec, p) -> TensorValue:
    pt = np.asarray(p, dtype=float)
    _, dw = omega.jets(pt)
    # dw[j, i] = d_i w_j; includes the 1/2 of the co-boundary formula
    d = 0.5 * (dw.T - dw)
    return TensorValue(("down", "down"), d, pt)


def exterior_derivative_2form(phi: MatrixFieldSpec, p) -> TensorValue:
    pt = np.asarray(p, dtype=float)
    _, dphi = phi.jets(pt)  # dphi[i, j, k] = d_k phi_ij
    # cyclic sum d_i phi_jk + d_j phi_ki + d_k phi_ij with the 1/3 factor
    d = (
        np.einsum("jki->ijk", dphi)
        + np.einsum("kij->ijk", dphi)
        + dphi
    ) / 3.0
    return TensorValue(("down", "down", "down"), d, pt)


def gradient_and_hessian(g: MetricField, v: ExprAst, p) -> tuple[TensorValue, TensorValue]:
    geo = g.at(p)
    jet = ex.evaluate_jet(v, geo.point)
    grad = geo.ginv @ jet.gradient
    hess = jet.hessian - np.einsum("kij,k->ij", geo.gamma, jet.gradient)
    return (
        TensorValue(("up",), grad, geo.point),
        TensorValue(("down", "down"), hess, geo.point),
    )


def _lie_connection_components(
    g: MetricField, V: VectorFieldSpec, p, derivative: bool = False
):
    """T[k, i, j] = (L_V nabla)^k_ij; with ``derivative`` also (T, dT).

    dT[k, i, j, n] is d_n T^k_ij by the product rule, less d_n d_i A^k_j
    (A = nabla V): that term is symmetric in (i, n), so it drops out of
    every antisymmetrization in (i, n), the only use of dT.
    """
    geo = g.at(np.asarray(p, dtype=float))
    v, dv, d2v = V.jets(geo.point)
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
    curv = np.einsum("kmij,m->kij", geo.riem, v)
    t = nabla_a + curv
    if not derivative:
        return t
    dt = (
        np.einsum("kimn,mj->kijn", dgam, a, optimize=True)
        + np.einsum("kim,mjn->kijn", gam, da, optimize=True)
        - np.einsum("mijn,km->kijn", dgam, a, optimize=True)
        - np.einsum("mij,kmn->kijn", gam, da, optimize=True)
        + np.einsum("kmijn,m->kijn", geo.driem, v, optimize=True)
        + np.einsum("kmij,mn->kijn", geo.riem, dv, optimize=True)
    )
    return t, dt


def lie_derivative_connection(g: MetricField, V: VectorFieldSpec, p) -> TensorValue:
    """(L_V nabla)(X, Y) = nabla_X nabla_Y V - nabla_{nabla_X Y} V + R(V, X) Y."""
    pt = np.asarray(p, dtype=float)
    t = _lie_connection_components(g, V, pt)
    return TensorValue(("up", "down", "down"), t, pt)


def lie_derivative_curvature(g: MetricField, V: VectorFieldSpec, p) -> TensorValue:
    """(L_V R)(X, Y) Z via antisymmetrized covariant derivative of L_V nabla.

    (L_V R)^k_ijm = nabla_i T^k_jm - nabla_j T^k_im for T = L_V nabla,
    exact at the point from third-order jets.
    """
    geo = g.at(np.asarray(p, dtype=float))
    t, dt = _lie_connection_components(g, V, geo.point, derivative=True)
    gam = geo.gamma
    # nabla_i T^k_jm = d_i T^k_jm + G^k_ia T^a_jm - G^a_ij T^k_am - G^a_im T^k_ja,
    # up to the part of d_i T^k_jm symmetric in (i, j) that dt leaves out
    nabla_t = (
        np.einsum("kjmi->kijm", dt)
        + np.einsum("kia,ajm->kijm", gam, t)
        - np.einsum("aij,kam->kijm", gam, t)
        - np.einsum("aim,kja->kijm", gam, t)
    )
    # (L_V R)^k_{ij m} = nabla_i T^k_jm - nabla_j T^k_im
    lr = nabla_t - np.einsum("kijm->kjim", nabla_t)
    return TensorValue(("up", "down", "down", "down"), lr, geo.point)
