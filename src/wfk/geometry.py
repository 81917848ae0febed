"""Riemannian machinery on a single global chart.

All metric derivatives come from analytic jets of the metric's expression
entries.  Quantities that need third derivatives (the Lie derivative of
curvature, nabla Ric# and d(scal)) are built from third-order jets at the
same point, so every quantity at a point needs one :class:`Geometry`.
A geometry holds one point or a chunk of points: every array carries the
batch shape in front (``()`` or ``(C,)``), and every formula is written
over it.  Throughout the package a matrix product is a broadcasting ``@``,
every other contraction that sums an index shared by two operands is
:func:`contract` (one BLAS matmul), and ``np.einsum`` only permutes, takes
traces and diagonals and forms outer products.
Ric and Ric* (:meth:`Geometry.ric_star`) come straight from the second
jets of g; d Gamma and Riem are built, lazily, only for their own
readers (id.19, id.26, id.27, id.44, d Ric and L_V R).
Functions of a vector field or a potential take its jets ``(value, d, d2)``
at the point, so a field jetted once there serves every function that reads it.

Index conventions used throughout:

* ``Gamma[k, i, j]``  = Christoffel symbol of the second kind.
* ``Riem[l, i, j, k]`` = component of ``R(e_i, e_j) e_k`` along ``e_l``
  for ``R_{X,Y} = [nabla_X, nabla_Y] - nabla_[X,Y]``.
* ``Ric[j, k]`` = trace of ``Z -> R(Z, e_j) e_k``.

The exterior derivative of a 2-form (:func:`coboundary_2form`) carries the
1/3 of the co-boundary formula the identity checks are written against.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import InputError
from . import expr as ex

__all__ = [
    "MetricField",
    "Geometry",
    "check_bound",
    "contract",
    "lie_derivative_metric",
    "lie_derivative_1form",
    "coboundary_2form",
    "gradient_and_hessian",
    "lie_derivative_connection",
    "lie_derivative_curvature",
]


# Largest value of g and of g^-1 a geometry accepts.  Every check is linear
# in the metric's values (g^-1 and Gamma cancel their scale, and a lowered
# tensor carries one factor g); the largest coefficient of g is s beta^2
# times two entries of f (id.26/27), and with |beta| <= 1e76 (the CLI's
# bound), s <= 21 and entries of f of order one, a sum of dim <= 21 such terms
# stays below 4.7e304 while |g_ij| <= 1e150, a factor 3.8e3 below the largest
# float (1.8e308).  g^-1 raises indices as g lowers them, so the same bound
# holds for it.  (weakf.MAX_FIELD bounds f alone, with the rest of order one.)
_MAX_METRIC = 1e150


def check_bound(points: np.ndarray, name: str, values: np.ndarray, bound: float) -> None:
    """An InputError naming the first of ``points`` where ``values`` (a batch
    axis in front when there are several points) exceed ``bound`` in size."""
    size = np.abs(values).reshape(len(points), -1).max(axis=-1)
    q = int(np.argmax(~(size <= bound)))  # NaN is beyond it too
    if not size[q] <= bound:
        raise InputError(
            f"{name} value {float(size[q])!r} exceeds {bound:g} at point {points[q].tolist()}"
        )


# ---------------------------------------------------------------------------
# metric field and the geometry at a point or a chunk of points


@lru_cache(maxsize=None)
def _contract_plan(subscripts: str, ndim_a: int, ndim_b: int):
    """:func:`contract`'s layout for operands of these ranks: the axis orders
    (batch, kept, summed) of ``a`` and (batch, summed, kept) of ``b``, the
    order from (batch, kept of a, kept of b) to the output, and where each
    operand's batch axes end and its kept or summed axes start."""
    operands, out = subscripts.replace("...", "").split("->")
    sa, sb = operands.split(",")
    summed = [x for x in sa if x in sb]
    kept = [x for x in sa if x not in sb] + [x for x in sb if x not in sa]
    lead_a, lead_b = ndim_a - len(sa), ndim_b - len(sb)
    lead = max(lead_a, lead_b)
    perm_a = (*range(lead_a), *(lead_a + sa.index(x) for x in kept + summed if x in sa))
    perm_b = (*range(lead_b), *(lead_b + sb.index(x) for x in summed + kept if x in sb))
    perm_out = (*range(lead), *(lead + kept.index(x) for x in out))
    split_a = ndim_a - len(summed)
    return perm_a, perm_b, perm_out, lead_a, split_a, lead_b, lead_b + len(summed)


def contract(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` as one matmul over the batch axes ``...``.

    An index of both operands is summed and every other index is kept, so
    BLAS does the sums.  The plan is made once per subscripts and ranks: a
    call is a transpose and a reshape of each operand, one ``@`` and the
    output's reshape and transpose.
    """
    perm_a, perm_b, perm_out, lead_a, split_a, lead_b, split_b = _contract_plan(
        subscripts, a.ndim, b.ndim
    )
    a, b = a.transpose(perm_a), b.transpose(perm_b)
    kept_a, kept_b = a.shape[lead_a:split_a], b.shape[split_b:]
    size = math.prod(b.shape[lead_b:split_b])  # 0 for an empty support
    a = a.reshape(a.shape[:lead_a] + (math.prod(kept_a), size))
    out = a @ b.reshape(b.shape[:lead_b] + (size, math.prod(kept_b)))
    return out.reshape(out.shape[:-2] + kept_a + kept_b).transpose(perm_out)


class Geometry:
    """All jet-derived geometric data of a metric at a point or a chunk of points.

    ``point`` is ``(dim,)`` or ``(C, dim)``; every array carries its batch
    shape in front, ``()`` for one point and ``(C,)`` for a chunk.
    """

    def __init__(self, metric: "MetricField", p: np.ndarray):
        self.point = p
        self._metric = metric
        # dg[i, j, k] = d_k g_ij, d2g[i, j, k, l] = d_k d_l g_ij
        g, dg, d2g = metric.jets(p)
        points = p.reshape(-1, metric.dim)
        check_bound(points, "metric", g, _MAX_METRIC)
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            for q, gq in zip(points, g.reshape((-1,) + g.shape[-2:])):
                if np.linalg.eigvalsh(gq)[0] <= 0:
                    break
            raise InputError(
                f"metric is not positive definite at point {q.tolist()}"
            ) from None
        inv_l = np.linalg.inv(chol)
        with np.errstate(over="ignore"):
            self.ginv = np.swapaxes(inv_l, -1, -2) @ inv_l
        check_bound(points, "inverse metric", self.ginv, _MAX_METRIC)
        self.g = g
        self.dg = dg
        self.d2g = d2g

    @cached_property
    def core(self) -> np.ndarray:
        """core[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij = 2 Gamma_lij."""
        return (
            np.einsum("...jli->...lij", self.dg)
            + np.einsum("...ilj->...lij", self.dg)
            - np.einsum("...ijl->...lij", self.dg)
        )

    @cached_property
    def gamma(self) -> np.ndarray:
        return 0.5 * contract("...kl,...lij->...kij", self.ginv, self.core)

    @cached_property
    def dginv(self) -> np.ndarray:
        """dginv[k, l, m] = d_m g^kl = -g^ka d_m g_ab g^bl, as two dim^4 contractions."""
        gdg = contract("...ka,...abm->...kbm", self.ginv, self.dg)
        return -contract("...kbm,...bl->...klm", gdg, self.ginv)

    @cached_property
    def dgamma(self) -> np.ndarray:
        """dgamma[k, i, j, m] = d_m Gamma^k_ij."""
        # in place: a chunk's dim^4 arrays are the bulk of its memory
        d2g = self.d2g
        dcore = np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
        dcore -= np.einsum("...ijlm->...lijm", d2g)
        out = contract("...kl,...lijm->...kijm", self.ginv, dcore)
        out += contract("...klm,...lij->...kijm", self.dginv, self.core)
        out *= 0.5
        return out

    @cached_property
    def riem(self) -> np.ndarray:
        """riem[l, i, j, k] = component of R(e_i, e_j) e_k along e_l."""
        gam, dgam = self.gamma, self.dgamma
        term = contract("...lim,...mjk->...lijk", gam, gam)
        term += np.einsum("...ljki->...lijk", dgam)
        return term - np.einsum("...lijk->...ljik", term)

    # Ric and Ric* come from the second jets of g, not from dgamma or
    # riem: 2 R_aijk = t[a, i, j, k] - t[a, j, i, k] with
    # t[a, i, j, k] = d_i d_k g_ja - d_i d_a g_jk - core[l, i, a] Gamma^l_jk,
    # and riem[l, i, j, k] = g^la R_aijk.

    def _d2g_pairs(self, h: np.ndarray) -> np.ndarray:
        """[x, y] = h[k, c] d_c d_y g_xk: (k, c) are adjacent axes of d2g, so
        the sum is one ``@`` on a view of it."""
        n, b = h.shape[-1], h.shape[:-2]
        out = h.reshape(b + (1, 1, n * n)) @ self.d2g.reshape(b + (n, n * n, n))
        return out[..., 0, :]

    @cached_property
    def ric(self) -> np.ndarray:
        """Ric_jk = g^ia R_aijk."""
        ginv, gam = self.ginv, self.gamma
        m = self.core @ ginv[..., None, :, :]  # [l, j, i] = core[l, j, a] g^ai
        q = self._d2g_pairs(ginv)
        return 0.5 * (
            q
            + np.swapaxes(q, -1, -2)
            - contract("...ia,...iajk->...jk", ginv, self.d2g)
            - contract("...jkia,...ia->...jk", self.d2g, ginv)
            - contract("...l,...ljk->...jk", np.einsum("...lii->...l", m), gam)
            + contract("...lji,...lik->...jk", m, gam)
        )

    def ric_star(self, f: np.ndarray) -> np.ndarray:
        """Ric*_ab = (1/2) f^k_l f^j_b R^l_ajk for a (1,1)-tensor f at the point."""
        h = f @ self.ginv  # [k, c] = f^k_l g^lc
        ht = np.swapaxes(h, -1, -2)
        # d - d^T = 2 h[k, c] R_cajk; the d2g terms see only h - h^T
        d = self._d2g_pairs(h - ht) - contract(
            "...lak,...ljk->...aj", self.core @ ht[..., None, :, :], self.gamma
        )
        return 0.25 * (d - np.swapaxes(d, -1, -2)) @ f

    @cached_property
    def ric_sharp(self) -> np.ndarray:
        return self.ginv @ self.ric

    @property
    def scalar(self):
        return contract("...jk,...jk->...", self.ginv, self.ric)

    @cached_property
    def support(self) -> np.ndarray:
        """S, the sorted coordinates the metric's entries depend on."""
        return np.array(self._metric.support, dtype=np.intp)

    @cached_property
    def d3g(self) -> np.ndarray:
        """d3g[i, j, a, b, c] = d_Sa d_Sb d_Sc g_ij, from third-order jets; every
        other third derivative of g is a structural zero."""
        return self._metric.jets(self.point, order=3)[3]

    # d_mn G^k_ij = g^ka (d_mn G_aij - d_mn g_ab G^b_ij - d_m g_ab d_n G^b_ij
    # - d_n g_ab d_m G^b_ij), with G_aij = g_ak G^k_ij, is never built whole:
    # d Ric needs it traced and L_V R along V only, so g^-1 or V is contracted
    # into the metric jets first and no array below exceeds dim^4 a point.

    @cached_property
    def dric(self) -> np.ndarray:
        """dric[j, k, n] = d_n Ric_jk, for
        Ric_jk = d_i G^i_jk - d_j G^i_ik + G^i_im G^m_jk - G^i_jm G^m_ik."""
        b, n = self.point.shape[:-1], self.point.shape[-1]
        ginv, dg, d2g, gam, dgam = self.ginv, self.dg, self.d2g, self.gamma, self.dgamma
        s, k, every = self.support, len(self.support), np.arange(n)

        def trace(w, view, *axes):
            """w d3g on d3g viewed as ``view``, scattered to ``axes`` of dim^3."""
            out = np.zeros(b + (n, n, n))
            sums = w.reshape(b + (1, 1, view[-2])) @ self.d3g.reshape(b + view)
            out[(..., *np.ix_(*axes))] = sums.reshape(b + tuple(map(len, axes)))
            return out

        # traced over (metric, derivative), (derivative, derivative) and
        # (metric, metric) slots; d3g's derivative slots run over S only
        p_tr = trace(ginv[..., :, s], (n, n * k, k * k), every, s, s)  # [k, j, n]
        s_tr = trace(ginv[..., s[:, None], s], (n * n, k * k, k), every, every, s)  # [j, k, n]
        t_tr = trace(ginv, (1, n * n, k**3), s, s, s)  # [k, j, n]
        dgu = contract("...ia,...abn->...ibn", ginv, dg)  # g^ia d_n g_ab
        u = np.einsum("...ibi->...b", dgu)
        d2u = contract("...ai,...abin->...bn", ginv, d2g)
        gamu = contract("...ai,...bik->...abk", ginv, gam)  # g^ai G^b_ik
        # e[j, k, n] = g^ia d_j g_ab d_n G^b_ik
        e = contract("...ibj,...bikn->...jkn", dgu, dgam)
        # d_n d_i G^i_jk - d_n d_j G^i_ik, less -(g^ia d_in g_ab) G^b_jk and
        # -(g^ia d_i g_ab) d_n G^b_jk, which join the product terms below
        second = 0.5 * (
            np.swapaxes(p_tr, -3, -2) + p_tr - s_tr - np.swapaxes(t_tr, -3, -2)
        ) + (
            contract("...abin,...abk->...ikn", d2g, gamu)
            + e
            + np.swapaxes(e, -3, -1)
            - contract("...bjki,...ibn->...jkn", dgam, dgu)
        )
        c, dc = np.einsum("...iim->...m", gam), np.einsum("...iimn->...mn", dgam)
        return (
            second
            + contract("...mjk,...mn->...jkn", gam, dc - d2u)
            + contract("...b,...bjkn->...jkn", c - u, dgam)
            - contract("...ijmn,...mik->...jkn", dgam, gam)
            - contract("...ijm,...mikn->...jkn", gam, dgam)
        )

    def riem_along(self, v: np.ndarray) -> np.ndarray:
        """v^n d_n riem[l, i, j, k], from the metric jets contracted with v."""
        ginv, dg, gam, dgam = self.ginv, self.dg, self.gamma, self.dgamma
        s = self.support
        d3v = np.zeros(dg.shape + (dg.shape[-1],))
        d3v[(..., *np.ix_(s, s))] = contract("...ijklm,...m->...ijkl", self.d3g, v[..., s])
        d2v = contract("...ijkl,...l->...ijk", self.d2g, v)
        dgv = contract("...ijk,...k->...ij", dg, v)
        dgam_v = contract("...ijkl,...l->...ijk", dgam, v)
        # [a, j, k, i] = d_v d_i G_ajk - d_v d_i g_ab G^b_jk - d_i g_ab d_v G^b_jk
        # - d_v g_ab d_i G^b_jk, less the (1/2) d_v d_i d_j g_ka in d_v d_i G_ajk:
        # symmetric in (i, j), it cancels in riem
        inner = np.einsum("...jaki->...ajki", d3v) - np.einsum("...jkai->...ajki", d3v)
        inner *= 0.5
        inner -= contract("...abi,...bjk->...ajki", d2v, gam)
        inner -= contract("...abi,...bjk->...ajki", dg, dgam_v)
        inner -= contract("...ab,...bjki->...ajki", dgv, dgam)
        # d_v of riem's term[l, i, j, k] = d_i G^l_jk + G^l_im G^m_jk
        term = contract("...la,...ajki->...lijk", ginv, inner)
        term += contract("...lim,...mjk->...lijk", dgam_v, gam)
        term += contract("...lim,...mjk->...lijk", gam, dgam_v)
        return term - np.swapaxes(term, -3, -2)

    @cached_property
    def dric_sharp(self) -> np.ndarray:
        """dric_sharp[k, j, n] = d_n (Ric#)^k_j = d_n g^km Ric_mj + g^km d_n Ric_mj."""
        return contract("...kmn,...mj->...kjn", self.dginv, self.ric) + contract(
            "...km,...mjn->...kjn", self.ginv, self.dric
        )

    def nabla(self, a: np.ndarray, da: np.ndarray) -> np.ndarray:
        """(nabla_c A)^k_j as [k, j, c] for a (1,1)-tensor A, from its values
        a[k, j] and derivatives da[k, j, c] at the point."""
        gam = self.gamma
        return (
            da
            + contract("...kcm,...mj->...kjc", gam, a)
            - contract("...mcj,...km->...kjc", gam, a)
        )

    @cached_property
    def nabla_ric_sharp(self) -> np.ndarray:
        """(nabla_a Ric#)^k_j as [k, j, a]."""
        return self.nabla(self.ric_sharp, self.dric_sharp)

    def scalar_derivative(self, v: np.ndarray):
        """d(scal)(v), the trace of d(Ric#) along v."""
        return contract("...n,...n->...", np.einsum("...kkn->...n", self.dric_sharp), v)


class _PointGeometry(Geometry):
    """The geometry at one point, as :meth:`MetricField.at` builds it."""

    def __init__(self, metric: "MetricField", p: np.ndarray):
        # a constructor of its own: the benchmark's trace reads ``p`` as one point
        super().__init__(metric, p)


class MetricField(ex.Tape):
    """The tape of a symmetric square of metric expressions, shape ``(dim, dim)``.

    Mirrored entries are one object, so the tape evaluates each once.
    """

    @classmethod
    def from_entries(cls, rows, dim: int) -> "MetricField":
        """Compile the lower triangle of ``dim`` rows of expressions, row i's
        first i + 1 entries; a full square's upper half is not read."""
        square = [rows[max(i, j)][min(i, j)] for i in range(dim) for j in range(dim)]
        return cls(**vars(ex.compile_tape(square, dim, (dim, dim))))

    def at(self, p) -> Geometry:
        """The geometry at a point ``(dim,)`` or a chunk of points ``(C, dim)``,
        built afresh; the tape's run rejects any other shape."""
        pt = np.asarray(p, dtype=float)
        return (_PointGeometry if pt.ndim == 1 else Geometry)(self, pt)


# ---------------------------------------------------------------------------
# operations


def lie_derivative_metric(geo: Geometry, V) -> np.ndarray:
    """L_V g from the jets ``(v, dv, ...)`` of V at the point."""
    v, dv = V[:2]
    return (
        contract("...k,...ijk->...ij", v, geo.dg)
        + contract("...kj,...ki->...ij", geo.g, dv)
        + geo.g @ dv
    )


def lie_derivative_1form(geo: Geometry, omega, V) -> np.ndarray:
    """L_V omega from the jets ``(w, dw, ...)`` of omega and ``(v, dv, ...)`` of V."""
    (w, dw), (v, dv) = omega[:2], V[:2]
    return contract("...ji,...i->...j", dw, v) + contract("...k,...ki->...i", w, dv)


def coboundary_2form(dphi: np.ndarray) -> np.ndarray:
    """d phi from dphi[i, j, k] = d_k phi_ij: the cyclic sum with the 1/3 factor."""
    return (np.einsum("...jki->...ijk", dphi) + np.einsum("...kij->...ijk", dphi) + dphi) / 3.0


def gradient_and_hessian(geo: Geometry, v) -> tuple[np.ndarray, np.ndarray]:
    """grad v and Hess v from the jets ``(value, d, d2)`` of a potential v."""
    _, dv, d2v = v
    grad = contract("...kl,...l->...k", geo.ginv, dv)
    return grad, d2v - contract("...kij,...k->...ij", geo.gamma, dv)


def _lie_connection_components(geo: Geometry, V) -> np.ndarray:
    """T[k, i, j] = (L_V nabla)^k_ij from the jets ``(v, dv, d2v)`` of V."""
    v, dv, d2v = V
    gam, dgam = geo.gamma, geo.dgamma
    # A^k_j = nabla_j V^k
    a = dv + contract("...kjm,...m->...kj", gam, v)
    # da[k, j, i] = d_i A^k_j (the V-Hessian block is symmetric in (j, i))
    da = (
        d2v
        + contract("...kjmi,...m->...kji", dgam, v)
        + contract("...kjm,...mi->...kji", gam, dv)
    )
    nabla_a = np.swapaxes(geo.nabla(a, da), -1, -2)  # [k, i, j] = (nabla_i A)^k_j
    return nabla_a + contract("...kmij,...m->...kij", geo.riem, v)


def lie_derivative_connection(geo: Geometry, V) -> np.ndarray:
    """(L_V nabla)(X, Y) = nabla_X nabla_Y V - nabla_{nabla_X Y} V + R(V, X) Y,
    as T[k, i, j]; the benchmark's trace reads this name and the one it calls."""
    return _lie_connection_components(geo, V)


def lie_derivative_curvature(geo: Geometry, V) -> np.ndarray:
    """L_V R as the Lie derivative of the (1,3)-tensor R, exact at the point.

    (L_V R)^l_ijk = V(R^l_ijk) - R^a_ijk d_a V^l + R^l_ajk d_i V^a
    + R^l_iak d_j V^a + R^l_ija d_k V^a, with V(R) from third-order metric
    jets and ``(v, dv, ...)`` the jets of V.
    """
    v, dv = V[:2]
    riem = geo.riem
    lr = geo.riem_along(v)
    lr -= contract("...la,...aijk->...lijk", dv, riem)
    lr += contract("...lajk,...ai->...lijk", riem, dv)
    lr += contract("...liak,...aj->...lijk", riem, dv)
    lr += contract("...lija,...ak->...lijk", riem, dv)
    return lr
