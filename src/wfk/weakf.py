"""Weak metric f-structure layer: structure tensors and identity checks.

A weak metric f-manifold carries a skew-symmetric (1,1)-tensor f of rank
2n, a self-adjoint nonsingular Q, s Reeb-type fields xi_i with dual
1-forms eta^i, and a Riemannian metric, subject to

    f^2 = -Q + sum_i eta^i (x) xi_i,
    g(fX, fY) = g(X, QY) - sum_i eta^i(X) eta^i(Y).

An identity is checked as a tensor that vanishes when it holds.  Pointwise
operations take the :class:`StructureAtPoint` they work on, which holds one
point or a chunk of points; every array carries the batch shape in front
(``()`` or ``(C,)``), and a check returns ``{check id: tensor}``, the tensor
that must vanish with the batch axes in front.  ``wfk.checks`` measures each
one by :func:`tensor_residual`, the one norm of every check: the max-abs
over its chart components, one residual per point.  Checks read no
tolerance: the verdicts are decided by whoever reads the residuals.
Covariant derivatives of (1,1)-tensors take the one formula of
``Geometry.nabla``; ``StructureAtPoint.nabla_xi`` holds those of all the
xi_i at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .expr import Tape
from .geometry import MetricField, check_bound, coboundary_2form, contract

if TYPE_CHECKING:
    from .star_soliton import SolitonData

__all__ = [
    "WeakFManifold",
    "MAX_FIELD",
    "CHUNK_FLOATS",
    "chunk_size",
    "StructureAtPoint",
    "tensor_residual",
    "least_squares",
    "check_axioms",
    "nijenhuis_tensor",
    "normality_tensor",
    "theorem1_check",
    "wedge_1form_2form",
]

# Floats of a chunk's third-order metric jets, counted as C * dim^5 (8 MiB),
# that ``WeakFManifold.structures`` keeps within unless one point exceeds it.
# The jets span the metric's support S only, C dim^2 |S|^3 floats, so the
# count over-provisions wherever S is not the whole chart.
CHUNK_FLOATS = 2**20


def chunk_size(dim: int) -> int:
    """Points a chunk holds at dimension ``dim``: 32 at dim 8, 2 at dim 13, one from dim 14."""
    return max(1, CHUNK_FLOATS // dim**5)


# Largest value of f, Q, xi, eta and of a vector field jetted with them (the
# soliton's V) that a structure accepts.  With the other inputs of order one,
# the highest power in which one of them enters a check is the third: f^3 in
# axiom.f3 and eta^3 in id.27 (etabar eta^j eta^j xibar); xi enters at most
# squared (lemma2.35) and Q and V linearly.  A cube sums at most dim^2 = 441
# products, so with |entries| <= 1e100 a residual, the max-abs of one such
# component, stays below 441 1e300 = 4.4e302, a factor 4e5 below the largest
# float (1.8e308).
MAX_FIELD = 1e100


def tensor_residual(t: np.ndarray, lead: int = 0):
    """Max-abs over the components of ``t`` past its first ``lead`` (batch)
    axes, one value per batch entry; NaN propagates, so it fails any tolerance."""
    return np.abs(t).max(axis=tuple(range(lead, np.ndim(t))), initial=0.0)


def least_squares(target: np.ndarray, *columns: np.ndarray, lead: int = 0):
    """Least-squares coefficients of ``target = sum_k c_k columns[k]``, tensors
    of one shape with ``lead`` batch axes in front: ``(c_1, ..., c_K,
    remainder)``, one coefficient a batch entry and the remainder ``target``
    minus the fit.  The minimum-norm solution, by the pseudo-inverse with the
    cutoff ``np.linalg.lstsq`` uses, so a zero column gets coefficient 0."""
    batch = target.shape[:lead]
    design = np.stack(columns, axis=-1).reshape(batch + (-1, len(columns)))
    pinv = np.linalg.pinv(design, rcond=np.finfo(float).eps * design.shape[-2])
    coef = np.moveaxis((pinv @ target.reshape(batch + (-1, 1)))[..., 0], -1, 0)
    spread = (...,) + (None,) * (target.ndim - lead)  # a coefficient over its tensor
    return (*coef, target - sum(c[spread] * col for c, col in zip(coef, columns)))


@dataclass(frozen=True)
class WeakFManifold:
    """Chart realization of a weak metric f-manifold M^(2n+s)."""

    n: int
    s: int
    beta: float | None
    metric: MetricField
    tape: Tape  # f, Q, the xi_i and the eta^i: rows f | Q | xi | eta of dim entries
    sigma: Tape | None = None             # a twisted product's manifest sets it
    soliton: SolitonData | None = None    # the *-eta-Ricci soliton it carries

    @property
    def dim(self) -> int:
        return 2 * self.n + self.s

    def at(self, p) -> "StructureAtPoint":
        """The structure at a point ``(dim,)`` or a chunk ``(C, dim)``, built
        afresh; the tape's run rejects any other shape."""
        return StructureAtPoint(self, np.asarray(p, dtype=float))

    def structures(self, points):
        """The structures of consecutive chunks of :func:`chunk_size` points."""
        pts = np.asarray(points, dtype=float)
        if not pts.size:
            return
        if pts.shape[1:] != (self.dim,):
            raise ValueError(f"points have shape {pts.shape}, chart is ({self.dim},)")
        size = chunk_size(self.dim)
        for start in range(0, len(pts), size):
            yield self.at(pts[start: start + size])


class StructureAtPoint:
    """Structure tensors, their first derivatives and the geometry at a point
    or a chunk of points; what is derived from them, and the jets of the
    soliton's potential (:attr:`potential`), is cached here, and nothing
    across chunks."""

    def __init__(self, m: WeakFManifold, p: np.ndarray):
        self.m = m
        self.point = p
        self.lead = p.ndim - 1  # batch axes in front of every array
        # one run of the manifold's tape, to first order, split by field:
        # df[i, j, k] = d_k f^i_j; xi[i, k] = xi_i^k and dxi[i, k, a] = d_a xi_i^k,
        # the field index i after the batch axes, and likewise for eta
        dim, s = m.dim, m.s
        value, d = m.tape.jets(p, 1)  # rejects a wrong shape of p
        self._points = p.reshape(-1, m.dim)
        rows = (dim, 2 * dim, 2 * dim + s)
        self.f, self.Q, self.xi, self.eta = fields = np.split(value, rows, self.lead)
        self.df, self.dQ, self.dxi, self.deta = np.split(d, rows, self.lead)
        for name, values in zip(("f", "Q", "xi", "eta"), fields):  # before the geometry
            check_bound(self._points, name, values, MAX_FIELD)
        self.geo = m.metric.at(p)
        self.xibar = self.xi.sum(axis=-2)
        self.etabar = self.eta.sum(axis=-2)
        self.Qtilde = self.Q - np.eye(m.dim)

    @cached_property
    def potential(self):
        """(value, d, d2) here of the soliton's potential, V or v, jetted once;
        V is bounded by :data:`MAX_FIELD` before any use."""
        sol = self.m.soliton
        jets = (sol.V or sol.v).jets(self.point)
        if sol.V is not None:
            check_bound(self._points, "soliton.V", jets[0], MAX_FIELD)
        return jets

    @cached_property
    def etaeta(self) -> np.ndarray:
        """sum_i eta^i (x) eta^i."""
        return contract("...ia,...ib->...ab", self.eta, self.eta)

    @cached_property
    def d_eta(self) -> np.ndarray:
        """The exterior derivatives d(eta^i)_{ab}, with the 1/2 normalization, as [i, a, b]."""
        return 0.5 * (np.swapaxes(self.deta, -1, -2) - self.deta)

    @cached_property
    def etaxi(self) -> np.ndarray:
        """sum_i eta^i (x) xi_i as a (1,1)-tensor: [k, a] = sum_i xi_i^k eta^i_a."""
        return contract("...ik,...ia->...ka", self.xi, self.eta)

    @cached_property
    def ebar(self) -> np.ndarray:
        """etabar (x) etabar."""
        return np.einsum("...a,...b->...ab", self.etabar, self.etabar)

    @cached_property
    def P(self) -> np.ndarray:
        """The projection id - sum_i eta^i (x) xi_i onto the distribution the
        eta^i cut out, along the xi_i: [k, a]."""
        return np.eye(self.m.dim) - self.etaxi

    @cached_property
    def H(self) -> np.ndarray:
        """The transverse metric g - sum_i eta^i (x) eta^i, g on that distribution."""
        return self.geo.g - self.etaeta

    @cached_property
    def xebar(self) -> np.ndarray:
        """xibar (x) etabar as a (1,1)-tensor: [k, a] = xibar^k etabar_a."""
        return np.einsum("...a,...k->...ka", self.etabar, self.xibar)

    @cached_property
    def ric_star(self) -> np.ndarray:
        """Ric*_{ab} = (1/2) f^k_l f^j_b R^l_{ajk}; generally not symmetric."""
        return self.geo.ric_star(self.f)

    @cached_property
    def r_star(self):
        """The *-scalar curvature, the g-trace of Ric*."""
        return contract("...ab,...ab->...", self.geo.ginv, self.ric_star)

    # covariant derivatives of the structure fields at the point

    @property
    def nabla_f(self) -> np.ndarray:
        """(nabla_c f)^k_j as [k, j, c]."""
        return self.geo.nabla(self.f, self.df)

    @property
    def nabla_Q(self) -> np.ndarray:
        """(nabla_c Q)^k_j as [k, j, c]."""
        return self.geo.nabla(self.Q, self.dQ)

    @cached_property
    def nabla_xi(self) -> np.ndarray:
        """(nabla_a xi_i)^k as [i, k, a]."""
        return self.dxi + contract("...kam,...im->...ika", self.geo.gamma, self.xi)


# ---------------------------------------------------------------------------
# operations


def check_axioms(st: StructureAtPoint) -> dict:
    """The defining axioms and their pointwise consequences, as tensors that vanish."""
    g, f, Q = st.geo.g, st.f, st.Q
    ff = f @ f
    return {
        "axiom.5": ff + Q - st.etaxi,
        "axiom.6": contract("...ma,...mb->...ab", f, g @ f) - g @ Q + st.etaeta,
        "axiom.fxi": contract("...km,...im->...ki", f, st.xi),
        "axiom.etaf": st.eta @ f,
        "axiom.etaQ": st.eta @ Q - st.eta,
        "axiom.Qf": Q @ f - f @ Q,
        "axiom.Qxi": contract("...km,...im->...ki", Q, st.xi) - np.swapaxes(st.xi, -1, -2),
        "axiom.dual": contract("...km,...im->...ki", g, st.xi) - np.swapaxes(st.eta, -1, -2),
        "axiom.f3": ff @ f + f + st.Qtilde @ f,
    }


def nijenhuis_tensor(st: StructureAtPoint, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """[S, S]^k_ab of a (1,1)-tensor S from its values s[k, j] and
    derivatives ds[k, j, c] at the structure's point."""
    nabla_s = st.geo.nabla(s, ds)  # [k, j, c] = (nabla_c S)^k_j
    # C^k_{ab} = S^k_m (nabla_b S)^m_a - S^j_b (nabla_j S)^k_a
    c = contract("...km,...mab->...kab", s, nabla_s) - contract(
        "...jb,...kaj->...kab", s, nabla_s
    )
    return c - np.swapaxes(c, -1, -2)


def normality_tensor(st: StructureAtPoint) -> np.ndarray:
    """N1 = [f, f] + 2 sum_i d(eta^i) (x) xi_i."""
    nf = nijenhuis_tensor(st, st.f, st.df)
    return nf + 2.0 * contract("...iab,...ik->...kab", st.d_eta, st.xi)


def wedge_1form_2form(alpha: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(alpha ^ phi)_{abc} with the 1/(p+1) normalization (here 1/3)."""
    return (
        np.einsum("...a,...bc->...abc", alpha, phi)
        + np.einsum("...b,...ca->...abc", alpha, phi)
        + np.einsum("...c,...ab->...abc", alpha, phi)
    ) / 3.0


def theorem1_check(st: StructureAtPoint) -> dict:
    """Normality, closedness of the eta^i, and dPhi = 2 beta etabar ^ Phi."""
    n1 = normality_tensor(st)
    # d_k Phi_ab = d_k g_am f^m_b + g_am d_k f^m_b, from the jets at the point
    dphi = coboundary_2form(
        contract("...amk,...mb->...abk", st.geo.dg, st.f)
        + contract("...am,...mbk->...abk", st.geo.g, st.df)
    )
    phi = st.geo.g @ st.f  # Phi(X, Y) = g(X, fY)
    rhs = 2.0 * st.m.beta * wedge_1form_2form(st.etabar, phi)
    return {"n1": n1, "deta": st.d_eta, "dphi": dphi - rhs}
