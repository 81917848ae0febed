"""Weak metric f-structure layer: structure tensors and identity checks.

A weak metric f-manifold carries a skew-symmetric (1,1)-tensor f of rank
2n, a self-adjoint nonsingular Q, s Reeb-type fields xi_i with dual
1-forms eta^i, and a Riemannian metric, subject to

    f^2 = -Q + sum_i eta^i (x) xi_i,
    g(fX, fY) = g(X, QY) - sum_i eta^i(X) eta^i(Y).

Identity residuals are evaluated on probe vectors (the full coordinate
basis plus 8 seeded random vectors); a residual is the max-abs over
components and probe contractions.  Pointwise operations take the
:class:`StructureAtPoint` they work on, which holds one point or a chunk of
points; every array carries the batch shape in front (``()`` or ``(C,)``),
and a check returns ``{check id: residual}`` with one residual per point
(0-d at one point, ``(C,)`` on a chunk).  Checks read no tolerance: the
verdicts are decided by whoever reads the residuals.  Covariant derivatives
of (1,1)-tensors take the one formula of ``Geometry.nabla``;
``StructureAtPoint.nabla_xi`` holds those of all the xi_i at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .expr import ExprAst, Tape, compile_tape
from .geometry import FieldSpec, MetricField, check_bound, coboundary_2form, contract

__all__ = [
    "WeakFManifold",
    "MAX_FIELD",
    "CHUNK_FLOATS",
    "chunk_size",
    "StructureAtPoint",
    "probe_vectors",
    "tensor_residual",
    "check_axioms",
    "nijenhuis_tensor",
    "normality_tensor",
    "theorem1_check",
    "wedge_1form_2form",
]

_PROBE_SEED = 7
_PROBE_COUNT = 8
# Floats of a chunk's third-order metric jets, counted as C * dim^5 (8 MiB),
# that ``WeakFManifold.structures`` keeps within unless one point exceeds it.
# The jets span the metric's support S only, C dim^2 |S|^3 floats, so the
# count over-provisions wherever S is not the whole chart.
CHUNK_FLOATS = 2**20


def chunk_size(dim: int) -> int:
    """Points a chunk holds at dimension ``dim``: 32 at dim 8, one from dim 16."""
    return max(1, CHUNK_FLOATS // dim**5)


# Largest value of f, Q, xi, eta and of a vector field jetted with them (the
# soliton's V) that a structure accepts.  With the other inputs of order one,
# the highest power in which one of them enters a check is the third: f^3 in
# axiom.f3 and eta^3 in id.27 (etabar eta^j eta^j xibar); xi enters at most
# squared (lemma2.35) and Q and V linearly.  A cube sums at most dim^2 = 441
# products, and a probed slot multiplies a residual by at most dim, so with
# |entries| <= 1e100 a residual stays below 21^3 1e300 = 9.3e303, a factor
# 1.9e4 below the largest float (1.8e308).
MAX_FIELD = 1e100


def probe_vectors(dim: int) -> np.ndarray:
    """Coordinate basis plus seeded random vectors, rows are probes."""
    rng = np.random.default_rng(_PROBE_SEED)
    return np.vstack([np.eye(dim), rng.standard_normal((_PROBE_COUNT, dim))])


@lru_cache(maxsize=None)
def _random_probes(dim: int) -> tuple[np.ndarray, float]:
    """The random rows of ``probe_vectors(dim)``, read-only, and their max-abs."""
    probes = probe_vectors(dim)[dim:]
    probes.flags.writeable = False
    return probes, float(np.abs(probes).max())


def tensor_residual(t: np.ndarray, probe_slots: tuple[int, ...] = (), lead: int = 0):
    """Max-abs over components and over random-probe contractions.

    The first ``lead`` axes are batch axes: the maximum is taken over every
    other axis, and ``probe_slots`` count from the first of those.  The
    probe term is part of the norm, not a second detector: contracting k
    slots with the random rows, divided by ``max(1, top**k)`` (``top`` their
    largest entry), is at most dim**k times the component max-abs.  It
    cannot make a zero tensor nonzero; it can raise a nonzero residual by up
    to that factor.  Each slot is contracted as the last axis, from the last
    slot down, so the slots before it stay in place; the order of the other
    axes does not change the maximum.
    """
    axes = tuple(range(lead, t.ndim))
    res = np.abs(t).max(axis=axes, initial=0.0)
    if probe_slots:
        probes, top = _random_probes(t.shape[lead + probe_slots[0]])
        contracted = t
        for slot in sorted(probe_slots, reverse=True):
            contracted = np.moveaxis(contracted, lead + slot, -1) @ probes.T
        scale = max(1.0, top ** len(probe_slots))
        res = np.maximum(res, np.abs(contracted).max(axis=axes) / scale)
    return res


@dataclass(frozen=True)
class WeakFManifold:
    """Chart realization of a weak metric f-manifold M^(2n+s)."""

    n: int
    s: int
    beta: float | None
    c: float | None
    metric: MetricField
    f: FieldSpec
    Q: FieldSpec
    xi: tuple[FieldSpec, ...]
    eta: tuple[FieldSpec, ...]
    sigma: ExprAst | None = None          # set by the twisted-product builder

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise ValueError("need n >= 1 and s >= 1")
        if self.metric.dim != self.dim:
            raise ValueError("metric dimension does not match 2n+s")
        if len(self.xi) != self.s or len(self.eta) != self.s:
            raise ValueError("need s Reeb fields and s dual 1-forms")

    @property
    def dim(self) -> int:
        return 2 * self.n + self.s

    @cached_property
    def tape(self) -> Tape:
        """f, Q, the xi_i and the eta^i compiled into one tape, once: output
        rows f | Q | xi | eta of ``dim`` entries each."""
        rows = (*self.f.entries, *self.Q.entries, *(v.entries for v in self.xi + self.eta))
        return compile_tape([e for row in rows for e in row], self.dim)

    def at(self, p) -> "StructureAtPoint":
        """The structure at a point ``(dim,)`` or a chunk ``(C, dim)``, built afresh."""
        pt = np.asarray(p, dtype=float)
        if pt.ndim not in (1, 2) or pt.shape[-1] != self.dim:
            raise ValueError(
                f"point dimension {pt.shape} does not match chart ({self.dim},)"
            )
        return StructureAtPoint(self, pt)

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
    or a chunk of points; what is derived from them, and the jets of any
    other field read here (:meth:`jets_of`), is cached here, and nothing
    across chunks."""

    def __init__(self, m: WeakFManifold, p: np.ndarray):
        self.m = m
        self.point = p
        self.lead = p.ndim - 1  # batch axes in front of every array
        self._points = p.reshape(-1, m.dim)
        self._jets: dict = {}  # id(field) -> (field, its jets here)
        # one run of the manifold's tape, to first order, split by field:
        # df[i, j, k] = d_k f^i_j; xi[i, k] = xi_i^k and dxi[i, k, a] = d_a xi_i^k,
        # the field index i after the batch axes, and likewise for eta
        dim, s = m.dim, m.s
        value, d = m.tape.jets(p, 1, (2 * (dim + s), dim))
        rows = (dim, 2 * dim, 2 * dim + s)
        self.f, self.Q, self.xi, self.eta = fields = np.split(value, rows, self.lead)
        self.df, self.dQ, self.dxi, self.deta = np.split(d, rows, self.lead)
        for name, values in zip(("f", "Q", "xi", "eta"), fields):  # before the geometry
            check_bound(self._points, name, values, MAX_FIELD)
        self.geo = m.metric.at(p)
        self.xibar = self.xi.sum(axis=-2)
        self.etabar = self.eta.sum(axis=-2)
        self.Qtilde = self.Q - np.eye(m.dim)

    def residual(self, t: np.ndarray, probe_slots: tuple[int, ...] = ()):
        """:func:`tensor_residual` of a tensor of this structure, per point."""
        return tensor_residual(t, probe_slots, self.lead)

    def jets_of(self, field):
        """(value, d, d2) of a vector field or scalar expression here, jetted
        the first time it is read.  A vector field (the soliton's V) is
        bounded by :data:`MAX_FIELD` before any use."""
        known = self._jets.get(id(field))
        if known is None:
            jets = field.jets(self.point)
            if isinstance(field, FieldSpec):
                check_bound(self._points, "soliton.V", jets[0], MAX_FIELD)
            known = self._jets[id(field)] = (field, jets)
        return known[1]

    @cached_property
    def etaeta(self) -> np.ndarray:
        """sum_i eta^i (x) eta^i."""
        return contract("...ia,...ib->...ab", self.eta, self.eta)

    @cached_property
    def etaxi(self) -> np.ndarray:
        """sum_i eta^i (x) xi_i as a (1,1)-tensor: [k, a] = sum_i xi_i^k eta^i_a."""
        return contract("...ik,...ia->...ka", self.xi, self.eta)

    @cached_property
    def ebar(self) -> np.ndarray:
        """etabar (x) etabar."""
        return np.einsum("...a,...b->...ab", self.etabar, self.etabar)

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
    """Residuals of the defining axioms and their pointwise consequences."""
    g, f, Q = st.geo.g, st.f, st.Q
    ff = f @ f
    res = st.residual
    return {
        "axiom.5": res(ff + Q - st.etaxi, (1,)),
        "axiom.6": res(contract("...ma,...mb->...ab", f, g @ f) - g @ Q + st.etaeta, (0, 1)),
        "axiom.fxi": res(contract("...km,...im->...ki", f, st.xi)),
        "axiom.etaf": res(st.eta @ f, (1,)),
        "axiom.etaQ": res(st.eta @ Q - st.eta, (1,)),
        "axiom.Qf": res(Q @ f - f @ Q, (1,)),
        "axiom.Qxi": res(contract("...km,...im->...ki", Q, st.xi) - np.swapaxes(st.xi, -1, -2)),
        "axiom.dual": res(contract("...km,...im->...ki", g, st.xi) - np.swapaxes(st.eta, -1, -2)),
        "axiom.f3": res(ff @ f + f + st.Qtilde @ f, (1,)),
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
    # d(eta^i)_{ab} with the 1/2 normalization
    deta = 0.5 * (np.swapaxes(st.deta, -1, -2) - st.deta)  # [i, a, b]
    return nf + 2.0 * contract("...iab,...ik->...kab", deta, st.xi)


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
    deta = 0.5 * (np.swapaxes(st.deta, -1, -2) - st.deta)
    # d_k Phi_ab = d_k g_am f^m_b + g_am d_k f^m_b, from the jets at the point
    dphi = coboundary_2form(
        contract("...amk,...mb->...abk", st.geo.dg, st.f)
        + contract("...am,...mbk->...abk", st.geo.g, st.df)
    )
    phi = st.geo.g @ st.f  # Phi(X, Y) = g(X, fY)
    rhs = 2.0 * st.m.beta * wedge_1form_2form(st.etabar, phi)
    return {
        "n1": st.residual(n1, (1, 2)),
        "deta": st.residual(deta, (1, 2)),
        "dphi": st.residual(dphi - rhs, (0, 1, 2)),
    }
