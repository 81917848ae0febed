"""Weak metric f-structure layer: structure tensors and identity checks.

A weak metric f-manifold carries a skew-symmetric (1,1)-tensor f of rank
2n, a self-adjoint nonsingular Q, s Reeb-type fields xi_i with dual
1-forms eta^i, and a Riemannian metric, subject to

    f^2 = -Q + sum_i eta^i (x) xi_i,
    g(fX, fY) = g(X, QY) - sum_i eta^i(X) eta^i(Y).

Identity residuals are evaluated on probe vectors (the full coordinate
basis plus 8 seeded random vectors); a residual is the max-abs over
components and probe contractions.  Pointwise operations take the
:class:`StructureAtPoint` they work on.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from .expr import ExprAst
from .geometry import FieldSpec, MetricField, TensorValue, coboundary_2form

__all__ = [
    "WeakFManifold",
    "ResidualReport",
    "TOLERANCES",
    "StructureAtPoint",
    "probe_vectors",
    "tensor_residual",
    "check_axioms",
    "nijenhuis",
    "normality_tensor",
    "fundamental_form",
    "fundamental_form_field",
    "f_basis",
    "theorem1_check",
    "wedge_1form_2form",
]

_PROBE_SEED = 7
_PROBE_COUNT = 8

# Default tolerance of every check id; the only place these values are
# stated.  The identities (id.*, including the third-order 21-23) come from
# exact jets and carry rounding error only.  The lemma2 values are audit
# thresholds for report-only comparisons, not error bounds.
TOLERANCES: dict[str, float] = {
    **dict.fromkeys(
        (
            "axiom.5", "axiom.6", "axiom.fxi", "axiom.etaf", "axiom.etaQ",
            "axiom.Qf", "axiom.Qxi", "axiom.dual", "axiom.f3", "kenmotsu.12",
            "id.13", "id.14", "id.15", "id.16", "id.18", "id.19", "id.20",
            "id.21", "id.22", "id.23", "id.26", "id.27", "id.44",
        ),
        1e-8,
    ),
    **dict.fromkeys(
        (
            "n1", "deta", "dphi", "twisted.i", "twisted.ii", "twisted.iii",
            "star.def", "thm4.28", "thm4.29", "cor2", "soliton.32",
            "soliton.33", "grad.75", "contact.65",
        ),
        1e-6,
    ),
    "prop5": 1e-5,
    "lemma2.42": 1e-4,
    **dict.fromkeys(("lemma2.34", "lemma2.35"), 1e-3),
}


@dataclass(frozen=True)
class ResidualReport:
    """One identity check: residual magnitude against a tolerance."""

    check_id: str
    point: tuple[float, ...]
    residual: float
    tolerance: float
    passed: bool

    @classmethod
    def make(
        cls, check_id: str, point, residual: float, tolerance: float | None = None
    ):
        """Report ``residual`` against ``tolerance``, by default the id's own."""
        if tolerance is None:
            tolerance = TOLERANCES[check_id]
        pt = tuple(np.asarray(point, dtype=float).tolist())
        residual = float(residual)
        return cls(check_id, pt, residual, tolerance, residual <= tolerance)


def probe_vectors(dim: int, seed: int = _PROBE_SEED, extra: int = _PROBE_COUNT) -> np.ndarray:
    """Coordinate basis plus seeded random vectors, rows are probes."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.eye(dim), rng.standard_normal((extra, dim))])


@lru_cache(maxsize=None)
def _random_probes(dim: int) -> tuple[np.ndarray, float]:
    """The random rows of ``probe_vectors(dim)``, read-only, and their max-abs."""
    probes = probe_vectors(dim)[dim:]
    probes.flags.writeable = False
    return probes, float(np.abs(probes).max())


def tensor_residual(t: np.ndarray, probe_slots: tuple[int, ...] = ()) -> float:
    """Max-abs over components and over random-probe contractions.

    Contracting the residual tensor with random vectors on the given
    slots guards against index-permutation bugs that a plain max-abs
    over the (already basis-probed) components could miss.
    """
    res = float(np.abs(t).max()) if t.size else 0.0
    if probe_slots:
        probes, top = _random_probes(t.shape[probe_slots[0]])
        contracted = t
        for slot in sorted(probe_slots, reverse=True):
            contracted = np.tensordot(contracted, probes.T, axes=([slot], [0]))
        scale = max(1.0, top ** len(probe_slots))
        res = max(res, float(np.abs(contracted).max()) / scale)
    return res


@dataclass(frozen=True)
class WeakFManifold:
    """Chart realization of a weak metric f-manifold M^(2n+s)."""

    n: int
    s: int
    beta: float | ExprAst | None
    c: float | None
    metric: MetricField
    f: FieldSpec
    Q: FieldSpec
    xi: tuple[FieldSpec, ...]
    eta: tuple[FieldSpec, ...]
    sigma: ExprAst | None = None          # set by the twisted-product builder
    fiber_dim: int | None = None          # ditto

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

    def beta_value(self, p) -> float:
        if self.beta is None:
            raise ValueError("manifold has no Kenmotsu coefficient")
        if isinstance(self.beta, ExprAst):
            return ex.evaluate_jet(self.beta, np.asarray(p, dtype=float)).value
        return float(self.beta)

    @property
    def beta_is_constant(self) -> bool:
        return not isinstance(self.beta, ExprAst)

    def at(self, p, jets=None, fields=()) -> "StructureAtPoint":
        """The structure at p, built afresh; ``jets`` are :meth:`jets` at p if
        known, ``fields`` ``(field, jets)`` pairs of other fields jetted at p."""
        pt = np.asarray(p, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(
                f"point dimension {pt.shape} does not match chart ({self.dim},)"
            )
        return StructureAtPoint(self, pt, jets, fields)

    def jets(self, p):
        """(g, dg, d2g, f, df, Q, dQ, xi, dxi, eta, deta) at a point or at points (P, dim).

        A batch adds a leading axis; xi[..., i, k] = xi_i^k and
        dxi[..., i, k, a] = d_a xi_i^k, and likewise for eta.
        """
        pts = np.asarray(p, dtype=float)
        metric = self.metric.jets(pts)
        f, df, _ = self.f.jets(pts)
        q, dq, _ = self.Q.jets(pts)
        axis = pts.ndim - 1  # the field index i follows the batch axis
        vectors = [v.jets(pts)[:2] for v in self.xi]
        forms = [w.jets(pts)[:2] for w in self.eta]
        xi, dxi = (np.stack(arrs, axis) for arrs in zip(*vectors))
        eta, deta = (np.stack(arrs, axis) for arrs in zip(*forms))
        return (*metric, f, df, q, dq, xi, dxi, eta, deta)

    def structures(self, points, extra=()):
        """The structure at each point.  Every field, sigma and each ``extra``
        field (a vector field or scalar expression, such as a soliton
        potential) is jetted once for all points; see ``jets_of``."""
        pts = np.asarray(points, dtype=float)
        if not pts.size:
            return
        if pts.shape[1:] != (self.dim,):
            raise ValueError(f"points have shape {pts.shape}, chart is ({self.dim},)")
        jets = self.jets(pts)
        fields = [fld for fld in (self.sigma, *extra) if fld is not None]
        field_jets = [fld.jets(pts) for fld in fields]
        for i, p in enumerate(pts):
            yield self.at(
                p,
                [arr[i] for arr in jets],
                [(fld, [arr[i] for arr in fj]) for fld, fj in zip(fields, field_jets)],
            )


class StructureAtPoint:
    """Structure tensors, their first derivatives and the geometry at a point;
    what is derived from them is cached here, and nothing across points."""

    def __init__(self, m: WeakFManifold, p: np.ndarray, jets=None, fields=()):
        self.m = m
        # dg[i, j, k] = d_k g_ij, df[i, j, k] = d_k f^i_j, dxi[i, k, a] = d_a xi_i^k
        (
            g, dg, d2g,
            self.f, self.df, self.Q, self.dQ, self.xi, self.dxi, self.eta, self.deta
        ) = m.jets(p) if jets is None else jets
        self.geo = m.metric.at(p, (g, dg, d2g))
        self.point = self.geo.point
        self._fields = fields
        self.xibar = self.xi.sum(axis=0)
        self.etabar = self.eta.sum(axis=0)
        self.Qtilde = self.Q - np.eye(m.dim)

    def jets_of(self, field):
        """(value, d, d2) of a vector field or scalar expression at the point,
        from the batch that built this structure if it covered ``field``."""
        for known, jets in self._fields:
            if known is field:
                return jets
        return field.jets(self.point)

    @cached_property
    def etaeta(self) -> np.ndarray:
        """sum_i eta^i (x) eta^i."""
        return np.einsum("ia,ib->ab", self.eta, self.eta)

    @cached_property
    def ebar(self) -> np.ndarray:
        """etabar (x) etabar."""
        return np.einsum("a,b->ab", self.etabar, self.etabar)

    @cached_property
    def ric_star(self) -> np.ndarray:
        """Ric*_{ab} = (1/2) f^k_l f^j_b R^l_{ajk}; generally not symmetric."""
        # contract f into R's (l, k) slots first: dim^4 work, not dim^6
        return 0.5 * np.tensordot(self.geo.riem, self.f, axes=([0, 3], [1, 0])) @ self.f

    @cached_property
    def r_star(self) -> float:
        """The *-scalar curvature, the g-trace of Ric*."""
        return float(np.einsum("ab,ab->", self.geo.ginv, self.ric_star))

    # covariant derivatives of (1,1)-tensor fields at the point

    def nabla_mixed(self, a: np.ndarray, da: np.ndarray) -> np.ndarray:
        """(nabla_c A)^k_j from values a[k, j] and derivatives da[k, j, c]."""
        gam = self.geo.gamma
        return (
            da
            + np.einsum("kcm,mj->kjc", gam, a)
            - np.einsum("mcj,km->kjc", gam, a)
        )

    @property
    def nabla_f(self) -> np.ndarray:
        return self.nabla_mixed(self.f, self.df)

    @property
    def nabla_Q(self) -> np.ndarray:
        return self.nabla_mixed(self.Q, self.dQ)

    def nabla_vector(self, i: int) -> np.ndarray:
        """(nabla_a xi_i)^k."""
        return self.dxi[i] + np.einsum("kam,m->ka", self.geo.gamma, self.xi[i])


# ---------------------------------------------------------------------------
# operations


def check_axioms(st: StructureAtPoint) -> list[ResidualReport]:
    """Residuals of the defining axioms and their pointwise consequences."""
    g, f, Q = st.geo.g, st.f, st.Q
    ff = f @ f
    reports = []

    def rep(check_id, t, slots=()):
        reports.append(
            ResidualReport.make(check_id, st.point, tensor_residual(t, slots))
        )

    rep("axiom.5", ff + Q - np.einsum("ik,ij->kj", st.xi, st.eta), (1,))
    rep(
        "axiom.6",
        np.einsum("ma,mn,nb->ab", f, g, f)
        - g @ Q
        + st.etaeta,
        (0, 1),
    )
    rep("axiom.fxi", np.einsum("km,im->ki", f, st.xi))
    rep("axiom.etaf", np.einsum("ik,kj->ij", st.eta, f), (1,))
    rep("axiom.etaQ", np.einsum("ik,kj->ij", st.eta, Q) - st.eta, (1,))
    rep("axiom.Qf", Q @ f - f @ Q, (1,))
    rep("axiom.Qxi", np.einsum("km,im->ki", Q, st.xi) - st.xi.T)
    rep("axiom.dual", np.einsum("km,im->ki", g, st.xi) - st.eta.T)
    rep("axiom.f3", ff @ f + f + st.Qtilde @ f, (1,))
    return reports


def _nijenhuis(st: StructureAtPoint, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """[S, S]^k_ab from the values s[k, j] and derivatives ds[k, j, c] of S."""
    nabla_s = st.nabla_mixed(s, ds)  # [k, j, c] = (nabla_c S)^k_j
    # C^k_{ab} = S^k_m (nabla_b S)^m_a - S^j_b (nabla_j S)^k_a
    c = np.einsum("km,mab->kab", s, nabla_s) - np.einsum("jb,kaj->kab", s, nabla_s)
    return c - c.transpose(0, 2, 1)


def nijenhuis(st: StructureAtPoint, S) -> TensorValue:
    """Nijenhuis torsion [S, S] of a (1,1)-tensor field, via the connection."""
    spec = S if isinstance(S, FieldSpec) else FieldSpec.from_entries(S, st.m.dim)
    s, ds, _ = st.jets_of(spec)
    return TensorValue(("up", "down", "down"), _nijenhuis(st, s, ds), st.point)


def normality_tensor(st: StructureAtPoint) -> TensorValue:
    """N1 = [f, f] + 2 sum_i d(eta^i) (x) xi_i."""
    nf = _nijenhuis(st, st.f, st.df)
    # d(eta^i)_{ab} with the 1/2 normalization
    deta = 0.5 * (st.deta.transpose(0, 2, 1) - st.deta)  # [i, a, b]
    t = nf + 2.0 * np.einsum("iab,ik->kab", deta, st.xi)
    return TensorValue(("up", "down", "down"), t, st.point)


def fundamental_form(st: StructureAtPoint) -> TensorValue:
    phi = np.einsum("am,mb->ab", st.geo.g, st.f)
    return TensorValue(("down", "down"), phi, st.point)


def fundamental_form_field(m: WeakFManifold) -> FieldSpec:
    """Phi(X, Y) = g(X, fY) as a symbolic 2-form field.

    ``theorem1_check`` differentiates Phi at the point from the jets of g and
    f instead; this symbolic route is the independent reference for it.
    """
    n = m.dim
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            terms = [
                ex.mul(m.metric.entries[a][k], m.f.entries[k][b])
                for k in range(n)
            ]
            row.append(ex.add_many(terms, n))
        rows.append(row)
    return FieldSpec(n, tuple(tuple(r) for r in rows))


def f_basis(st: StructureAtPoint):
    """Orthogonal frame {e_1, fe_1, ..., e_n, fe_n, xi_1, ..., xi_s}.

    Eigenvalues of Q on the contact distribution come in n pairs; the
    returned lambdas are one per chosen e_i, ascending.  Eigenvector
    choice is deterministic: within an eigenspace, take the direction
    with the largest projection onto the lowest-index coordinate axis
    and normalize so the first nonzero component is positive.
    """
    m = st.m
    n, dim = m.n, m.dim
    g = st.geo.g
    # g-orthonormal basis of D = orthogonal complement of the xi's
    basis = []
    candidates = list(st.xi) + list(np.eye(dim))
    for v in candidates:
        w = v.astype(float).copy()
        for u in basis:
            w = w - (u @ g @ w) * u
        norm2 = w @ g @ w
        if norm2 > 1e-20:
            basis.append(w / np.sqrt(norm2))
    xi_frame = basis[: m.s]
    d_frame = np.array(basis[m.s:])
    if d_frame.shape[0] != 2 * n:
        raise ValueError("contact distribution has deficient rank at the point")
    # Q restricted to D in the orthonormal frame (symmetric there)
    qd = np.einsum("ai,ij,jk,bk->ab", d_frame, g, st.Q, d_frame)
    qd = 0.5 * (qd + qd.T)
    evals, evecs = np.linalg.eigh(qd)
    if evals.min() <= 0:
        raise ValueError("Q is not positive definite on the contact distribution")
    # group eigenpairs by eigenvalue, ascending
    groups: list[tuple[float, list[np.ndarray]]] = []
    for lam, vec in zip(evals, evecs.T):
        for glam, gvecs in groups:
            if abs(lam - glam) < 1e-8 * max(1.0, abs(glam)):
                gvecs.append(vec)
                break
        else:
            groups.append((float(lam), [vec]))

    frame = []
    lambdas = []
    chosen: list[np.ndarray] = []  # orthonormal, in D-frame coordinates
    axes_d = (d_frame @ g).T  # row j: chart axis e_j expressed in the D-frame

    for lam, gvecs in groups:
        rows = np.array(gvecs)
        while True:
            # remove the span of already-chosen vectors from the eigenspace
            for u in chosen:
                rows = rows - np.outer(rows @ u, u)
            q, r = np.linalg.qr(rows.T)
            keep = np.abs(np.diag(r)) > 1e-9
            if not keep.any():
                break
            rows = q.T[keep]
            proj = rows.T @ rows
            # direction of largest projection onto the lowest coordinate axis
            vec = None
            for axis in range(dim):
                w = proj @ axes_d[axis]
                if np.linalg.norm(w) > 1e-9:
                    vec = w / np.linalg.norm(w)
                    break
            e_chart = vec @ d_frame
            nz = np.nonzero(np.abs(e_chart) > 1e-12)[0]
            if nz.size and e_chart[nz[0]] < 0:
                vec, e_chart = -vec, -e_chart
            fe_chart = st.f @ e_chart
            fe_d = (d_frame @ g) @ fe_chart  # f e in the D-frame
            frame.extend([e_chart, fe_chart])
            lambdas.append(lam)
            chosen.extend([vec, fe_d / np.linalg.norm(fe_d)])

    frame.extend(xi_frame)
    return np.array(frame), np.array(lambdas)


def wedge_1form_2form(alpha: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(alpha ^ phi)_{abc} with the 1/(p+1) normalization (here 1/3)."""
    return (
        np.einsum("a,bc->abc", alpha, phi)
        + np.einsum("b,ca->abc", alpha, phi)
        + np.einsum("c,ab->abc", alpha, phi)
    ) / 3.0


def theorem1_check(st: StructureAtPoint) -> list[ResidualReport]:
    """Normality, closedness of the eta^i, and dPhi = 2 beta etabar ^ Phi."""
    n1 = normality_tensor(st).components
    deta = 0.5 * (st.deta.transpose(0, 2, 1) - st.deta)
    # d_k Phi_ab = d_k g_am f^m_b + g_am d_k f^m_b, from the jets at the point
    dphi = coboundary_2form(
        np.einsum("amk,mb->abk", st.geo.dg, st.f)
        + np.einsum("am,mbk->abk", st.geo.g, st.df)
    )
    phi = fundamental_form(st).components
    rhs = 2.0 * st.m.beta_value(st.point) * wedge_1form_2form(st.etabar, phi)
    return [
        ResidualReport.make("n1", st.point, tensor_residual(n1, (1, 2))),
        ResidualReport.make("deta", st.point, tensor_residual(deta, (1, 2))),
        ResidualReport.make("dphi", st.point, tensor_residual(dphi - rhs, (0, 1, 2))),
    ]
