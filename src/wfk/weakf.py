"""Weak metric f-structure layer: structure tensors and identity checks.

A weak metric f-manifold carries a skew-symmetric (1,1)-tensor f of rank
2n, a self-adjoint nonsingular Q, s Reeb-type fields xi_i with dual
1-forms eta^i, and a Riemannian metric, subject to

    f^2 = -Q + sum_i eta^i (x) xi_i,
    g(fX, fY) = g(X, QY) - sum_i eta^i(X) eta^i(Y).

Identity residuals are evaluated on probe vectors (the full coordinate
basis plus 8 seeded random vectors); a residual is the max-abs over
components and probe contractions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import ExprAst
from .geometry import (
    CovectorFieldSpec,
    MatrixFieldSpec,
    MetricField,
    TensorValue,
    VectorFieldSpec,
    exterior_derivative_2form,
)

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
        pt = tuple(float(x) for x in np.asarray(point, dtype=float))
        residual = float(residual)
        return cls(check_id, pt, residual, tolerance, residual <= tolerance)


def probe_vectors(dim: int, seed: int = _PROBE_SEED, extra: int = _PROBE_COUNT) -> np.ndarray:
    """Coordinate basis plus seeded random vectors, rows are probes."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.eye(dim), rng.standard_normal((extra, dim))])


def tensor_residual(t: np.ndarray, probe_slots: tuple[int, ...] = ()) -> float:
    """Max-abs over components and over random-probe contractions.

    Contracting the residual tensor with random vectors on the given
    slots guards against index-permutation bugs that a plain max-abs
    over the (already basis-probed) components could miss.
    """
    res = float(np.abs(t).max()) if t.size else 0.0
    if probe_slots:
        dim = t.shape[probe_slots[0]]
        probes = probe_vectors(dim)[dim:]  # random rows only
        contracted = t
        for slot in sorted(probe_slots, reverse=True):
            contracted = np.tensordot(contracted, probes.T, axes=([slot], [0]))
        scale = max(1.0, float(np.abs(probes).max()) ** len(probe_slots))
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
    f: MatrixFieldSpec
    Q: MatrixFieldSpec
    xi: tuple[VectorFieldSpec, ...]
    eta: tuple[CovectorFieldSpec, ...]
    sigma: ExprAst | None = None          # set by the twisted-product builder
    fiber_dim: int | None = None          # ditto
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def at(self, p) -> "StructureAtPoint":
        pt = np.asarray(p, dtype=float)
        key = tuple(pt.tolist())
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) > 2048:
                self._cache.clear()
            hit = StructureAtPoint(self, pt)
            self._cache[key] = hit
        return hit


class StructureAtPoint:
    """Evaluated structure tensors and their first derivatives at a point."""

    def __init__(self, m: WeakFManifold, p: np.ndarray):
        self.m = m
        self.geo = m.metric.at(p)
        self.point = self.geo.point
        n = m.dim
        self.f, self.df = m.f.jets(p)      # df[i, j, k] = d_k f^i_j
        self.Q, self.dQ = m.Q.jets(p)
        self.xi = np.empty((m.s, n))
        self.dxi = np.empty((m.s, n, n))   # dxi[i, k, a] = d_a xi_i^k
        self.eta = np.empty((m.s, n))
        self.deta = np.empty((m.s, n, n))  # deta[i, k, a] = d_a eta^i_k
        for i in range(m.s):
            v, dv, _ = m.xi[i].jets(p)
            self.xi[i], self.dxi[i] = v, dv
            w, dw = m.eta[i].jets(p)
            self.eta[i], self.deta[i] = w, dw
        self.xibar = self.xi.sum(axis=0)
        self.etabar = self.eta.sum(axis=0)
        self.Qtilde = self.Q - np.eye(n)

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


def check_axioms(m: WeakFManifold, p) -> list[ResidualReport]:
    """Residuals of the defining axioms and their pointwise consequences."""
    st = m.at(p)
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
        + np.einsum("ia,ib->ab", st.eta, st.eta),
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


def _as_matrix_field(S, dim: int) -> MatrixFieldSpec:
    if isinstance(S, MatrixFieldSpec):
        return S
    return MatrixFieldSpec.from_entries(S, dim)


def nijenhuis(m: WeakFManifold, S, p) -> TensorValue:
    """Nijenhuis torsion [S, S] of a (1,1)-tensor field, via the connection."""
    spec = _as_matrix_field(S, m.dim)
    st = m.at(p)
    s_val, s_d = spec.jets(st.point)
    nabla_s = st.nabla_mixed(s_val, s_d)  # [k, j, c] = (nabla_c S)^k_j
    # C^k_{ab} = S^k_m (nabla_b S)^m_a - S^j_b (nabla_j S)^k_a
    c = np.einsum("km,mab->kab", s_val, nabla_s) - np.einsum(
        "jb,kaj->kab", s_val, nabla_s
    )
    t = c - c.transpose(0, 2, 1)
    return TensorValue(("up", "down", "down"), t, st.point)


def normality_tensor(m: WeakFManifold, p) -> TensorValue:
    """N1 = [f, f] + 2 sum_i d(eta^i) (x) xi_i."""
    st = m.at(p)
    nf = nijenhuis(m, m.f, p).components
    # d(eta^i)_{ab} with the 1/2 normalization
    deta = 0.5 * (st.deta.transpose(0, 2, 1) - st.deta)  # [i, a, b]
    t = nf + 2.0 * np.einsum("iab,ik->kab", deta, st.xi)
    return TensorValue(("up", "down", "down"), t, st.point)


def fundamental_form(m: WeakFManifold, p) -> TensorValue:
    st = m.at(p)
    phi = np.einsum("am,mb->ab", st.geo.g, st.f)
    return TensorValue(("down", "down"), phi, st.point)


def fundamental_form_field(m: WeakFManifold) -> MatrixFieldSpec:
    """Phi(X, Y) = g(X, fY) as a symbolic matrix field (for d Phi)."""
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
    return MatrixFieldSpec(n, tuple(tuple(r) for r in rows))


def f_basis(m: WeakFManifold, p):
    """Orthogonal frame {e_1, fe_1, ..., e_n, fe_n, xi_1, ..., xi_s}.

    Eigenvalues of Q on the contact distribution come in n pairs; the
    returned lambdas are one per chosen e_i, ascending.  Eigenvector
    choice is deterministic: within an eigenspace, take the direction
    with the largest projection onto the lowest-index coordinate axis
    and normalize so the first nonzero component is positive.
    """
    st = m.at(p)
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


def theorem1_check(m: WeakFManifold, p) -> list[ResidualReport]:
    """Normality, closedness of the eta^i, and dPhi = 2 beta etabar ^ Phi."""
    st = m.at(p)
    n1 = normality_tensor(m, p).components
    deta = 0.5 * (st.deta.transpose(0, 2, 1) - st.deta)
    dphi = exterior_derivative_2form(fundamental_form_field(m), st.point).components
    phi = fundamental_form(m, p).components
    rhs = 2.0 * m.beta_value(p) * wedge_1form_2form(st.etabar, phi)
    return [
        ResidualReport.make("n1", st.point, tensor_residual(n1, (1, 2))),
        ResidualReport.make("deta", st.point, tensor_residual(deta, (1, 2))),
        ResidualReport.make("dphi", st.point, tensor_residual(dphi - rhs, (0, 1, 2))),
    ]
