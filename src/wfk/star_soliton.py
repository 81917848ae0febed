"""*-Ricci tensor, *-eta-Einstein fits, and *-eta-Ricci-soliton checks.

The authoritative *-Ricci tensor is the definitional trace

    Ric*(X, Y) = (1/2) trace { Z -> f R_{X, fY} Z },

which needs only the structure axioms; the closed-form relation to the
ordinary Ricci tensor on the Kenmotsu class is a checked identity
(``theorem4_residual``), never an input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import ExprAst
from .geometry import (
    FieldSpec,
    TensorValue,
    gradient_and_hessian,
    lie_derivative_1form,
    lie_derivative_connection,
    lie_derivative_curvature,
    lie_derivative_metric,
)
from .kenmotsu import EinsteinFit
from .weakf import TOLERANCES, ResidualReport, WeakFManifold, tensor_residual

__all__ = [
    "SolitonData",
    "SolitonVerdict",
    "Prop5Result",
    "star_ricci",
    "star_scalar",
    "theorem4_residual",
    "star_eta_einstein_fit",
    "corollary2_residual",
    "star_symmetry_gate",
    "soliton_residual",
    "gradient_soliton_residual",
    "fit_soliton_constants",
    "prop5_check",
    "contact_fit",
    "contact_field_check",
    "lemma2_audit",
]

_SYMMETRY_TOL = 1e-6  # antisymmetry of Ric* beyond which solitons are undefined
_FIT_GATE = 1e-6  # *-eta-Einstein fit residual beyond which cor2 is vacuous


@dataclass(frozen=True)
class SolitonData:
    """Potential (vector field or gradient function) plus the constants."""

    lam: float
    mu: float
    V: FieldSpec | None = None
    v: ExprAst | None = None

    def __post_init__(self):
        if (self.V is None) == (self.v is None):
            raise ValueError("provide exactly one of V (vector field) or v (potential)")
        for name, val in (("lam", self.lam), ("mu", self.mu)):
            if not isinstance(val, (int, float)):
                raise TypeError(
                    f"{name} must be a real constant; variable soliton "
                    "coefficients (almost-soliton equations) are not supported"
                )


@dataclass(frozen=True)
class SolitonVerdict:
    """Residual of the soliton equation plus its sign classification."""

    residual: float
    classification: str
    prop5_gap: float
    cross_residual: float


@dataclass(frozen=True)
class Prop5Result:
    passed: bool
    gap: float
    corollary3_gap: float | None = None


def _classify(lam: float) -> str:
    if lam < 0:
        return "expanding"
    if lam > 0:
        return "shrinking"
    return "steady"


# ---------------------------------------------------------------------------
# *-Ricci tensor


def star_ricci(m: WeakFManifold, p) -> TensorValue:
    """Ric*_{ab} = (1/2) f^k_l f^j_b R^l_{ajk}; generally not symmetric."""
    st = m.at(p)
    # contract f into R's (l, k) slots first: dim^4 work, not dim^6
    comp = 0.5 * np.tensordot(st.geo.riem, st.f, axes=([0, 3], [1, 0])) @ st.f
    return TensorValue(("down", "down"), comp, st.point)


def star_scalar(m: WeakFManifold, p) -> float:
    st = m.at(p)
    return float(np.einsum("ab,ab->", st.geo.ginv, star_ricci(m, p).components))


def star_symmetry_gate(m: WeakFManifold, p) -> tuple[float, float]:
    """(antisymmetry of Ric*, commutator norm of Q with the Ricci operator)."""
    st = m.at(p)
    ric_star = star_ricci(m, p).components
    asym = float(np.abs(ric_star - ric_star.T).max())
    comm = float(np.abs(st.Q @ st.geo.ric_sharp - st.geo.ric_sharp @ st.Q).max())
    return asym, comm


def theorem4_residual(m: WeakFManifold, p) -> list[ResidualReport]:
    """Compare the definitional Ric* and r* against their Ricci expressions."""
    st = m.at(p)
    beta = m.beta_value(p)
    s, n = m.s, m.n
    g, Q, eta = st.geo.g, st.Q, st.eta
    etabar = st.etabar

    ric_star = star_ricci(m, p).components
    ric_q = np.einsum("am,mb->ab", st.geo.ric, Q)  # Ric(X, QY)
    gq = np.einsum("ma,mb->ab", Q, g)  # g(QX, Y)
    rhs = ric_q + beta**2 * (
        s * (2 * n - 1) * gq
        + 2 * n * np.einsum("a,b->ab", etabar, etabar)
        - s * (2 * n - 1) * np.einsum("ja,jb->ab", eta, eta)
    )
    rep28 = ResidualReport.make(
        "thm4.28", st.point, tensor_residual(ric_star - rhs, (0, 1))
    )

    r_star = star_scalar(m, p)
    rhs_scalar = float(np.trace(Q @ st.geo.ric_sharp)) + beta**2 * (
        4 * s * n**2 + s * (2 * n - 1) * float(np.trace(st.Qtilde))
    )
    rep29 = ResidualReport.make("thm4.29", st.point, abs(r_star - rhs_scalar))
    return [rep28, rep29]


# ---------------------------------------------------------------------------
# *-eta-Einstein fit


def star_eta_einstein_fit(m: WeakFManifold, p):
    """Fit Ric* = abar g + bbar sum_i eta^i (x) eta^i + (abar+bbar) sum_{i!=j}.

    Regrouped, the model is abar (g + sum_{i!=j} eta^i (x) eta^j) plus
    bbar etabar (x) etabar.  The predicted pair is (r*/2n, -r*/2n).
    """
    st = m.at(p)
    ric_star = star_ricci(m, p).components
    cross = np.einsum("ia,jb->ab", st.eta, st.eta) - np.einsum(
        "ia,ib->ab", st.eta, st.eta
    )
    ebar = np.einsum("a,b->ab", st.etabar, st.etabar)
    pred = star_scalar(m, p) / (2.0 * m.n)
    return EinsteinFit.least_squares(
        ric_star, st.geo.g + cross, ebar, (float(pred), float(-pred))
    )


def corollary2_residual(m: WeakFManifold, p) -> ResidualReport:
    """Corollary 2, abar = -bbar = r*/(2n); vacuous (0) where the fit is poor."""
    fit = star_eta_einstein_fit(m, p)
    res = 0.0
    if fit.residual <= _FIT_GATE:
        a_pred, b_pred = fit.predicted
        res = max(fit.residual, abs(fit.a - a_pred), abs(fit.b - b_pred))
    return ResidualReport.make("cor2", m.at(p).point, res)


# ---------------------------------------------------------------------------
# soliton residuals


def _soliton_blocks(m: WeakFManifold, p):
    st = m.at(p)
    g = st.geo.g
    etaeta = np.einsum("ia,ib->ab", st.eta, st.eta)
    ebar = np.einsum("a,b->ab", st.etabar, st.etabar)
    return st, g, etaeta, ebar


def _check_star_symmetric(m: WeakFManifold, p) -> None:
    asym, _ = star_symmetry_gate(m, p)
    if asym > _SYMMETRY_TOL:
        raise ValueError(
            f"the *-Ricci tensor is not symmetric at this point "
            f"(antisymmetric part {asym:.2e}); the soliton equation is undefined"
        )


def _cross_residual_33(m: WeakFManifold, p, half_lie: np.ndarray, lam, mu) -> float:
    """Residual of the expanded soliton equation written through Ric and Q."""
    st, g, etaeta, ebar = _soliton_blocks(m, p)
    beta = m.beta_value(p)
    s, n = m.s, m.n
    ric_q = np.einsum("am,mb->ab", st.geo.ric, st.Q)
    gq = np.einsum("ma,mb->ab", st.Q, g)
    k = s * (2 * n - 1) * beta**2
    rhs = (
        lam * g
        - k * gq
        + (k - lam) * etaeta
        + (lam + mu - 2 * n * beta**2) * ebar
    )
    return tensor_residual(half_lie + ric_q - rhs, (0, 1))


def soliton_residual(m: WeakFManifold, sol: SolitonData, p) -> SolitonVerdict:
    """Residual of (1/2) L_V g + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x) etabar."""
    if sol.V is None:
        raise ValueError("soliton_residual needs a vector-field potential")
    if sol.V.dim != m.dim:
        raise ValueError("potential dimension does not match the manifold")
    _check_star_symmetric(m, p)
    st, g, etaeta, ebar = _soliton_blocks(m, p)
    half_lie = 0.5 * lie_derivative_metric(m.metric, sol.V, p).components
    lhs = half_lie + star_ricci(m, p).components
    rhs = sol.lam * (g - etaeta) + (sol.lam + sol.mu) * ebar
    residual = tensor_residual(lhs - rhs, (0, 1))
    cross = _cross_residual_33(m, p, half_lie, sol.lam, sol.mu)
    return SolitonVerdict(
        residual, _classify(sol.lam), abs(sol.lam + sol.mu), cross
    )


def gradient_soliton_residual(m: WeakFManifold, sol: SolitonData, p) -> SolitonVerdict:
    """Residual of Hess_v + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x) etabar."""
    if sol.v is None:
        raise ValueError("gradient_soliton_residual needs a potential function")
    _check_star_symmetric(m, p)
    st, g, etaeta, ebar = _soliton_blocks(m, p)
    _, hess = gradient_and_hessian(m.metric, sol.v, p)
    lhs = hess.components + star_ricci(m, p).components
    rhs = sol.lam * (g - etaeta) + (sol.lam + sol.mu) * ebar
    residual = tensor_residual(lhs - rhs, (0, 1))

    # operator form: nabla_X grad v + Q Ric# X = lam X - s(2n-1) b^2 QX + ...
    beta = m.beta_value(p)
    s, n = m.s, m.n
    dim = m.dim
    k = s * (2 * n - 1) * beta**2
    hess_op = st.geo.ginv @ hess.components
    lhs_op = hess_op + st.Q @ st.geo.ric_sharp
    rhs_op = (
        sol.lam * np.eye(dim)
        - k * st.Q
        + (k - sol.lam) * np.einsum("ja,jk->ka", st.eta, st.xi)
        + (sol.lam + sol.mu - 2 * n * beta**2)
        * np.einsum("a,k->ka", st.etabar, st.xibar)
    )
    cross = tensor_residual(lhs_op - rhs_op, (1,))
    return SolitonVerdict(
        residual, _classify(sol.lam), abs(sol.lam + sol.mu), cross
    )


def fit_soliton_constants(m: WeakFManifold, V: FieldSpec, sample):
    """Least-squares (lam, mu) of the soliton equation over several points."""
    points = [np.asarray(p, dtype=float) for p in sample]
    if len(points) < 2:
        raise ValueError("need at least two sample points")
    rows, targets = [], []
    for p in points:
        st, g, etaeta, ebar = _soliton_blocks(m, p)
        target = (
            0.5 * lie_derivative_metric(m.metric, V, p).components
            + star_ricci(m, p).components
        )
        rows.append(np.stack([(g - etaeta + ebar).ravel(), ebar.ravel()], axis=1))
        targets.append(target.ravel())
    design = np.vstack(rows)
    rhs = np.concatenate(targets)
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    lam, mu = float(coef[0]), float(coef[1])
    sol = SolitonData(lam=lam, mu=mu, V=V)
    residual = max(soliton_residual(m, sol, p).residual for p in points)
    return lam, mu, residual


def prop5_check(lam: float, mu: float, tol: float = TOLERANCES["prop5"]) -> Prop5Result:
    """Constants of a genuine soliton must satisfy lam + mu = 0."""
    gap = abs(lam + mu)
    cor3 = abs(lam) if mu == 0 else None
    return Prop5Result(gap <= tol, gap, cor3)


# ---------------------------------------------------------------------------
# contact fields


def contact_fit(m: WeakFManifold, V: FieldSpec, p) -> tuple[float, float]:
    """Least-squares sigma of L_V eta^i = sigma eta^i and the max-abs residual."""
    st = m.at(p)
    lie = np.stack(
        [lie_derivative_1form(m.eta[i], V, p).components for i in range(m.s)]
    )
    num = float(np.einsum("ia,ia->", lie, st.eta))
    den = float(np.einsum("ia,ia->", st.eta, st.eta))
    sigma = num / den if den > 0 else 0.0
    return sigma, float(np.abs(lie - sigma * st.eta).max())


def contact_field_check(
    m: WeakFManifold, V: FieldSpec, p, tol: float = TOLERANCES["contact.65"]
):
    """Decide whether L_V eta^i = sigma eta^i for a single constant sigma."""
    sigma, residual = contact_fit(m, V, p)
    is_contact = residual <= tol
    is_strict = is_contact and abs(sigma) <= tol
    return is_contact, sigma, is_strict


# ---------------------------------------------------------------------------
# Lie-derivative identity audit (report-only)


def lemma2_audit(m: WeakFManifold, sol: SolitonData, p) -> list[ResidualReport]:
    """Audit the three Lie-derivative identities of the soliton analysis.

    These reports document how the printed identities compare against
    direct numerical left-hand sides; they are informational and are
    never folded into pass/fail gates.
    """
    if sol.V is None:
        raise ValueError("lemma2_audit needs a vector-field potential")
    st = m.at(p)
    beta = m.beta_value(p)
    s, n = m.s, m.n
    dim = m.dim
    rs = st.geo.ric_sharp
    Q, Qt = st.Q, st.Qtilde
    xi, eta = st.xi, st.eta
    xibar, etabar = st.xibar, st.etabar
    eye = np.eye(dim)

    # (42): (L_V nabla)(X, xi_i) vs 2b Ric# QX + 4snb^3 QX + 2sb^3 Qt X + ...
    lie_nab = lie_derivative_connection(m.metric, sol.V, p).components  # [k, a, b]
    rhs42 = (
        2.0 * beta * rs @ Q
        + 4.0 * s * n * beta**3 * Q
        + 2.0 * s * beta**3 * Qt
        + 4.0 * n * beta**3
        * (np.einsum("a,k->ka", etabar, xibar) - s * np.einsum("ja,jk->ka", eta, xi))
    )
    res42 = max(
        float(np.abs(np.einsum("kab,b->ka", lie_nab, xi[i]) - rhs42).max())
        for i in range(s)
    )

    lie_r = lie_derivative_curvature(m.metric, sol.V, p).components  # [k, a, b, c]

    # (34): (L_V R)_{X,Y} xi_i vs the nabla-Ric# expression
    nab_rs = st.geo.nabla_ric_sharp  # [k, j, a]
    # (nabla_X Ric#)(QY) at X=a, Y=b is nrq[k, b, a]; antisymmetrize in (a, b)
    nrq = np.einsum("kja,jb->kba", nab_rs, Q)
    t_ab = np.einsum("kba->kab", nrq)
    term1 = 2.0 * beta * (t_ab - t_ab.transpose(0, 2, 1))
    rsy = rs  # Ric# e_b: [k, b]
    term2 = 2.0 * beta**2 * (
        np.einsum("a,kb->kab", etabar, rsy) - np.einsum("b,ka->kab", etabar, rsy)
    )
    rsqt = rs @ Qt
    term3 = 4.0 * beta**2 * (
        np.einsum("a,kb->kab", etabar, rsqt) - np.einsum("b,ka->kab", etabar, rsqt)
    )
    brk = eye + 2.0 * Qt - np.einsum("jb,jk->kb", eta, xi)  # [k, b]
    term4 = 4.0 * s * n * beta**4 * (
        np.einsum("a,kb->kab", etabar, brk) - np.einsum("b,ka->kab", etabar, brk)
    )
    rhs34 = term1 + term2 + term3 + term4
    res34 = max(
        float(np.abs(np.einsum("kabc,c->kab", lie_r, xi[i]) - rhs34).max())
        for i in range(s)
    )

    # (35): (L_V R)_{X, xi_j} xi_i = 0
    res35 = max(
        float(np.abs(np.einsum("kabc,b,c->ka", lie_r, xi[j], xi[i])).max())
        for i in range(s)
        for j in range(s)
    )

    return [
        ResidualReport.make("lemma2.42", st.point, res42),
        ResidualReport.make("lemma2.34", st.point, res34),
        ResidualReport.make("lemma2.35", st.point, res35),
    ]
