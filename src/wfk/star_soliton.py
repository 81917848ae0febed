"""*-Ricci tensor, *-eta-Einstein fits, and *-eta-Ricci-soliton checks.

The authoritative *-Ricci tensor is the definitional trace

    Ric*(X, Y) = (1/2) trace { Z -> f R_{X, fY} Z },

held as ``StructureAtPoint.ric_star`` (and r* as ``r_star``), which needs
only the structure axioms; the closed-form relation to the ordinary Ricci
tensor on the Kenmotsu class is a checked identity (``theorem4_residual``),
never an input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import ExprAst
from .geometry import (
    FieldSpec,
    gradient_and_hessian,
    lie_derivative_1form,
    lie_derivative_connection,
    lie_derivative_curvature,
    lie_derivative_metric,
)
from .kenmotsu import EinsteinFit
from .weakf import StructureAtPoint, WeakFManifold

__all__ = [
    "SolitonData",
    "SolitonVerdict",
    "theorem4_residual",
    "star_eta_einstein_fit",
    "corollary2_residual",
    "star_symmetry_gate",
    "soliton_residual",
    "gradient_soliton_residual",
    "fit_soliton_constants",
    "contact_fit",
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
    cross_residual: float


def _classify(lam: float) -> str:
    if lam < 0:
        return "expanding"
    if lam > 0:
        return "shrinking"
    return "steady"


# ---------------------------------------------------------------------------
# *-Ricci tensor


def star_symmetry_gate(st: StructureAtPoint):
    """(antisymmetry of Ric*, commutator norm of Q with the Ricci operator)."""
    ric_star = st.ric_star
    asym = st.residual(ric_star - np.swapaxes(ric_star, -1, -2))
    comm = st.residual(st.Q @ st.geo.ric_sharp - st.geo.ric_sharp @ st.Q)
    return asym, comm


def theorem4_residual(st: StructureAtPoint) -> dict:
    """Compare the definitional Ric* and r* against their Ricci expressions."""
    m = st.m
    beta = st.beta
    s, n = m.s, m.n
    g, Q = st.geo.g, st.Q

    ric_q = np.einsum("...am,...mb->...ab", st.geo.ric, Q)  # Ric(X, QY)
    gq = np.einsum("...ma,...mb->...ab", Q, g)  # g(QX, Y)
    rhs = ric_q + beta**2 * (
        s * (2 * n - 1) * gq + 2 * n * st.ebar - s * (2 * n - 1) * st.etaeta
    )
    rhs_scalar = np.trace(Q @ st.geo.ric_sharp, axis1=-2, axis2=-1) + beta**2 * (
        4 * s * n**2 + s * (2 * n - 1) * np.trace(st.Qtilde, axis1=-2, axis2=-1)
    )
    return {
        "thm4.28": st.residual(st.ric_star - rhs, (0, 1)),
        "thm4.29": np.abs(st.r_star - rhs_scalar),
    }


# ---------------------------------------------------------------------------
# *-eta-Einstein fit


def star_eta_einstein_fit(st: StructureAtPoint):
    """Fit Ric* = abar g + bbar sum_i eta^i (x) eta^i + (abar+bbar) sum_{i!=j}.

    Regrouped, the model is abar (g + sum_{i!=j} eta^i (x) eta^j) plus
    bbar etabar (x) etabar.  The predicted pair is (r*/2n, -r*/2n).
    """
    cross = np.einsum("...ia,...jb->...ab", st.eta, st.eta) - st.etaeta
    pred = st.r_star / (2.0 * st.m.n)
    return EinsteinFit.least_squares(st.ric_star, st.geo.g + cross, st.ebar, (pred, -pred))


def corollary2_residual(st: StructureAtPoint) -> dict:
    """Corollary 2, abar = -bbar = r*/(2n), one residual a point; vacuous (0)
    where the fit is poor."""
    fit = star_eta_einstein_fit(st)
    a_pred, b_pred = fit.predicted
    res = np.maximum(fit.residual, np.maximum(abs(fit.a - a_pred), abs(fit.b - b_pred)))
    return {"cor2": np.where(fit.residual <= _FIT_GATE, res, 0.0)}


# ---------------------------------------------------------------------------
# soliton residuals


def _check_star_symmetric(st: StructureAtPoint) -> None:
    asym, _ = star_symmetry_gate(st)
    if np.any(asym > _SYMMETRY_TOL):
        raise ValueError(
            f"the *-Ricci tensor is not symmetric at a sample point "
            f"(antisymmetric part {np.max(asym):.2e}); the soliton equation is undefined"
        )


def _cross_residual_33(st: StructureAtPoint, half_lie: np.ndarray, lam, mu) -> float:
    """Residual of the expanded soliton equation written through Ric and Q."""
    g, etaeta, ebar = st.geo.g, st.etaeta, st.ebar
    beta = st.beta
    s, n = st.m.s, st.m.n
    ric_q = np.einsum("...am,...mb->...ab", st.geo.ric, st.Q)
    gq = np.einsum("...ma,...mb->...ab", st.Q, g)
    k = s * (2 * n - 1) * beta**2
    rhs = (
        lam * g
        - k * gq
        + (k - lam) * etaeta
        + (lam + mu - 2 * n * beta**2) * ebar
    )
    return st.residual(half_lie + ric_q - rhs, (0, 1))


def soliton_residual(st: StructureAtPoint, sol: SolitonData) -> SolitonVerdict:
    """Residual of (1/2) L_V g + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x) etabar."""
    if sol.V is None:
        raise ValueError("soliton_residual needs a vector-field potential")
    if sol.V.dim != st.m.dim:
        raise ValueError("potential dimension does not match the manifold")
    _check_star_symmetric(st)
    half_lie = 0.5 * lie_derivative_metric(st.geo, st.jets_of(sol.V))
    lhs = half_lie + st.ric_star
    rhs = sol.lam * (st.geo.g - st.etaeta) + (sol.lam + sol.mu) * st.ebar
    residual = st.residual(lhs - rhs, (0, 1))
    cross = _cross_residual_33(st, half_lie, sol.lam, sol.mu)
    return SolitonVerdict(residual, _classify(sol.lam), cross)


def gradient_soliton_residual(st: StructureAtPoint, sol: SolitonData) -> SolitonVerdict:
    """Residual of Hess_v + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x) etabar."""
    if sol.v is None:
        raise ValueError("gradient_soliton_residual needs a potential function")
    _check_star_symmetric(st)
    _, hess = gradient_and_hessian(st.geo, st.jets_of(sol.v))
    lhs = hess + st.ric_star
    rhs = sol.lam * (st.geo.g - st.etaeta) + (sol.lam + sol.mu) * st.ebar
    residual = st.residual(lhs - rhs, (0, 1))

    # operator form: nabla_X grad v + Q Ric# X = lam X - s(2n-1) b^2 QX + ...
    m = st.m
    beta = st.beta
    s, n = m.s, m.n
    dim = m.dim
    k = s * (2 * n - 1) * beta**2
    hess_op = st.geo.ginv @ hess
    lhs_op = hess_op + st.Q @ st.geo.ric_sharp
    rhs_op = (
        sol.lam * np.eye(dim)
        - k * st.Q
        + (k - sol.lam) * np.einsum("...ja,...jk->...ka", st.eta, st.xi)
        + (sol.lam + sol.mu - 2 * n * beta**2)
        * np.einsum("...a,...k->...ka", st.etabar, st.xibar)
    )
    cross = st.residual(lhs_op - rhs_op, (1,))
    return SolitonVerdict(residual, _classify(sol.lam), cross)


def fit_soliton_constants(m: WeakFManifold, V: FieldSpec, sample):
    """Least-squares (lam, mu) of the soliton equation over several points."""
    points = [np.asarray(p, dtype=float) for p in sample]
    if len(points) < 2:
        raise ValueError("need at least two sample points")
    structures = list(m.structures(points))
    rows, targets = [], []
    for st in structures:
        target = 0.5 * lie_derivative_metric(st.geo, st.jets_of(V)) + st.ric_star
        g, ebar = st.geo.g, st.ebar
        rows.append(np.stack([(g - st.etaeta + ebar).ravel(), ebar.ravel()], axis=1))
        targets.append(target.ravel())
    design = np.vstack(rows)
    rhs = np.concatenate(targets)
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    lam, mu = float(coef[0]), float(coef[1])
    sol = SolitonData(lam=lam, mu=mu, V=V)
    residual = max(float(np.max(soliton_residual(st, sol).residual)) for st in structures)
    return lam, mu, residual


# ---------------------------------------------------------------------------
# contact fields


def contact_fit(st: StructureAtPoint, V: FieldSpec) -> tuple[float, float]:
    """Least-squares sigma of L_V eta^i = sigma eta^i and the max-abs residual."""
    v = st.jets_of(V)
    lie = np.stack(
        [
            lie_derivative_1form(st.geo, (eta, deta), v)
            for eta, deta in zip(np.moveaxis(st.eta, -2, 0), np.moveaxis(st.deta, -3, 0))
        ],
        axis=-2,
    )
    num = np.einsum("...ia,...ia->...", lie, st.eta)
    den = np.einsum("...ia,...ia->...", st.eta, st.eta)
    sigma = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return sigma[()], st.residual(lie - sigma[..., None, None] * st.eta)


# ---------------------------------------------------------------------------
# Lie-derivative identity audit (report-only)


def lemma2_audit(st: StructureAtPoint, sol: SolitonData) -> dict:
    """Audit the three Lie-derivative identities of the soliton analysis.

    These residuals document how the printed identities compare against
    direct numerical left-hand sides; they are informational and are
    never folded into pass/fail gates.
    """
    if sol.V is None:
        raise ValueError("lemma2_audit needs a vector-field potential")
    m = st.m
    beta = st.beta
    s, n = m.s, m.n
    dim = m.dim
    rs = st.geo.ric_sharp
    Q, Qt = st.Q, st.Qtilde
    xi, eta = st.xi, st.eta
    xibar, etabar = st.xibar, st.etabar
    eye = np.eye(dim)

    # (42): (L_V nabla)(X, xi_i) vs 2b Ric# QX + 4snb^3 QX + 2sb^3 Qt X + ...
    v = st.jets_of(sol.V)
    lie_nab = lie_derivative_connection(st.geo, v)  # [k, a, b]
    rhs42 = (
        2.0 * beta * rs @ Q
        + 4.0 * s * n * beta**3 * Q
        + 2.0 * s * beta**3 * Qt
        + 4.0 * n * beta**3
        * (
            np.einsum("...a,...k->...ka", etabar, xibar)
            - s * np.einsum("...ja,...jk->...ka", eta, xi)
        )
    )
    res42 = st.residual(np.einsum("...kab,...ib->...ika", lie_nab, xi) - rhs42[..., None, :, :])

    lie_r = lie_derivative_curvature(st.geo, v)  # [k, a, b, c]

    # (34): (L_V R)_{X,Y} xi_i vs the nabla-Ric# expression
    nab_rs = st.geo.nabla_ric_sharp  # [k, j, a]
    # (nabla_X Ric#)(QY) at X=a, Y=b is nrq[k, b, a]; antisymmetrize in (a, b)
    nrq = np.einsum("...kja,...jb->...kba", nab_rs, Q)
    t_ab = np.einsum("...kba->...kab", nrq)
    term1 = 2.0 * beta * (t_ab - np.swapaxes(t_ab, -1, -2))
    rsy = rs  # Ric# e_b: [k, b]
    term2 = 2.0 * beta**2 * (
        np.einsum("...a,...kb->...kab", etabar, rsy)
        - np.einsum("...b,...ka->...kab", etabar, rsy)
    )
    rsqt = rs @ Qt
    term3 = 4.0 * beta**2 * (
        np.einsum("...a,...kb->...kab", etabar, rsqt)
        - np.einsum("...b,...ka->...kab", etabar, rsqt)
    )
    brk = eye + 2.0 * Qt - np.einsum("...jb,...jk->...kb", eta, xi)  # [k, b]
    term4 = 4.0 * s * n * beta**4 * (
        np.einsum("...a,...kb->...kab", etabar, brk)
        - np.einsum("...b,...ka->...kab", etabar, brk)
    )
    rhs34 = term1 + term2 + term3 + term4
    lie_r_xi = np.einsum("...kabc,...ic->...ikab", lie_r, xi)
    res34 = st.residual(lie_r_xi - rhs34[..., None, :, :, :])

    # (35): (L_V R)_{X, xi_j} xi_i = 0
    res35 = st.residual(np.einsum("...ikab,...jb->...ijka", lie_r_xi, xi))

    return {"lemma2.42": res42, "lemma2.34": res34, "lemma2.35": res35}
