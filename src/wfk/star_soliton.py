"""*-Ricci tensor, *-eta-Einstein fits, and *-eta-Ricci-soliton checks.

The authoritative *-Ricci tensor is the definitional trace

    Ric*(X, Y) = (1/2) trace { Z -> f R_{X, fY} Z },

held as ``StructureAtPoint.ric_star`` (and r* as ``r_star``), which needs
only the structure axioms.  It is computed from the metric's second jets:
``Geometry.ric_star`` forms it from g^-1, Gamma, dg and d2g (f g^-1 against
a view of d2g, and Gamma terms of dim^3), so the Riemann tensor is never
built for it.  The closed-form relation to the ordinary Ricci
tensor on the Kenmotsu class is a checked identity (``theorem4_residual``),
never an input.

Every check here returns ``{check id: tensor}``, the tensor that must
vanish, which ``wfk.checks`` measures.  (33) and the operator form of (75)
are transcribed as printed, not derived from (32), so their coefficients
are checked too; grad.75 stacks the two forms of (75), so its residual is
the larger of theirs.  The soliton checks read the model's soliton
(``WeakFManifold.soliton``), whose type depends on lambda alone
(``SolitonData.classification``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import ExprAst
from .geometry import (
    FieldSpec,
    contract,
    gradient_and_hessian,
    lie_derivative_1form,
    lie_derivative_connection,
    lie_derivative_curvature,
    lie_derivative_metric,
)
from .kenmotsu import EinsteinFit
from .weakf import StructureAtPoint, tensor_residual

__all__ = [
    "SolitonData",
    "theorem4_residual",
    "star_eta_einstein_fit",
    "corollary2_residual",
    "star_symmetry_gate",
    "soliton_residual",
    "gradient_soliton_residual",
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

    @property
    def classification(self) -> str:
        """The soliton's type by the sign of lambda."""
        if self.lam < 0:
            return "expanding"
        return "shrinking" if self.lam > 0 else "steady"


# ---------------------------------------------------------------------------
# *-Ricci tensor


def _asymmetry(st: StructureAtPoint) -> np.ndarray:
    """Ric* minus its transpose."""
    return st.ric_star - np.swapaxes(st.ric_star, -1, -2)


def star_symmetry_gate(st: StructureAtPoint) -> dict:
    """``{"star.def": tensor}``: the antisymmetric part of Ric* and the
    commutator of Q with the Ricci operator, stacked."""
    rs = st.geo.ric_sharp
    return {"star.def": np.stack((_asymmetry(st), st.Q @ rs - rs @ st.Q), axis=-3)}


def theorem4_residual(st: StructureAtPoint) -> dict:
    """Compare the definitional Ric* and r* against their Ricci expressions."""
    m = st.m
    beta = m.beta
    s, n = m.s, m.n
    g, Q = st.geo.g, st.Q

    ric_q = st.geo.ric @ Q  # Ric(X, QY)
    gq = contract("...ma,...mb->...ab", Q, g)  # g(QX, Y)
    rhs = ric_q + beta**2 * (
        s * (2 * n - 1) * gq + 2 * n * st.ebar - s * (2 * n - 1) * st.etaeta
    )
    rhs_scalar = np.trace(Q @ st.geo.ric_sharp, axis1=-2, axis2=-1) + beta**2 * (
        4 * s * n**2 + s * (2 * n - 1) * np.trace(st.Qtilde, axis1=-2, axis2=-1)
    )
    return {"thm4.28": st.ric_star - rhs, "thm4.29": st.r_star - rhs_scalar}


# ---------------------------------------------------------------------------
# *-eta-Einstein fit


def star_eta_einstein_fit(st: StructureAtPoint):
    """Fit Ric* = abar g + bbar sum_i eta^i (x) eta^i + (abar+bbar) sum_{i!=j}.

    Regrouped, the model is abar (g + sum_{i!=j} eta^i (x) eta^j) plus
    bbar etabar (x) etabar.  The predicted pair is (r*/2n, -r*/2n).
    """
    cross = st.ebar - st.etaeta  # sum_{i!=j} eta^i (x) eta^j
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
    asym = tensor_residual(_asymmetry(st), st.lead)
    if np.any(asym > _SYMMETRY_TOL):
        raise ValueError(
            f"the *-Ricci tensor is not symmetric at a sample point "
            f"(antisymmetric part {np.max(asym):.2e}); the soliton equation is undefined"
        )


def _soliton_rhs(st: StructureAtPoint, lam: float, mu: float) -> np.ndarray:
    """lam {g - sum eta (x) eta} + (lam+mu) etabar (x) etabar, of (32) and (75)."""
    return lam * (st.geo.g - st.etaeta) + (lam + mu) * st.ebar


def soliton_residual(st: StructureAtPoint) -> dict:
    """(32), (1/2) L_V g + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x)
    etabar, and (33), the same equation written through Ric and Q:
    ``{"soliton.32": tensor, "soliton.33": tensor}``."""
    _check_star_symmetric(st)
    half_lie = 0.5 * lie_derivative_metric(st.geo, st.potential)
    lam, mu = st.m.soliton.lam, st.m.soliton.mu
    beta, s, n = st.m.beta, st.m.s, st.m.n
    g = st.geo.g
    k = s * (2 * n - 1) * beta**2
    rhs33 = (
        lam * g
        - k * contract("...ma,...mb->...ab", st.Q, g)
        + (k - lam) * st.etaeta
        + (lam + mu - 2 * n * beta**2) * st.ebar
    )
    return {
        "soliton.32": half_lie + st.ric_star - _soliton_rhs(st, lam, mu),
        "soliton.33": half_lie + st.geo.ric @ st.Q - rhs33,
    }


def gradient_soliton_residual(st: StructureAtPoint) -> dict:
    """(75), Hess_v + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x)
    etabar, and its operator form, stacked: ``{"grad.75": tensor}``."""
    _check_star_symmetric(st)
    _, hess = gradient_and_hessian(st.geo, st.potential)
    lam, mu = st.m.soliton.lam, st.m.soliton.mu
    tensor_form = hess + st.ric_star - _soliton_rhs(st, lam, mu)

    # operator form: nabla_X grad v + Q Ric# X = lam X - s(2n-1) b^2 QX + ...
    beta, s, n = st.m.beta, st.m.s, st.m.n
    k = s * (2 * n - 1) * beta**2
    lhs_op = st.geo.ginv @ hess + st.Q @ st.geo.ric_sharp
    rhs_op = (
        lam * np.eye(st.m.dim)
        - k * st.Q
        + (k - lam) * st.etaxi
        + (lam + mu - 2 * n * beta**2)
        * np.einsum("...a,...k->...ka", st.etabar, st.xibar)
    )
    return {"grad.75": np.stack((tensor_form, lhs_op - rhs_op), axis=-3)}


# ---------------------------------------------------------------------------
# contact fields


def contact_fit(st: StructureAtPoint) -> dict:
    """``{"contact.65": L_V eta^i - sigma eta^i}`` with sigma fitted by least squares."""
    # the eta^i with their index first, so that they broadcast over the batch axes
    eta = (np.moveaxis(st.eta, -2, 0), np.moveaxis(st.deta, -3, 0))
    lie = np.moveaxis(lie_derivative_1form(st.geo, eta, st.potential), 0, -2)
    num = contract("...ia,...ia->...", lie, st.eta)
    den = contract("...ia,...ia->...", st.eta, st.eta)
    sigma = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return {"contact.65": lie - sigma[..., None, None] * st.eta}


# ---------------------------------------------------------------------------
# Lie-derivative identity audit (report-only)


def lemma2_audit(st: StructureAtPoint) -> dict:
    """Audit the three Lie-derivative identities of the soliton analysis.

    These tensors document how the printed identities compare against
    direct numerical left-hand sides; they are informational and are
    never folded into pass/fail gates.
    """
    beta, s, n = st.m.beta, st.m.s, st.m.n
    rs = st.geo.ric_sharp
    Q, Qt = st.Q, st.Qtilde
    xi = st.xi
    xibar, etabar = st.xibar, st.etabar
    eye = np.eye(st.m.dim)

    # (42): (L_V nabla)(X, xi_i) vs 2b Ric# QX + 4snb^3 QX + 2sb^3 Qt X + ...
    v = st.potential
    lie_nab = lie_derivative_connection(st.geo, v)  # [k, a, b]
    rhs42 = (
        2.0 * beta * rs @ Q
        + 4.0 * s * n * beta**3 * Q
        + 2.0 * s * beta**3 * Qt
        + 4.0 * n * beta**3
        * (np.einsum("...a,...k->...ka", etabar, xibar) - s * st.etaxi)
    )
    res42 = contract("...kab,...ib->...ika", lie_nab, xi) - rhs42[..., None, :, :]

    lie_r = lie_derivative_curvature(st.geo, v)  # [k, a, b, c]

    # (34): (L_V R)_{X,Y} xi_i vs the nabla-Ric# expression
    nab_rs = st.geo.nabla_ric_sharp  # [k, j, a]
    # (nabla_X Ric#)(QY) at X=a, Y=b is nrq[k, b, a]; antisymmetrize in (a, b)
    nrq = contract("...kja,...jb->...kba", nab_rs, Q)
    t_ab = np.einsum("...kba->...kab", nrq)
    term1 = 2.0 * beta * (t_ab - np.swapaxes(t_ab, -1, -2))
    term2 = 2.0 * beta**2 * (
        np.einsum("...a,...kb->...kab", etabar, rs)  # Ric# e_b: [k, b]
        - np.einsum("...b,...ka->...kab", etabar, rs)
    )
    rsqt = rs @ Qt
    term3 = 4.0 * beta**2 * (
        np.einsum("...a,...kb->...kab", etabar, rsqt)
        - np.einsum("...b,...ka->...kab", etabar, rsqt)
    )
    brk = eye + 2.0 * Qt - st.etaxi  # [k, b]
    term4 = 4.0 * s * n * beta**4 * (
        np.einsum("...a,...kb->...kab", etabar, brk)
        - np.einsum("...b,...ka->...kab", etabar, brk)
    )
    rhs34 = term1 + term2 + term3 + term4
    lie_r_xi = contract("...kabc,...ic->...ikab", lie_r, xi)
    res34 = lie_r_xi - rhs34[..., None, :, :, :]

    # (35): (L_V R)_{X, xi_j} xi_i = 0
    res35 = contract("...ikab,...jb->...ijka", lie_r_xi, xi)

    return {"lemma2.42": res42, "lemma2.34": res34, "lemma2.35": res35}
