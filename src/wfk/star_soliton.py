"""*-Ricci tensor, eta-Einstein fits of Ric and Ric*, and *-eta-Ricci-soliton checks.

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
vanish, which ``wfk.checks`` measures.  The eta-Einstein fits return the
arrays ``(a, b, residual)``; they and ``contact_fit`` fit by
``wfk.weakf.least_squares``.  (33) and the operator form of (75) are
transcribed as printed, not derived from (32), so their coefficients are
checked too; grad.75 stacks the two forms of (75), so its residual is the
larger of theirs.  The soliton checks read the model's soliton
(``WeakFManifold.soliton``), whose type depends on lambda alone
(``SolitonData.classification``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InputError
from .expr import Tape
from .geometry import (
    contract,
    gradient_and_hessian,
    lie_derivative_1form,
    lie_derivative_connection,
    lie_derivative_curvature,
    lie_derivative_metric,
)
from .weakf import StructureAtPoint, least_squares, tensor_residual

__all__ = [
    "SolitonData",
    "theorem4_residual",
    "eta_einstein_fit",
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
    V: Tape | None = None
    v: Tape | None = None

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
# eta-Einstein fits of Ric and Ric*


def _eta_einstein(st: StructureAtPoint, ric: np.ndarray):
    """(a, b, residual) of the least-squares fit ric = a (H + etabar (x) etabar)
    + b etabar (x) etabar, of the mixed tensors: every term raised by g^-1, so
    that where g is large its column does not sink below rounding; residual
    is the fit's :func:`tensor_residual`."""
    ginv = st.geo.ginv
    a, b, rest = least_squares(ginv @ ric, ginv @ (st.H + st.ebar), ginv @ st.ebar, lead=st.lead)
    return a, b, tensor_residual(rest, st.lead)


def eta_einstein_fit(st: StructureAtPoint):
    """(a, b, residual) of Ric = a g - a sum eta (x) eta + (a+b) etabar (x) etabar."""
    return _eta_einstein(st, st.geo.ric)


def star_eta_einstein_fit(st: StructureAtPoint):
    """(abar, bbar, residual) of Ric* = abar g + bbar sum_i eta^i (x) eta^i +
    (abar+bbar) sum_{i!=j} eta^i (x) eta^j.

    Regrouped, the model is abar (H + etabar (x) etabar), that is abar (g +
    sum_{i!=j} eta^i (x) eta^j), plus bbar etabar (x) etabar.
    """
    return _eta_einstein(st, st.ric_star)


def corollary2_residual(st: StructureAtPoint) -> dict:
    """Corollary 2, abar = -bbar = r*/(2n), one residual a point, from the fit of
    the mixed tensor g^-1 Ric* (any metric scale); vacuous (0) where it is poor."""
    a, b, residual = star_eta_einstein_fit(st)
    pred = st.r_star / (2.0 * st.m.n)
    res = np.maximum(residual, np.maximum(abs(a - pred), abs(b + pred)))
    return {"cor2": np.where(residual <= _FIT_GATE, res, 0.0)}


# ---------------------------------------------------------------------------
# soliton residuals


def _check_star_symmetric(st: StructureAtPoint) -> None:
    asym = tensor_residual(_asymmetry(st), st.lead)
    if np.any(asym > _SYMMETRY_TOL):
        raise InputError(
            f"the *-Ricci tensor is not symmetric at a sample point "
            f"(antisymmetric part {np.max(asym):.2e}); the soliton equation is undefined"
        )


def _soliton_rhs(st: StructureAtPoint, lam: float, mu: float) -> np.ndarray:
    """lam H + (lam+mu) etabar (x) etabar, of (32) and (75)."""
    return lam * st.H + (lam + mu) * st.ebar


def soliton_residual(st: StructureAtPoint) -> dict:
    """(32), (1/2) L_V g + Ric* = lam {g - sum eta (x) eta} + (lam+mu) etabar (x)
    etabar, and (33), the same equation written through Ric and Q:
    ``{"soliton.32": tensor, "soliton.33": tensor}``."""
    _check_star_symmetric(st)
    half_lie = 0.5 * lie_derivative_metric(st.geo, st.potential)
    lam, mu = st.m.soliton.lam, st.m.soliton.mu
    beta, s, n = st.m.beta, st.m.s, st.m.n
    k = s * (2 * n - 1) * beta**2
    rhs33 = (
        lam * st.H
        - k * (contract("...ma,...mb->...ab", st.Q, st.geo.g) - st.etaeta)
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
    rhs_op = lam * st.P - k * (st.Q - st.etaxi) + (lam + mu - 2 * n * beta**2) * st.xebar
    return {"grad.75": np.stack((tensor_form, lhs_op - rhs_op), axis=-3)}


# ---------------------------------------------------------------------------
# contact fields


def contact_fit(st: StructureAtPoint) -> dict:
    """``{"contact.65": L_V eta^i - sigma eta^i}`` with sigma fitted by least squares."""
    # the eta^i with their index first, so that they broadcast over the batch axes
    eta = (np.moveaxis(st.eta, -2, 0), np.moveaxis(st.deta, -3, 0))
    lie = np.moveaxis(lie_derivative_1form(st.geo, eta, st.potential), 0, -2)
    return {"contact.65": least_squares(lie, st.eta, lead=st.lead)[-1]}


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

    # (42): (L_V nabla)(X, xi_i) vs 2b Ric# QX + 4snb^3 QX + 2sb^3 Qt X + ...
    v = st.potential
    lie_nab = lie_derivative_connection(st.geo, v)  # [k, a, b]
    rhs42 = (
        2.0 * beta * rs @ Q
        + 4.0 * s * n * beta**3 * Q
        + 2.0 * s * beta**3 * Qt
        + 4.0 * n * beta**3 * (st.xebar - s * st.etaxi)
    )
    res42 = contract("...kab,...ib->...ika", lie_nab, xi) - rhs42[..., None, :, :]

    lie_r = lie_derivative_curvature(st.geo, v)  # [k, a, b, c]

    # (34): (L_V R)_{X,Y} xi_i vs the nabla-Ric# expression, u(X, Y) - u(Y, X)
    # with u(X, Y) = 2b (nabla_X Ric#)(QY) + etabar(X) {2b^2 Ric# + 4b^2 Ric# Qt
    # + 4snb^4 (P + 2Qt)} Y
    nrq = contract("...kja,...jb->...kba", st.geo.nabla_ric_sharp, Q)  # [k, b, a]
    op = 2.0 * beta**2 * rs + 4.0 * beta**2 * (rs @ Qt) + 4.0 * s * n * beta**4 * (st.P + 2.0 * Qt)
    u = 2.0 * beta * np.swapaxes(nrq, -1, -2) + np.einsum("...a,...kb->...kab", st.etabar, op)
    rhs34 = u - np.swapaxes(u, -1, -2)
    lie_r_xi = contract("...kabc,...ic->...ikab", lie_r, xi)
    res34 = lie_r_xi - rhs34[..., None, :, :, :]

    # (35): (L_V R)_{X, xi_j} xi_i = 0
    res35 = contract("...ikab,...jb->...ijka", lie_r_xi, xi)

    return {"lemma2.42": res42, "lemma2.34": res34, "lemma2.35": res35}
