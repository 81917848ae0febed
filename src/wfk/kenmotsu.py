"""Weak Kenmotsu-type structures: defining condition, audits, builders.

The defining condition for the beta-Kenmotsu class is

    (nabla_X f) Y = beta { g(fX, Y) xibar - etabar(Y) fX },

with the beta = 0 case (parallel f) playing the role of a C-manifold.
``build_example2`` writes the manifest of the standard explicit chart model
(metric diag(e^{2 beta xbar}) on the contact block); the twisted-product
builder writes that of dt^2 (+) sigma^2 gbar over a fiber of flat R^2
factors, and its audit reads identities (14) and (15) with beta_i =
xi_i(log sigma).  ``wfk.cli.manifold_from_manifest`` makes either a model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import parse_expression
from .geometry import contract
from .weakf import StructureAtPoint, tensor_residual

__all__ = [
    "EinsteinFit",
    "IDENTITY_IDS",
    "kenmotsu_residual",
    "audit_identities",
    "build_example2",
    "build_twisted_product",
    "twisted_product_audit",
    "eta_einstein_fit",
]


@dataclass(frozen=True)
class EinsteinFit:
    """Least-squares coefficients of the eta-Einstein model for Ric, at a
    point or (as arrays) at each point of a chunk."""

    a: float
    b: float
    residual: float
    predicted: tuple[float, float] | None = None  # Kenmotsu closed form, if known

    @classmethod
    def least_squares(cls, target, col_a, col_b, predicted=None) -> "EinsteinFit":
        """Least-squares (a, b) of target = a col_a + b col_b for 2-tensors
        with any batch axes in front; residual is :func:`tensor_residual`."""
        batch = target.shape[:-2]
        design = np.stack([col_a, col_b], axis=-1).reshape(batch + (-1, 2))
        # the cutoff np.linalg.lstsq uses, on a stack of designs
        pinv = np.linalg.pinv(design, rcond=np.finfo(float).eps * design.shape[-2])
        coef = (pinv @ target.reshape(batch + (-1, 1)))[..., 0]
        a, b = coef[..., 0], coef[..., 1]
        fitted = a[..., None, None] * col_a + b[..., None, None] * col_b
        residual = tensor_residual(target - fitted, len(batch))
        return cls(a[()], b[()], residual, predicted)


# ---------------------------------------------------------------------------
# defining condition


def kenmotsu_residual(st: StructureAtPoint) -> dict:
    """The defining nabla-f condition, ``{"kenmotsu.12": tensor}``:
    (nabla_a f)^k_b - beta { (f^m_a g_mb) xibar^k - etabar_b f^k_a }."""
    gf = contract("...ma,...mb->...ab", st.f, st.geo.g)
    rhs = st.m.beta * (
        np.einsum("...ab,...k->...kba", gf, st.xibar)
        - np.einsum("...b,...ka->...kba", st.etabar, st.f)
    )
    return {"kenmotsu.12": st.nabla_f - rhs}  # [k, b, a]


# ---------------------------------------------------------------------------
# identity audit


def _bracket(st: StructureAtPoint) -> np.ndarray:
    """[k, a] = (s id - s sum_j eta^j (x) xi_j + etabar (x) xibar) e_a."""
    s = st.m.s
    return (
        s * np.eye(st.m.dim)
        - s * st.etaxi
        + np.einsum("...a,...k->...ka", st.etabar, st.xibar)
    )


def _bracket_form(st: StructureAtPoint) -> np.ndarray:
    """[a, b] = s g - s sum_j eta^j (x) eta^j + etabar (x) etabar."""
    s = st.m.s
    return s * st.geo.g - s * st.etaeta + st.ebar


def _id13(st: StructureAtPoint, beta: float) -> np.ndarray:
    return contract("...ja,...ika->...ijk", st.xi, st.nabla_xi)


def _id14(st: StructureAtPoint, beta) -> np.ndarray:
    # beta is a number, or one rate per Reeb field (..., s) as the twisted audit passes
    rate = np.asarray(beta)[..., None, None]
    return st.nabla_xi - rate * (np.eye(st.m.dim) - st.etaxi)[..., None, :, :]


def _id15(st: StructureAtPoint, beta) -> np.ndarray:
    # (nabla_a eta^i)_b = d_a eta^i_b - G^m_ab eta^i_m
    nab = np.swapaxes(st.deta, -1, -2) - contract(
        "...mab,...im->...iab", st.geo.gamma, st.eta
    )
    return nab - np.asarray(beta)[..., None, None] * (st.geo.g - st.etaeta)[..., None, :, :]


def _id16(st: StructureAtPoint, beta: float) -> np.ndarray:
    Qt = st.Qtilde
    gqt = contract("...ma,...mb->...ab", Qt, st.geo.g)
    rhs = -beta * (
        np.einsum("...b,...ka->...kba", st.etabar, Qt)
        + np.einsum("...ab,...k->...kba", gqt, st.xibar)
    )
    return st.nabla_Q - rhs  # [k, b, a]


def _id18(st: StructureAtPoint, beta: float) -> np.ndarray:
    # (L_xi_i g)_ab = g(nabla_a xi_i, e_b) + g(e_a, nabla_b xi_i)
    lie = st.geo.g[..., None, :, :] @ st.nabla_xi  # [i, b, a] = g(nabla_a xi_i, e_b)
    lie = lie + np.swapaxes(lie, -1, -2)
    return lie - (2.0 * beta * (st.geo.g - st.etaeta))[..., None, :, :]


def _id19(st: StructureAtPoint, beta: float) -> np.ndarray:
    eye, etabar = np.eye(st.m.dim), st.etabar
    lhs = contract("...labm,...im->...ilab", st.geo.riem, st.xi)
    rhs = beta**2 * (
        np.einsum("...a,lb->...lab", etabar, eye)
        - np.einsum("...b,la->...lab", etabar, eye)
        + np.einsum("...b,...la->...lab", etabar, st.etaxi)
        - np.einsum("...a,...lb->...lab", etabar, st.etaxi)
    )
    return lhs - rhs[..., None, :, :, :]


def _id20(st: StructureAtPoint, beta: float) -> np.ndarray:
    lhs = contract("...km,...im->...ik", st.geo.ric_sharp, st.xi)
    return lhs - (-2.0 * st.m.n * beta**2 * st.xibar)[..., None, :]


def _id21(st: StructureAtPoint, beta: float) -> np.ndarray:
    rhs = -2.0 * beta * st.geo.ric_sharp - 4.0 * st.m.n * beta**3 * _bracket(st)
    nab = st.geo.nabla_ric_sharp  # [k, j, a]
    return contract("...kja,...ia->...ikj", nab, st.xi) - rhs[..., None, :, :]


def _id22(st: StructureAtPoint, beta: float) -> np.ndarray:
    s, n = st.m.s, st.m.n
    rhs = -2.0 * beta * (st.geo.scalar + 2.0 * s * n * (2 * n + 1) * beta**2)
    # xi_i(scal) with the field index i first, so it broadcasts over the batch axes
    return np.moveaxis(st.geo.scalar_derivative(np.moveaxis(st.xi, -2, 0)) - rhs, 0, -1)


def _id23(st: StructureAtPoint, beta: float) -> np.ndarray:
    rhs = -beta * st.geo.ric_sharp - 2.0 * st.m.n * beta**3 * _bracket(st)
    nab = st.geo.nabla_ric_sharp  # [k, j, a]
    return contract("...kja,...ij->...ika", nab, st.xi) - rhs[..., None, :, :]


def _id26(st: StructureAtPoint, beta: float) -> np.ndarray:
    riem, f = st.geo.riem, st.f
    lhs = riem @ f[..., None, None, :, :] - contract("...lm,...mabc->...labc", f, riem)
    sg, brk = _bracket_form(st), _bracket(st)
    gf = contract("...ma,...mb->...ab", f, st.geo.g)  # g(f e_a, e_b)
    rhs = beta**2 * (
        np.einsum("...bc,...la->...labc", sg, f)
        - np.einsum("...ac,...lb->...labc", sg, f)
        + np.einsum("...ca,...lb->...labc", gf, brk)  # g(X, fZ) = g(f e_c, e_a)
        - np.einsum("...cb,...la->...labc", gf, brk)
    )
    return lhs - rhs


def _id27(st: StructureAtPoint, beta: float) -> np.ndarray:
    s = st.m.s
    riem, f, g, Q = st.geo.riem, st.f, st.geo.g, st.Q
    xibar, etabar = st.xibar, st.etabar
    # f f R by two pairwise dim^5 contractions, not one dim^6 loop
    lhs = contract("...jb,...lajc->...labc", f, contract("...ia,...lijc->...lajc", f, riem))
    lhs -= contract("...jb,...lajc->...labc", Q, riem)
    gq = contract("...mb,...mc->...bc", Q, g)  # g(e_c, Q e_b)
    sgl = _bracket_form(st)  # s g(Z,X) - s sum + etabar(Z) etabar(X) at [c, a]
    gfz = contract("...ma,...mc->...ca", f, g)  # g(Z, fX) at [c, a]
    tail = (
        np.einsum("...c,la->...lac", etabar, np.eye(st.m.dim))
        - np.einsum("...ca,...l->...lac", g, xibar)
        + np.einsum("...ac,...l->...lac", st.etaeta, xibar)
        - np.einsum("...la,...c->...lac", st.etaxi, etabar)
    )  # [l, a, c]: etabar(Z) X - g(Z,X) xibar + sum_j eta^j(X){eta^j(Z) xibar - etabar(Z) xi_j}
    rhs = beta**2 * (
        np.einsum("...bc,...ka->...kabc", gq - st.etaeta, _bracket(st))
        - np.einsum("...ca,...kb->...kabc", sgl, Q - st.etaxi)  # QY - sum eta^j(Y) xi_j
        + s * np.einsum("...ca,...kb->...kabc", gfz, f)
        - s * np.einsum("...cb,...ka->...kabc", gfz, f)
        + np.einsum("...b,...lac->...labc", etabar, tail)
    )
    return lhs - rhs


def _id44(st: StructureAtPoint, beta: float) -> np.ndarray:
    xibar, etabar = st.xibar, st.etabar
    lhs = contract("...lajc,...ij->...ilac", st.geo.riem, st.xi)  # R_{X, xi_i} Z
    rhs = beta**2 * (
        np.einsum("...ac,...l->...lac", st.geo.g, xibar)
        - np.einsum("...c,la->...lac", etabar, np.eye(st.m.dim))
        + np.einsum("...la,...c->...lac", st.etaxi, etabar)
        - np.einsum("...ac,...l->...lac", st.etaeta, xibar)
    )
    return lhs - rhs[..., None, :, :, :]


# identity id -> residual tensor of that identity at a point
_IDENTITIES = {
    "13": _id13, "14": _id14, "15": _id15, "16": _id16, "18": _id18,
    "19": _id19, "20": _id20, "21": _id21, "22": _id22, "23": _id23,
    "26": _id26, "27": _id27, "44": _id44,
}
IDENTITY_IDS = tuple(_IDENTITIES)


def audit_identities(st: StructureAtPoint) -> dict:
    """The curvature/connection identity catalogue, ``{"id.N": tensor}``."""
    return {f"id.{i}": _IDENTITIES[i](st, st.m.beta) for i in IDENTITY_IDS}


# ---------------------------------------------------------------------------
# builders


def _entry(v: float) -> int | float:
    """``v`` as a manifest entry: an int where it is integral below 1e16 (past
    it a float is written with its exponent), else the float."""
    v = float(v)
    return int(v) if v.is_integer() and abs(v) < 1e16 else v


def _rows(a: np.ndarray) -> list:
    return [[_entry(x) for x in row] for row in a.tolist()]


def _diagonal(entries) -> list:
    """The lower triangle of the metric diag(entries), as a manifest writes it."""
    return [[0] * i + [e] for i, e in enumerate(entries)]


def build_example2(n: int, s: int, beta: float, c: float) -> dict:
    """Explicit chart model: metric diag(e^{2 beta xbar} 1_{2n}, 1_s).

    f rotates the contact block with scale sqrt(1+c), Q = (1+c) id on the
    contact block; c = 0 reduces to the classical metric f-structure.
    Returns the model's manifest, without its version tag.
    """
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if beta == 0:
        raise ValueError("the Kenmotsu coefficient must be nonzero")
    if c < 0:
        raise ValueError("the structure deformation c must be >= 0")
    dim = 2 * n + s
    xbar = "+".join(f"x{2 * n + p + 1}" for p in range(s))
    if 2.0 * beta != 1.0:  # manifests write no factor 1
        xbar = f"{_entry(2.0 * beta)}*" + (f"({xbar})" if s > 1 else xbar)

    i, root = np.arange(n), np.sqrt(1.0 + c)
    f = np.zeros((dim, dim))
    f[n + i, i], f[i, n + i] = root, -root
    q = np.diag([1.0 + c] * (2 * n) + [1.0] * s)
    reeb = np.eye(dim)[2 * n:]
    return {
        "n": n, "s": s, "beta": float(beta), "c": float(c), "dim": dim,
        "metric": _diagonal([f"exp({xbar})"] * (2 * n) + [1] * s),
        "f": _rows(f), "Q": _rows(q), "xi": _rows(reeb), "eta": _rows(reeb),
    }


def build_twisted_product(scales, s: int, sigma: str) -> dict:
    """Assemble dt^2 (+) sigma^2 gbar over flat R^2 factors, with f the
    fiber's J (J = c_k times the rotation by 90 degrees on the k-th factor).

    ``sigma`` is expression source over the full chart (the fiber occupies
    x1..x_{2n}; t-coordinates follow), written into the manifest as given.
    Q is -J^2 on the fiber and 1 on the Reeb block, so that the structure
    axioms hold by construction up to rounding, which grows as the cube of
    the largest scale; ``wfk twisted`` checks them at the origin.  beta is
    inferred as d(log sigma)/dt_1 at the origin.  Returns the model's
    manifest, without its version tag.
    """
    if s < 1 or len(scales) < 1:
        raise ValueError("need s >= 1 and at least one factor scale")
    if not all(scales):
        raise ValueError("factor scales must be nonzero")
    n = len(scales)
    two_n, dim = 2 * n, 2 * n + s
    value, grad = parse_expression(sigma, dim).jets(np.zeros(dim), order=1)
    if value <= 0:
        raise ValueError("sigma must be positive")

    f = np.zeros((dim, dim))
    for k, c in enumerate(scales):
        f[2 * k + 1, 2 * k], f[2 * k, 2 * k + 1] = c, -c
    # a scale past 1e154 squares to inf, a number the manifest's validator rejects
    with np.errstate(over="ignore"):
        q = -(f @ f)
    q[two_n:, two_n:] = np.eye(s)
    reeb = np.eye(dim)[two_n:]
    return {
        "n": n, "s": s, "beta": float(grad[two_n] / value), "c": None, "dim": dim,
        "metric": _diagonal([f"({sigma})^2"] * two_n + [1] * s),
        "f": _rows(f), "Q": _rows(q), "xi": _rows(reeb), "eta": _rows(reeb),
        "sigma": sigma,
    }


def twisted_product_audit(st: StructureAtPoint) -> dict:
    """Connection relations of the twisted product.  (i) and (ii) are identities
    (14) and (15) with beta_i = xi_i(log sigma) in place of beta, in any chart;
    (iii), the leaf metric's Christoffels, reads the builder's chart (fiber x1..x2n)."""
    m = st.m
    sigma, dsigma = m.sigma.jets(st.point, 1)
    low = np.reshape(~(sigma > 0), -1)  # jets are finite, so only sign and underflow
    if low.any():
        q = st.point.reshape(-1, m.dim)[np.argmax(low)]
        raise ValueError(f"sigma is not positive at point {q.tolist()}")
    rate = contract("...ia,...a->...i", st.xi, dsigma / sigma[..., None])

    # (iii): fiber components of nabla_X Y equal the Christoffels of the
    # induced leaf metric (t frozen), i.e. drop all t-derivatives; the fiber
    # block of the Christoffel core reads only fiber derivatives of fiber entries
    two_n = 2 * m.n
    ghat_inv = np.linalg.inv(st.geo.g[..., :two_n, :two_n])
    core = st.geo.core[..., :two_n, :two_n, :two_n]
    gam_hat = 0.5 * contract("...kl,...lij->...kij", ghat_inv, core)
    return {
        "twisted.i": _id14(st, rate),
        "twisted.ii": _id15(st, rate),
        "twisted.iii": st.geo.gamma[..., :two_n, :two_n, :two_n] - gam_hat,
    }


# ---------------------------------------------------------------------------
# eta-Einstein fit


def eta_einstein_fit(st: StructureAtPoint) -> EinsteinFit:
    """Least-squares (a, b) of Ric = a g - a sum eta (x) eta + (a+b) etabar (x) etabar."""
    m = st.m
    predicted = None
    if m.beta is not None:
        a_pred = m.s * m.beta**2 + st.geo.scalar / (2.0 * m.n)
        b_pred = -2.0 * m.n * m.beta**2 - a_pred
        predicted = (a_pred, b_pred)
    col_a = st.geo.g - st.etaeta + st.ebar
    return EinsteinFit.least_squares(st.geo.ric, col_a, st.ebar, predicted)
