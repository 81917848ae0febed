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

import numpy as np

from . import InputError
from .expr import compile_tape, parse_expression
from .geometry import contract
from .weakf import StructureAtPoint

__all__ = [
    "IDENTITY_IDS",
    "kenmotsu_residual",
    "audit_identities",
    "build_example2",
    "build_twisted_product",
    "twisted_product_audit",
]


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
    """[k, a] = (s P + xibar (x) etabar) e_a."""
    return st.m.s * st.P + st.xebar


def _bracket_form(st: StructureAtPoint) -> np.ndarray:
    """[a, b] = s H + etabar (x) etabar."""
    return st.m.s * st.H + st.ebar


def _minus_swap(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """``t`` minus itself with axes ``i`` and ``j`` swapped."""
    return t - np.swapaxes(t, i, j)


def _reeb_term(st: StructureAtPoint) -> np.ndarray:
    """[l, a, c] = etabar(Z) PX - H(X, Z) xibar at X = e_a, Z = e_c."""
    return (
        np.einsum("...c,...la->...lac", st.etabar, st.P)
        - np.einsum("...ac,...l->...lac", st.H, st.xibar)
    )


def _id13(st: StructureAtPoint, beta: float) -> np.ndarray:
    return contract("...ja,...ika->...ijk", st.xi, st.nabla_xi)


def _id14(st: StructureAtPoint, beta) -> np.ndarray:
    # beta is a number, or one rate per Reeb field (..., s) as the twisted audit passes
    return st.nabla_xi - np.asarray(beta)[..., None, None] * st.P[..., None, :, :]


def _id15(st: StructureAtPoint, beta) -> np.ndarray:
    # (nabla_a eta^i)_b = d_a eta^i_b - G^m_ab eta^i_m
    nab = np.swapaxes(st.deta, -1, -2) - contract(
        "...mab,...im->...iab", st.geo.gamma, st.eta
    )
    return nab - np.asarray(beta)[..., None, None] * st.H[..., None, :, :]


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
    return lie - (2.0 * beta * st.H)[..., None, :, :]


def _id19(st: StructureAtPoint, beta: float) -> np.ndarray:
    lhs = contract("...labm,...im->...ilab", st.geo.riem, st.xi)
    # etabar(X) PY - etabar(Y) PX
    rhs = beta**2 * _minus_swap(np.einsum("...a,...lb->...lab", st.etabar, st.P), -1, -2)
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
    gf = contract("...ma,...mb->...ab", f, st.geo.g)  # g(f e_a, e_b)
    # bracket_form(Y, Z) fX + g(X, fZ) bracket(Y), with g(X, fZ) = g(f e_c, e_a),
    # minus the same with X and Y swapped
    return lhs - beta**2 * _minus_swap(
        np.einsum("...bc,...la->...labc", _bracket_form(st), f)
        + np.einsum("...ca,...lb->...labc", gf, _bracket(st)),
        -3, -2,
    )


def _id27(st: StructureAtPoint, beta: float) -> np.ndarray:
    riem, f, g, Q = st.geo.riem, st.f, st.geo.g, st.Q
    # f f R by two pairwise dim^5 contractions, not one dim^6 loop
    lhs = contract("...jb,...lajc->...labc", f, contract("...ia,...lijc->...lajc", f, riem))
    lhs -= contract("...jb,...lajc->...labc", Q, riem)
    gq = contract("...mb,...mc->...bc", Q, g)  # g(e_c, Q e_b)
    gfz = contract("...ma,...mc->...ca", f, g)  # g(Z, fX) at [c, a]
    # the pair in fX and fY first, while few dim^4 arrays are alive
    rhs = beta**2 * (
        st.m.s * _minus_swap(np.einsum("...ca,...kb->...kabc", gfz, f), -3, -2)
        + np.einsum("...bc,...ka->...kabc", gq - st.etaeta, _bracket(st))
        - np.einsum("...ca,...kb->...kabc", _bracket_form(st), Q - st.etaxi)
        + np.einsum("...b,...lac->...labc", st.etabar, _reeb_term(st))
    )
    return lhs - rhs


def _id44(st: StructureAtPoint, beta: float) -> np.ndarray:
    lhs = contract("...lajc,...ij->...ilac", st.geo.riem, st.xi)  # R_{X, xi_i} Z
    return lhs + (beta**2 * _reeb_term(st))[..., None, :, :, :]


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
    if beta == 0:
        raise InputError("the Kenmotsu coefficient must be nonzero")
    if c < 0:
        raise InputError("the structure deformation c must be >= 0")
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
    if not all(scales):
        raise InputError("factor scales must be nonzero")
    n = len(scales)
    two_n, dim = 2 * n, 2 * n + s
    tape = compile_tape((parse_expression(sigma, dim, "sigma"),), dim)
    value, grad = tape.jets(np.zeros(dim), order=1)
    if value <= 0:
        raise InputError("sigma must be positive")

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
        raise InputError(f"sigma is not positive at point {q.tolist()}")
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

