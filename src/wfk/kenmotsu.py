"""Weak Kenmotsu-type structures: defining condition, audits, builders.

The defining condition for the beta-Kenmotsu class is

    (nabla_X f) Y = beta { g(fX, Y) xibar - etabar(Y) fX },

with the beta = 0 case (parallel f) playing the role of a C-manifold.
``build_example_manifold`` realizes the standard explicit chart model
(metric diag(e^{2 beta xbar}) on the contact block); the twisted-product
builder assembles dt^2 (+) sigma^2 gbar over a weakly Kaehler fiber.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import ExprAst
from .geometry import FieldSpec, MetricField, lie_derivative_metric
from .weakf import (
    ResidualReport,
    StructureAtPoint,
    WeakFManifold,
    check_axioms,
    tensor_residual,
)

__all__ = [
    "FiberSpec",
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
class FiberSpec:
    """Even-dimensional fiber (gbar, J) for the twisted-product builder.

    Entries are expressions over the *full* chart of the product (the
    fiber occupies coordinates x1..x_{2n}; t-coordinates follow).
    """

    dim: int
    gbar: tuple[tuple[ExprAst, ...], ...]
    J: tuple[tuple[ExprAst, ...], ...]

    def __post_init__(self):
        if self.dim % 2 or self.dim < 2:
            raise ValueError("fiber dimension must be even and positive")

    @classmethod
    def flat_factors(cls, scales, total_dim: int) -> "FiberSpec":
        """Product of flat R^2 factors with J_i = c_i x (rotation by 90 deg)."""
        dim = 2 * len(scales)
        zero = ex.const(0.0, total_dim)
        gbar = [[zero] * dim for _ in range(dim)]
        jmat = [[zero] * dim for _ in range(dim)]
        for k, c in enumerate(scales):
            if c == 0:
                raise ValueError("factor scales must be nonzero")
            a = 2 * k
            gbar[a][a] = gbar[a + 1][a + 1] = ex.const(1.0, total_dim)
            jmat[a][a + 1] = ex.const(-float(c), total_dim)
            jmat[a + 1][a] = ex.const(float(c), total_dim)
        return cls(dim, tuple(map(tuple, gbar)), tuple(map(tuple, jmat)))


@dataclass(frozen=True)
class EinsteinFit:
    """Least-squares coefficients of the eta-Einstein model for Ric."""

    a: float
    b: float
    residual: float
    predicted: tuple[float, float] | None = None  # Kenmotsu closed form, if known

    @classmethod
    def least_squares(cls, target, col_a, col_b, predicted=None) -> "EinsteinFit":
        """Least-squares (a, b) of target = a col_a + b col_b; residual is max-abs."""
        target, col_a, col_b = target.ravel(), col_a.ravel(), col_b.ravel()
        design = np.stack([col_a, col_b], axis=1)
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        a, b = float(coef[0]), float(coef[1])
        residual = float(np.abs(target - (a * col_a + b * col_b)).max())
        return cls(a, b, residual, predicted)


# ---------------------------------------------------------------------------
# defining condition


def _nabla_f_residual(st: StructureAtPoint, beta: float) -> np.ndarray:
    """(nabla_a f)^k_b - beta { (f^m_a g_mb) xibar^k - etabar_b f^k_a }."""
    lhs = st.nabla_f  # [k, b, a]
    gf = np.einsum("ma,mb->ab", st.f, st.geo.g)
    rhs = beta * (
        np.einsum("ab,k->kba", gf, st.xibar)
        - np.einsum("b,ka->kba", st.etabar, st.f)
    )
    return lhs - rhs


def kenmotsu_residual(st: StructureAtPoint, beta=None) -> ResidualReport:
    """Residual of the defining nabla-f condition at a point.

    ``beta`` overrides the manifold's coefficient and may be an
    expression (the genuinely twisted case); beta = 0 checks the
    C-manifold case.
    """
    if beta is None:
        bval = st.m.beta_value(st.point)
    elif isinstance(beta, ExprAst):
        bval = ex.evaluate_jet(beta, st.point).value
    else:
        bval = float(beta)
    res = tensor_residual(_nabla_f_residual(st, bval), (1, 2))
    return ResidualReport.make("kenmotsu.12", st.point, res)


# ---------------------------------------------------------------------------
# identity audit


def _bracket(st: StructureAtPoint) -> np.ndarray:
    """[k, a] = (s id - s sum_j eta^j (x) xi_j + etabar (x) xibar) e_a."""
    s = st.m.s
    return (
        s * np.eye(st.m.dim)
        - s * np.einsum("ja,jk->ka", st.eta, st.xi)
        + np.einsum("a,k->ka", st.etabar, st.xibar)
    )


def _bracket_form(st: StructureAtPoint) -> np.ndarray:
    """[a, b] = s g - s sum_j eta^j (x) eta^j + etabar (x) etabar."""
    s = st.m.s
    return s * st.geo.g - s * st.etaeta + st.ebar


def _id13(st: StructureAtPoint, beta: float) -> np.ndarray:
    nab = np.stack([st.nabla_vector(i) for i in range(st.m.s)])  # [i, k, a]
    return np.einsum("ja,ika->ijk", st.xi, nab)


def _id14(st: StructureAtPoint, beta: float) -> np.ndarray:
    nab = np.stack([st.nabla_vector(i) for i in range(st.m.s)])
    rhs = beta * (np.eye(st.m.dim)[None, :, :] - np.einsum("ja,jk->ka", st.eta, st.xi))
    return nab - rhs[None, :, :]


def _id15(st: StructureAtPoint, beta: float) -> np.ndarray:
    # (nabla_a eta^i)_b = d_a eta^i_b - G^m_ab eta^i_m
    nab = st.deta.transpose(0, 2, 1) - np.einsum(
        "mab,im->iab", st.geo.gamma, st.eta
    )
    rhs = beta * (st.geo.g - st.etaeta)
    return nab - rhs[None, :, :]


def _id16(st: StructureAtPoint, beta: float) -> np.ndarray:
    Qt = st.Qtilde
    gqt = np.einsum("ma,mb->ab", Qt, st.geo.g)
    rhs = -beta * (
        np.einsum("b,ka->kba", st.etabar, Qt) + np.einsum("ab,k->kba", gqt, st.xibar)
    )
    return st.nabla_Q - rhs  # [k, b, a]


def _id18(st: StructureAtPoint, beta: float) -> np.ndarray:
    rhs = 2.0 * beta * (st.geo.g - st.etaeta)
    return np.stack(
        [
            lie_derivative_metric(st.geo, (xi, dxi)).components - rhs
            for xi, dxi in zip(st.xi, st.dxi)
        ]
    )


def _id19(st: StructureAtPoint, beta: float) -> np.ndarray:
    eye, xi, eta, etabar = np.eye(st.m.dim), st.xi, st.eta, st.etabar
    lhs = np.einsum("labm,im->ilab", st.geo.riem, xi)
    rhs = beta**2 * (
        np.einsum("a,lb->lab", etabar, eye)
        - np.einsum("b,la->lab", etabar, eye)
        + np.einsum("b,ja,jl->lab", etabar, eta, xi)
        - np.einsum("a,jb,jl->lab", etabar, eta, xi)
    )
    return lhs - rhs[None, :, :, :]


def _id20(st: StructureAtPoint, beta: float) -> np.ndarray:
    lhs = np.einsum("km,im->ik", st.geo.ric_sharp, st.xi)
    return lhs - (-2.0 * st.m.n * beta**2 * st.xibar)[None, :]


def _id21(st: StructureAtPoint, beta: float) -> np.ndarray:
    rhs = -2.0 * beta * st.geo.ric_sharp - 4.0 * st.m.n * beta**3 * _bracket(st)
    nab = st.geo.nabla_ric_sharp  # [k, j, a]
    return np.stack([np.einsum("kja,a->kj", nab, xi) - rhs for xi in st.xi])


def _id22(st: StructureAtPoint, beta: float) -> np.ndarray:
    s, n = st.m.s, st.m.n
    rhs = -2.0 * beta * (st.geo.scalar + 2.0 * s * n * (2 * n + 1) * beta**2)
    return np.array([st.geo.scalar_derivative(xi) - rhs for xi in st.xi])


def _id23(st: StructureAtPoint, beta: float) -> np.ndarray:
    rhs = -beta * st.geo.ric_sharp - 2.0 * st.m.n * beta**3 * _bracket(st)
    nab = st.geo.nabla_ric_sharp  # [k, j, a]
    return np.stack([np.einsum("kja,j->ka", nab, xi) - rhs for xi in st.xi])


def _id26(st: StructureAtPoint, beta: float) -> np.ndarray:
    riem, f = st.geo.riem, st.f
    lhs = riem @ f - np.tensordot(f, riem, axes=1)
    sg, brk = _bracket_form(st), _bracket(st)
    gf = np.einsum("ma,mb->ab", f, st.geo.g)  # g(f e_a, e_b)
    rhs = beta**2 * (
        np.einsum("bc,la->labc", sg, f)
        - np.einsum("ac,lb->labc", sg, f)
        + np.einsum("ca,lb->labc", gf, brk)  # g(X, fZ) = g(f e_c, e_a)
        - np.einsum("cb,la->labc", gf, brk)
    )
    return lhs - rhs


def _id27(st: StructureAtPoint, beta: float) -> np.ndarray:
    s = st.m.s
    riem, f, g, Q = st.geo.riem, st.f, st.geo.g, st.Q
    xi, eta, xibar, etabar = st.xi, st.eta, st.xibar, st.etabar
    # optimize: two pairwise dim^5 contractions in place of one dim^6 loop
    lhs = np.einsum("ia,jb,lijc->labc", f, f, riem, optimize=True)
    lhs = lhs - np.einsum("jb,lajc->labc", Q, riem)
    gq = np.einsum("mb,mc->bc", Q, g)  # g(e_c, Q e_b)
    sgl = _bracket_form(st)  # s g(Z,X) - s sum + etabar(Z) etabar(X) at [c, a]
    q_minus = Q - np.einsum("jb,jk->kb", eta, xi)  # [k, b]: QY - sum eta^j(Y) xi_j
    gfx = np.einsum("ma,mc->ca", f, g)  # g(Z, fX) at [c, a]
    gfy = np.einsum("mb,mc->cb", f, g)  # g(Z, fY)
    tail = (
        np.einsum("c,la->lac", etabar, np.eye(st.m.dim))
        - np.einsum("ca,l->lac", g, xibar)
        + np.einsum("ja,jc,l->lac", eta, eta, xibar)
        - np.einsum("ja,c,jl->lac", eta, etabar, xi)
    )  # [l, a, c]: etabar(Z) X - g(Z,X) xibar + sum_j eta^j(X){eta^j(Z) xibar - etabar(Z) xi_j}
    rhs = beta**2 * (
        np.einsum("bc,ka->kabc", gq - st.etaeta, _bracket(st))
        - np.einsum("ca,kb->kabc", sgl, q_minus)
        + s * np.einsum("ca,kb->kabc", gfx, f)
        - s * np.einsum("cb,ka->kabc", gfy, f)
        + np.einsum("b,lac->labc", etabar, tail)
    )
    return lhs - rhs


def _id44(st: StructureAtPoint, beta: float) -> np.ndarray:
    xi, eta, xibar, etabar = st.xi, st.eta, st.xibar, st.etabar
    lhs = np.einsum("lajc,ij->ilac", st.geo.riem, xi)  # R_{X, xi_i} Z
    rhs = beta**2 * (
        np.einsum("ac,l->lac", st.geo.g, xibar)
        - np.einsum("c,la->lac", etabar, np.eye(st.m.dim))
        + np.einsum("ja,c,jl->lac", eta, etabar, xi)
        - np.einsum("ja,jc,l->lac", eta, eta, xibar)
    )
    return lhs - rhs[None, :, :, :]


# identity id -> residual tensor of that identity at a point
_IDENTITIES = {
    "13": _id13, "14": _id14, "15": _id15, "16": _id16, "18": _id18,
    "19": _id19, "20": _id20, "21": _id21, "22": _id22, "23": _id23,
    "26": _id26, "27": _id27, "44": _id44,
}
IDENTITY_IDS = tuple(_IDENTITIES)


def audit_identities(st: StructureAtPoint, ids=None) -> list[ResidualReport]:
    """Residual reports for the curvature/connection identity catalogue."""
    if ids is None:
        ids = IDENTITY_IDS
    unknown = [i for i in ids if i not in IDENTITY_IDS]
    if unknown:
        raise KeyError(f"unknown identity ids: {unknown}")
    m = st.m
    if not m.beta_is_constant:
        raise ValueError(
            "identity audits require a constant Kenmotsu coefficient; "
            "this manifold carries a coordinate-dependent one"
        )
    beta = m.beta_value(st.point)
    return [
        ResidualReport.make(
            f"id.{i}", st.point, tensor_residual(_IDENTITIES[i](st, beta))
        )
        for i in ids
    ]


# ---------------------------------------------------------------------------
# builders


def build_example2(n: int, s: int, beta: float, c: float) -> WeakFManifold:
    """Explicit chart model: metric diag(e^{2 beta xbar} 1_{2n}, 1_s).

    f rotates the contact block with scale sqrt(1+c), Q = (1+c) id on the
    contact block; c = 0 reduces to the classical metric f-structure.
    """
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if beta == 0:
        raise ValueError("the Kenmotsu coefficient must be nonzero")
    if c < 0:
        raise ValueError("the structure deformation c must be >= 0")
    dim = 2 * n + s
    xbar = ex.add_many([ex.var(2 * n + p, dim) for p in range(s)], dim)
    warp = ex.exp(ex.mul(ex.const(2.0 * beta, dim), xbar))
    diag = [warp] * (2 * n) + [ex.const(1.0, dim)] * s
    metric = MetricField.diagonal(diag, dim)

    root = float(np.sqrt(1.0 + c))
    zero = ex.const(0.0, dim)
    f = [[zero] * dim for _ in range(dim)]
    q = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        f[n + i][i] = ex.const(root, dim)
        f[i][n + i] = ex.const(-root, dim)
    for j in range(2 * n):
        q[j][j] = ex.const(1.0 + c, dim)
    for p in range(s):
        q[2 * n + p][2 * n + p] = ex.const(1.0, dim)

    xi = tuple(FieldSpec.from_entries(np.eye(dim)[2 * n + p], dim) for p in range(s))
    eta = tuple(FieldSpec.from_entries(np.eye(dim)[2 * n + p], dim) for p in range(s))
    return WeakFManifold(
        n=n,
        s=s,
        beta=float(beta),
        c=float(c),
        metric=metric,
        f=FieldSpec(dim, tuple(map(tuple, f))),
        Q=FieldSpec(dim, tuple(map(tuple, q))),
        xi=xi,
        eta=eta,
    )


def build_twisted_product(
    fiber: FiberSpec, s: int, sigma: ExprAst, beta: float | ExprAst | None = None
) -> WeakFManifold:
    """Assemble dt^2 (+) sigma^2 gbar with f lifted from the fiber's J.

    Q is derived as the lift of -J^2 so that the structure axioms hold by
    construction; they are still verified at the origin.  When ``beta``
    is omitted it is inferred as d(log sigma)/dt_1 at the origin.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    two_n = fiber.dim
    n = two_n // 2
    dim = two_n + s
    if sigma.dim != dim:
        raise ValueError("sigma must be an expression over the full chart")
    origin = np.zeros(dim)
    if ex.evaluate_jet(sigma, origin).value <= 0:
        raise ValueError("sigma must be positive")

    sig2 = ex.powi(sigma, 2)
    zero = ex.const(0.0, dim)
    rows = [[zero] * dim for _ in range(dim)]
    for a in range(two_n):
        for b in range(two_n):
            rows[a][b] = ex.mul(sig2, fiber.gbar[a][b])
    for p in range(s):
        rows[two_n + p][two_n + p] = ex.const(1.0, dim)
    metric = MetricField.from_entries(rows, dim)

    f = [[zero] * dim for _ in range(dim)]
    q = [[zero] * dim for _ in range(dim)]
    for a in range(two_n):
        for b in range(two_n):
            f[a][b] = fiber.J[a][b]
            q[a][b] = ex.neg(
                ex.add_many(
                    [ex.mul(fiber.J[a][k], fiber.J[k][b]) for k in range(two_n)],
                    dim,
                )
            )
    for p in range(s):
        q[two_n + p][two_n + p] = ex.const(1.0, dim)

    xi = tuple(FieldSpec.from_entries(np.eye(dim)[two_n + p], dim) for p in range(s))
    eta = tuple(FieldSpec.from_entries(np.eye(dim)[two_n + p], dim) for p in range(s))

    if beta is None:
        jet = ex.evaluate_jet(sigma, origin)
        beta = float(jet.gradient[two_n] / jet.value)

    m = WeakFManifold(
        n=n,
        s=s,
        beta=beta,
        c=None,
        metric=metric,
        f=FieldSpec(dim, tuple(map(tuple, f))),
        Q=FieldSpec(dim, tuple(map(tuple, q))),
        xi=xi,
        eta=eta,
        sigma=sigma,
        fiber_dim=two_n,
    )
    axioms = check_axioms(m.at(origin))
    if not all(r.passed for r in axioms):
        worst = max(r.residual for r in axioms)
        raise ValueError(
            f"fiber data does not satisfy the structure axioms (residual {worst:.2e})"
        )
    return m


def twisted_product_audit(st: StructureAtPoint) -> list[ResidualReport]:
    """Connection relations of the twisted product: Reeb, base, fiber parts."""
    m = st.m
    if m.sigma is None or m.fiber_dim is None:
        raise ValueError("manifold was not built as a twisted product")
    two_n = m.fiber_dim
    s = m.s
    gam = st.geo.gamma
    g = st.geo.g
    sigma, dsigma, _ = st.jets_of(m.sigma)
    dlog = dsigma / sigma  # d(log sigma)

    # (i): nabla_{xi_i} xi_j = 0 and nabla_X xi_i = xi_i(log sigma) X on the fiber
    res_i = np.abs(gam[:, two_n:, two_n:]).max()
    for p_idx in range(s):
        t = two_n + p_idx
        block = gam[:, : two_n, t].copy()  # (nabla_{e_a} xi_p)^k
        block[:two_n] -= dlog[t] * np.eye(two_n)
        res_i = max(res_i, np.abs(block).max())

    # (ii): t-components of nabla_X Y equal -g(X, Y) (grad log sigma)_t
    grad_log_t = st.geo.ginv[two_n:, :] @ dsigma / sigma
    res_ii = np.abs(
        gam[two_n:, :two_n, :two_n]
        + np.einsum("ab,p->pab", g[:two_n, :two_n], grad_log_t)
    ).max()

    # (iii): fiber components of nabla_X Y equal the Christoffels of the
    # induced leaf metric (t frozen), i.e. drop all t-derivatives
    dg_fiber = st.geo.dg[:two_n, :two_n, :two_n]
    ghat_inv = np.linalg.inv(g[:two_n, :two_n])
    core = (
        np.einsum("jli->lij", dg_fiber)
        + np.einsum("ilj->lij", dg_fiber)
        - np.einsum("ijl->lij", dg_fiber)
    )
    gam_hat = 0.5 * np.einsum("kl,lij->kij", ghat_inv, core)
    res_iii = np.abs(gam[:two_n, :two_n, :two_n] - gam_hat).max()

    return [
        ResidualReport.make("twisted.i", st.point, res_i),
        ResidualReport.make("twisted.ii", st.point, res_ii),
        ResidualReport.make("twisted.iii", st.point, res_iii),
    ]


# ---------------------------------------------------------------------------
# eta-Einstein fit


def eta_einstein_fit(st: StructureAtPoint) -> EinsteinFit:
    """Least-squares (a, b) of Ric = a g - a sum eta (x) eta + (a+b) etabar (x) etabar."""
    m = st.m
    predicted = None
    if m.beta is not None and m.beta_is_constant:
        beta = m.beta_value(st.point)
        a_pred = m.s * beta**2 + st.geo.scalar / (2.0 * m.n)
        b_pred = -2.0 * m.n * beta**2 - a_pred
        predicted = (float(a_pred), float(b_pred))
    col_a = st.geo.g - st.etaeta + st.ebar
    return EinsteinFit.least_squares(st.geo.ric, col_a, st.ebar, predicted)
