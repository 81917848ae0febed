import numpy as np
import pytest

from wfk import InputError
from wfk import expr as ex
from wfk.geometry import (
    Geometry,
    MetricField,
    coboundary_2form,
    gradient_and_hessian,
    lie_derivative_1form,
    lie_derivative_connection,
    lie_derivative_curvature,
    lie_derivative_metric,
)
from wfk.kenmotsu import audit_identities, build_example2, build_twisted_product
from wfk.star_soliton import lemma2_audit
from wfk.weakf import WeakFManifold

from conftest import diagonal_metric, exprs, field, model, scalar, seeded_points, with_soliton
from reference_chain import dric as reference_dric
from reference_chain import lie_curvature as reference_lie_curvature
from reference_chain import ric as reference_ric
from reference_chain import ric_star as reference_ric_star
from reference_forms import fundamental_form_field

O = np.zeros(4)
XIBAR = field([0.0, 0.0, 1.0, 1.0], 4)
FLAT4 = diagonal_metric([1.0] * 4)
# a metric with off-diagonal entries and no symmetries, positive definite
# on the sample box (diagonally dominant there)
BUMPY4 = MetricField.from_entries(
    exprs(
        [
            ["2+x1^2*x2"],
            ["0.3*x1*x3", "exp(x2+0.5*x3)"],
            ["0.2*x2^2", "0.1*x1*x4", "1+x3^2/(2+x4)"],
            ["0.1*exp(x1)", 0, "0.2*x2*x3", "sqrt(2+x1*x4)"],
        ],
        4,
    ),
    4,
)
# nonlinear and not Killing for either metric
_BENT4_ENTRIES = ["x1*x2", "exp(0.5*x3)", "x4^3-x1", "sqrt(2+x2)*x3"]
BENT4 = field(_BENT4_ENTRIES, 4)


class TestMetric:
    def test_identity_at_origin(self, e2):
        assert e2.metric.at(O).g == pytest.approx(np.eye(4))

    def test_warped_value(self, e2):
        g = e2.metric.at([0, 0, 1, 0]).g
        assert g == pytest.approx(np.diag([np.e**2, np.e**2, 1.0, 1.0]))

    def test_euclidean(self):
        p = np.array([3.0, -1.0, 0.5, 2.0])
        assert FLAT4.at(p).g == pytest.approx(np.eye(4))

    def test_inverse(self, e2):
        p = np.array([0.1, 0.2, 0.3, -0.1])
        geo = e2.metric.at(p)
        assert geo.g @ geo.ginv == pytest.approx(np.eye(4), abs=1e-12)

    def test_a_full_square_reads_as_its_lower_triangle(self):
        lower = [["2+x1^2"], ["0.3*x1", "exp(x2)"], [0, "0.1*x3", "1+x2*x3"]]
        # upper entries that differ from their mirrors, and are not read
        square = [lower[0] + ["x2^3", 5], lower[1] + ["0.7*x1"], lower[2]]
        full, low = (MetricField.from_entries(exprs(rows, 3), 3) for rows in (square, lower))
        assert full == low
        # a mirrored pair is one output of the tape
        pairs = [(3 * i + j, 3 * j + i) for i in range(3) for j in range(3)]
        assert all(low.outputs[a] == low.outputs[b] for a, b in pairs)

    @pytest.mark.parametrize(
        "rows", [[["1"], [0], [0, 0, 1]], [["1"], [0, 1]]], ids=["short-row", "missing-row"]
    )
    def test_a_short_or_missing_row_is_error(self, rows):
        # the manifest reader checks the rows; MetricField.from_entries reads parsed ones
        data = {**build_example2(1, 1, 1.0, 1.0), "metric": rows}
        with pytest.raises(InputError, match=r"metric(: expected 3|\[2\]: expected 2) entries"):
            model(data)

    def test_non_positive_definite_is_error(self):
        bad = diagonal_metric(["x1-1", 1.0])
        with pytest.raises(InputError):
            bad.at(np.zeros(2))


class TestChristoffel:
    def test_hand_values(self, e2):
        gam = e2.metric.at(O).gamma
        assert gam[0, 0, 2] == pytest.approx(1.0)  # beta
        assert gam[2, 0, 0] == pytest.approx(-1.0)

    def test_flat_zero(self):
        assert np.all(FLAT4.at(np.ones(4)).gamma == 0.0)

    def test_symmetric_lower_pair(self, e2):
        for p in seeded_points(4, count=3):
            gam = e2.metric.at(p).gamma
            assert gam == pytest.approx(gam.transpose(0, 2, 1))

    def test_metric_compatibility(self, e2):
        # nabla g = 0 with analytic jets
        for p in seeded_points(4, count=20, seed=5):
            geo = e2.metric.at(p)
            nabla_g = (
                geo.dg.transpose(2, 0, 1)
                - np.einsum("mki,mj->kij", geo.gamma, geo.g)
                - np.einsum("mkj,im->kij", geo.gamma, geo.g)
            )
            assert np.abs(nabla_g).max() < 1e-9


class TestCurvature:
    def test_sectional_hand_value(self, e2):
        geo = e2.metric.at(O)
        val = np.einsum("l,labc,a,b,c->", geo.g[0], geo.riem, *np.eye(4)[[0, 1, 1]])
        assert val == pytest.approx(-2.0)  # -s beta^2

    def test_mixed_reeb_value(self, e2):
        riem = e2.metric.at(O).riem
        # g(R(d1, xi1) xi2, d1) = -beta^2
        assert riem[0, 0, 2, 3] == pytest.approx(-1.0)

    def test_flat_zero(self):
        assert np.all(FLAT4.at(np.ones(4)).riem == 0.0)

    def test_symmetries_and_bianchi(self, e2):
        for p in seeded_points(4, count=5, seed=11):
            geo = e2.metric.at(p)
            low = np.einsum("lm,labc->mabc", geo.g, geo.riem)
            assert np.abs(low + low.transpose(0, 2, 1, 3)).max() < 1e-8
            # g(R(X,Y)Z, W) = g(R(Z,W)X, Y): low[m,a,b,c] = low[b,c,m,a]
            assert np.abs(low - low.transpose(2, 3, 0, 1)).max() < 1e-8
            cyclic = (
                geo.riem
                + geo.riem.transpose(0, 2, 3, 1)
                + geo.riem.transpose(0, 3, 1, 2)
            )
            assert np.abs(cyclic).max() < 1e-8

    def test_ricci_values(self, e2):
        ric = e2.metric.at(O).ric
        assert ric[0, 0] == pytest.approx(-4.0)
        assert ric[2, 3] == pytest.approx(-2.0)
        assert ric[2, 2] == pytest.approx(-2.0)
        assert np.all(FLAT4.at(O).ric == 0.0)

    def test_ricci_operator_matches(self, e2):
        p = seeded_points(4, count=1, seed=3)[0]
        geo = e2.metric.at(p)
        assert geo.ric_sharp == pytest.approx(geo.ginv @ geo.ric)

    def test_scalar_curvature_constant(self, e2):
        for p in seeded_points(4, count=5, seed=1):
            assert e2.metric.at(p).scalar == pytest.approx(-12.0, abs=1e-9)

    def test_hyperbolic_plane(self):
        # constant-curvature oracle: diag(1, e^{2 x1}) has r = -2
        g = diagonal_metric([1.0, "exp(2*x1)"])
        for p in ([0.0, 0.0], [0.4, -1.0]):
            assert g.at(p).scalar == pytest.approx(-2.0, abs=1e-10)

    def test_contracted_bianchi(self, e2):
        # X(r) = 2 (div Ric)(X) via outer finite differences
        h = 1e-4
        rng = np.random.default_rng(17)
        for p in seeded_points(4, count=5, seed=23):
            geo = e2.metric.at(p)
            dric = np.empty((4, 4, 4))
            dr = np.empty(4)
            for a in range(4):
                dp = np.zeros(4)
                dp[a] = h
                gp, gm = e2.metric.at(p + dp), e2.metric.at(p - dp)
                dric[:, :, a] = (gp.ric - gm.ric) / (2 * h)
                dr[a] = (gp.scalar - gm.scalar) / (2 * h)
            nabla_ric = (
                dric.transpose(2, 0, 1)
                - np.einsum("mka,mb->kab", geo.gamma, geo.ric)
                - np.einsum("mkb,am->kab", geo.gamma, geo.ric)
            )
            div = np.einsum("ka,kab->b", geo.ginv, nabla_ric)
            for _ in range(10):
                x = rng.standard_normal(4)
                assert abs(dr @ x - 2.0 * div @ x) < 1e-5

    @pytest.mark.parametrize("metric", ["e2", "bumpy"])
    def test_contracted_bianchi_exact(self, e2, metric):
        # d(scal) = 2 div Ric with the exact third-order nabla Ric# and d(scal)
        g = e2.metric if metric == "e2" else BUMPY4
        rng = np.random.default_rng(29)
        for p in seeded_points(4, count=5, seed=31):
            geo = g.at(p)
            div = np.einsum("kjk->j", geo.nabla_ric_sharp)
            for v in list(np.eye(4)) + list(rng.standard_normal((4, 4))):
                assert abs(geo.scalar_derivative(v) - 2.0 * div @ v) <= 1e-10


class TestLieDerivatives:
    def test_metric_along_reeb_sum(self, e2):
        lg = lie_derivative_metric(e2.metric.at(O), XIBAR.jets(O))
        assert lg[0, 0] == pytest.approx(4.0)  # 2 s beta
        assert lg[2, 2] == pytest.approx(0.0)
        assert lg == pytest.approx(lg.T)

    def test_zero_field(self, e2):
        zero = field([0.0] * 4, 4)
        lg = lie_derivative_metric(e2.metric.at(O), zero.jets(O))
        assert np.all(lg == 0.0)

    def test_gradient_field_gives_twice_hessian(self, e2):
        v = scalar("x1*x3+x4^2", 4)
        for p in seeded_points(4, count=3, seed=9):
            grad, hess = gradient_and_hessian(e2.metric.at(p), v.jets(p))
            # build the gradient as a field to take its Lie derivative
            geo = e2.metric.at(p)
            # numerically: L_{grad v} g == 2 Hess_v; evaluate via FD of the flow
            # identity using the component formula at the point
            entries = _gradient_field_entries(e2.metric)
            lg = lie_derivative_metric(e2.metric.at(p), entries.jets(p))
            assert np.abs(lg - 2.0 * hess).max() < 1e-8

    def test_1form_examples(self, e2):
        eta1 = field([0.0, 0.0, 1.0, 0.0], 4)
        geo = e2.metric.at(O)
        lw = lie_derivative_1form(geo, eta1.jets(O), XIBAR.jets(O))
        assert np.all(lw == 0.0)
        d1 = field([1.0, 0.0, 0.0, 0.0], 4)
        lw = lie_derivative_1form(geo, eta1.jets(O), d1.jets(O))
        assert np.all(lw == 0.0)


def _gradient_field_entries(metric):
    """Symbolic gradient of v = x1*x3 + x4^2 for the reference metric
    diag(e^{2xbar}, e^{2xbar}, 1, 1)."""
    return field(["exp(-2*(x3+x4))*x3", 0.0, "x1", "2*x4"], metric.dim)


def _d_1form(omega, p):
    """d omega at p with the 1/2 of the co-boundary formula, from the tape
    ``omega`` of a 1-form."""
    _, dw, _ = omega.jets(p)  # dw[j, i] = d_i w_j
    return 0.5 * (dw.T - dw)


class TestExteriorDerivatives:
    def test_closed_reeb_forms(self):
        # the manifest's eta^i, each compiled as a tape of its own
        for raw in build_example2(1, 2, 1.0, 1.0)["eta"]:
            d = _d_1form(field(raw, 4), O)
            assert np.all(d == 0.0)

    def test_half_normalization(self):
        omega = field(["x2", 0.0, 0.0, 0.0], 4)  # x2 dx1
        d = _d_1form(omega, np.ones(4))
        assert d[0, 1] == pytest.approx(-0.5)
        assert d[1, 0] == pytest.approx(0.5)

    def test_constant_form_closed(self):
        omega = field([1.0, 2.0, 3.0, 4.0], 4)
        assert np.all(_d_1form(omega, O) == 0.0)

    def test_fundamental_form_derivative(self):
        phi = fundamental_form_field(build_example2(1, 2, 1.0, 1.0))
        d = coboundary_2form(phi.jets(O)[1])
        assert d[0, 1, 2] == pytest.approx(-(2.0 / 3.0) * np.sqrt(2.0))

    def test_third_normalization(self):
        rows = [[0.0] * 4 for _ in range(4)]
        rows[0][1], rows[1][0] = "x3", "-x3"
        phi = field(rows, 4)
        d = coboundary_2form(phi.jets(np.zeros(4))[1])
        assert d[0, 1, 2] == pytest.approx(1.0 / 3.0)


class TestGradientHessian:
    def test_reeb_sum_gradient(self, e2):
        v = scalar("x3+x4", 4)
        for p in (O, np.array([0.3, -0.2, 0.1, 0.4])):
            grad, _ = gradient_and_hessian(e2.metric.at(p), v.jets(p))
            assert grad == pytest.approx([0.0, 0.0, 1.0, 1.0])

    def test_hessian_hand_value(self, e2):
        x3 = scalar("x3", 4)
        _, hess = gradient_and_hessian(e2.metric.at(O), x3.jets(O))
        assert hess[0, 0] == pytest.approx(1.0)

    def test_constant_potential(self, e2):
        grad, hess = gradient_and_hessian(e2.metric.at(O), scalar(3.0, 4).jets(O))
        assert np.all(grad == 0.0)
        assert np.all(hess == 0.0)


class TestLieConnectionCurvature:
    def test_reeb_sum_connection_perturbation_vanishes(self, e2):
        t = lie_derivative_connection(e2.metric.at(O), XIBAR.jets(O))
        assert np.abs(t[:, 0, 2]).max() < 1e-12  # (L_V nabla)(d1, xi1)
        assert np.abs(t - t.transpose(0, 2, 1)).max() < 1e-12

    def test_zero_and_linear_fields(self):
        zero = field([0.0] * 4, 4)
        p, geo = np.ones(4), FLAT4.at(np.ones(4))
        assert np.all(lie_derivative_connection(geo, zero.jets(p)) == 0.0)
        linear = field(["x1", 0.0, 0.0, 0.0], 4)
        t = lie_derivative_connection(geo, linear.jets(p))
        assert np.abs(t).max() < 1e-12

    def test_curvature_perturbation_at_reeb_slots(self, e2):
        for p in seeded_points(4, count=2, seed=31):
            lr = lie_derivative_curvature(e2.metric.at(p), XIBAR.jets(p))
            assert np.abs(lr[:, :, 3, 2]).max() < 1e-4  # slots (X, xi2, xi1)

    @pytest.mark.parametrize("metric", ["e2", "bumpy"])
    def test_curvature_matches_central_differences(self, e2, metric):
        g = e2.metric if metric == "e2" else BUMPY4
        for p in seeded_points(4, count=3, seed=37):
            exact = lie_derivative_curvature(g.at(p), BENT4.jets(p))
            reference = _fd_lie_curvature(g, BENT4, p)
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(exact - reference).max() <= 1e-7 * scale

    def test_curvature_trivial_cases(self):
        zero = field([0.0] * 4, 4)
        p, geo = np.ones(4), FLAT4.at(np.ones(4))
        assert np.abs(
            lie_derivative_curvature(geo, zero.jets(p))
        ).max() < 1e-10
        const = field([1.0, 2.0, 0.0, 0.0], 4)
        assert np.abs(
            lie_derivative_curvature(geo, const.jets(p))
        ).max() < 1e-10


def _fd_lie_curvature(g, V, p, h=1e-3):
    """L_V R from Richardson-extrapolated central differences of L_V nabla."""
    n = g.dim
    t = lie_derivative_connection(g.at(p), V.jets(p))
    dt = np.empty((n,) + t.shape)  # dt[m, k, i, j] = d_m T^k_ij
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        d1 = (
            lie_derivative_connection(g.at(p + e), V.jets(p + e))
            - lie_derivative_connection(g.at(p - e), V.jets(p - e))
        ) / (2 * h)
        d2 = (
            lie_derivative_connection(g.at(p + 2 * e), V.jets(p + 2 * e))
            - lie_derivative_connection(g.at(p - 2 * e), V.jets(p - 2 * e))
        ) / (4 * h)
        dt[m] = (4.0 * d1 - d2) / 3.0
    gam = g.at(p).gamma
    nabla_t = (
        dt.transpose(1, 0, 2, 3)
        + np.einsum("kia,ajm->kijm", gam, t)
        - np.einsum("aij,kam->kijm", gam, t)
        - np.einsum("aim,kja->kijm", gam, t)
    )
    return nabla_t - np.einsum("kijm->kjim", nabla_t)


def _dense_metric(dim):
    """Every entry non-constant and every off-diagonal entry nonzero; positive
    definite on the sample box (diagonally dominant there)."""
    rows = [
        [
            f"{2 + 0.5 * i}+0.3*x{i + 1}*x{(i + 1) % dim + 1}+0.2*exp(0.5*x{(i + 2) % dim + 1})"
            if i == j
            else f"0.1*x{i + 1}*exp(0.3*x{j + 1})+0.05*x{(i + j) % dim + 1}^2"
            for j in range(i + 1)
        ]
        for i in range(dim)
    ]
    return MetricField.from_entries(exprs(rows, dim), dim)


def _bent_field(dim):
    """Nonlinear and not Killing."""
    entries = [f"x{i + 1}*x{(i + 1) % dim + 1}+exp(0.3*x{(i + 2) % dim + 1})" for i in range(dim)]
    return field(entries, dim)


_CONTRACTED_CASES = {
    "bumpy4": (BUMPY4, BENT4),
    "dense3": (_dense_metric(3), _bent_field(3)),
    "dense5": (_dense_metric(5), _bent_field(5)),
    "dense7": (_dense_metric(7), _bent_field(7)),
    "example2_7": (model(build_example2(2, 3, 1.0, 1.0)).metric, _bent_field(7)),
}


def _bent_tensor(dim):
    """The rows of a (1,1)-tensor field that is neither constant nor symmetric nor skew."""
    entry = "{:.2f}+0.4*x{}*x{}"
    return [
        [
            entry.format(0.3 * (k - j) + 0.1 * k * j + 0.2, k + 1, (j + 2) % dim + 1)
            for j in range(dim)
        ]
        for k in range(dim)
    ]


def _with_f(g, f):
    """A structure with metric g and (1,1)-tensor rows f; Ric* reads only
    these two.  Q = 1, and every xi_i and eta^i is the vector of ones, so the
    manifest reader's dual-basis check would refuse it: the structure tape is
    compiled here."""
    n, dim = (g.dim - 1) // 2, g.dim
    unit = [[1.0] * dim] * (dim - 2 * n)
    structure = field([*f, *np.eye(dim).tolist(), *unit, *unit], dim)
    return WeakFManifold(n, dim - 2 * n, None, g, structure)


@pytest.mark.parametrize("case", list(_CONTRACTED_CASES))
def test_contracted_routes_match_the_full_chain(case):
    # d Ric and L_V R contract g^-1 or V in first, and Ric and Ric* come from
    # the second metric jets; the reference builds the whole d^2 Gamma, d Riem
    # and Riem and contracts last
    g, V = _CONTRACTED_CASES[case]
    m = _with_f(g, _bent_tensor(g.dim))
    points = seeded_points(g.dim, count=2, seed=43)
    chunk = m.at(points)
    for q, p in enumerate(points):
        st = m.at(p)
        geo = st.geo
        ric_star = reference_ric_star(geo, st.f)
        for got, want in (
            (geo.dric, reference_dric(geo)),
            (
                lie_derivative_curvature(geo, V.jets(p)),
                reference_lie_curvature(g, V, p),
            ),
            (geo.ric, reference_ric(geo)),
            (chunk.geo.ric[q], reference_ric(geo)),
            (st.ric_star, ric_star),
            (chunk.ric_star[q], ric_star),
        ):
            scale = np.abs(want).max()
            assert scale > 1e-3
            assert np.abs(got - want).max() <= 1e-12 * scale
    assert np.abs(ric_star - np.swapaxes(ric_star, -1, -2)).max() > 1e-3  # f is general


def test_one_geometry_build_per_point(monkeypatch):
    # every third-order quantity of ids 21-23 and lemma2 comes from the
    # geometry at the sample point itself, not from offset points
    m = model(build_example2(2, 3, 1.0, 1.0))
    m = with_soliton(m, -4.0, 4.0, V=field([0.0] * 4 + [1.0] * 3, m.dim))
    builds = []
    init = Geometry.__init__

    def counting_init(self, metric, p):
        builds.append(tuple(p.tolist()))
        init(self, metric, p)

    monkeypatch.setattr(Geometry, "__init__", counting_init)
    p = seeded_points(m.dim, count=1, seed=41)[0]
    st = m.at(p)
    audit_identities(st)
    lemma2_audit(st)
    assert builds == [tuple(p.tolist())]


class TestDirectionalScalarIdentity:
    def test_reeb_directional_derivative_of_scalar(self, e2):
        # xi_i(r) matches -2 beta {r + 2sn(2n+1) beta^2}; both sides are 0 here
        h = 1e-4
        for p in seeded_points(4, count=3, seed=13):
            for i in (2, 3):
                dp = np.zeros(4)
                dp[i] = h
                fd = (
                    e2.metric.at(p + dp).scalar
                    - e2.metric.at(p - dp).scalar
                ) / (2 * h)
                r = e2.metric.at(p).scalar
                rhs = -2.0 * (r + 12.0)
                assert abs(fd - rhs) < 1e-5

    def test_perturbed_metric_reports_residual_only(self):
        # on a non-Kenmotsu perturbation the relation need not hold; the
        # residual is recorded, not asserted
        warp = "exp(2*(x3+x4))"
        g = diagonal_metric([f"{warp}*(1+0.1*x1^2)", warp, 1.0, 1.0])
        p = np.array([0.2, 0.1, -0.1, 0.3])
        h = 1e-4
        dp = np.zeros(4)
        dp[2] = h
        fd = (g.at(p + dp).scalar - g.at(p - dp).scalar) / (2 * h)
        r = g.at(p).scalar
        residual = abs(fd - (-2.0 * (r + 12.0)))
        assert np.isfinite(residual)


def _entry_jets(root, p, order=2):
    """One expression's own jets at p, d3 scattered from its tape's support
    to every coordinate."""
    tape = ex.compile_tape((root,), len(p))
    jets = list(tape.jets(p, order))
    if order == 3:
        d3 = np.zeros((len(p),) * 3)
        d3[np.ix_(*[tape.support] * 3)] = jets[3]
        jets[3] = d3
    return jets


class TestFieldSpec:
    """A field's tape, compiled with the field's shape, against the jets of
    each entry compiled alone."""

    P = np.array([0.3, -0.2, 0.1, 0.4])

    @pytest.mark.parametrize("third", [False, True])
    def test_rank1_jets_match_entries(self, third):
        order = 3 if third else 2
        out = BENT4.jets(self.P, order)
        assert len(out) == order + 1
        for k, entry in enumerate(exprs(_BENT4_ENTRIES, 4)):
            for arr, part in zip(out, _entry_jets(entry, self.P, order)):
                assert np.array_equal(arr[k], part)  # derivative axes last

    def test_rank2_jets_match_entries(self):
        rows = [["x1*x2", 0, "exp(x3)", 1], ["x4^2", "x1", 2, "x2*x3*x4"]] * 2
        entries = exprs(rows, 4)
        v, d, d2, d3 = field(rows, 4).jets(self.P, order=3)
        assert v.shape == (4, 4) and d3.shape == (4,) * 5
        for i in range(4):
            for j in range(4):
                value, grad, hess, third = _entry_jets(entries[i][j], self.P, 3)
                assert v[i, j] == value
                assert np.array_equal(d[i, j], grad)
                assert np.array_equal(d2[i, j], hess)
                assert np.array_equal(d3[i, j], third)

    @pytest.mark.parametrize("third", [False, True])
    def test_batched_jets_match_points(self, third):
        rows = [["x1*x2", 0, "exp(x3)", 1], ["x4^2", "x1", 2, "x2"]] * 2
        tape = field(rows, 4)
        points = np.stack([self.P, -self.P, 2 * self.P])
        order = 3 if third else 2
        batch = tape.jets(points, order)
        for i, p in enumerate(points):
            for arr, part in zip(batch, tape.jets(p, order)):
                assert arr.shape == (3,) + part.shape
                assert np.array_equal(arr[i], part)

    @pytest.mark.parametrize(
        "entries", [[0.0] * 3, [[0.0] * 4] * 3, [[0.0] * 3] * 4, [0.0, [0.0] * 4, 0.0, 0.0]]
    )
    def test_extents_must_equal_dim(self, entries):
        # the manifest reader checks every extent, as a (1,1)-tensor and as a vector
        data = build_example2(1, 2, 1.0, 1.0)
        for key, value in (("f", entries), ("soliton", {"lambda": 0, "mu": 0, "V": entries})):
            with pytest.raises(InputError):
                model({**data, key: value})


_DENSE5_ROWS = [
    [f"{2 + i}+0.1*x{i + 1}*x{j + 1}" if i == j else f"0.01*x{i + 1}*x{j + 1}"
     for j in range(i + 1)]
    for i in range(5)
]


def test_dense_metric_jets_each_entry_once(monkeypatch):
    # a dense symmetric dim-5 metric: 15 distinct entries, each one tape
    # output shared by its mirror; the build (order two) and d3g (order
    # three) are one tape run each
    metric = MetricField.from_entries(exprs(_DENSE5_ROWS, 5), 5)
    outputs = metric.outputs
    assert len(set(outputs)) == 15
    pairs = [(5 * i + j, 5 * j + i) for i in range(5) for j in range(5)]
    assert all(outputs[a] == outputs[b] for a, b in pairs)
    calls = []
    jet = ex.evaluate_jet

    def counting_jet(ast, point, order=2):
        calls.append(order)
        return jet(ast, point, order)

    monkeypatch.setattr(ex, "evaluate_jet", counting_jet)
    geo = metric.at(np.full(5, 0.1))
    assert calls == [2]
    d3g = geo.d3g
    assert calls == [2, 3]
    assert np.array_equal(d3g, d3g.transpose(1, 0, 2, 3, 4))


def _support_case(rows, metric=None):
    """The lower-triangle rows of a metric and its field, by default compiled from them."""
    dim = len(rows)
    return rows, metric or MetricField.from_entries(exprs(rows, dim), dim)


_E2_7 = build_example2(2, 3, 1.0, 1.0)
_TW_8 = build_twisted_product([1.0, 2.0, 3.0], 2, "exp(x7+x8)*(2+x1^2+x2*x3)")

# the metric's support: partial (example2 reads x5..x7, the twisted product
# x1..x3 and x7, x8), every coordinate, and none; the manifests' metrics are
# the ones the manifest reader compiles
_SUPPORT_CASES = {
    "example2_7": (*_support_case(_E2_7["metric"], model(_E2_7).metric), (4, 5, 6)),
    "twisted_8": (*_support_case(_TW_8["metric"], model(_TW_8).metric), (0, 1, 2, 6, 7)),
    "dense5": (*_support_case(_DENSE5_ROWS), (0, 1, 2, 3, 4)),
    "constant4": (*_support_case([[2], [0.3, 1.5], [0, -0.2, 1.8], [0.1, 0, 0, 1]]), ()),
}


def _square(rows):
    """The parsed entries of a metric's lower-triangle rows, mirrored to the square."""
    n, lower = len(rows), exprs(rows, len(rows))
    return [[lower[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


def _coordinates(node) -> set:
    """The coordinates an expression tree reads, walked node by node."""
    if node.kind == "var":
        return {node.index}
    return set().union(*(_coordinates(child) for child in node.children))


@pytest.mark.parametrize("case", list(_SUPPORT_CASES))
def test_tape_support_is_the_union_of_entry_coordinates(case):
    rows, metric, want = _SUPPORT_CASES[case]
    entries = [e for row in _square(rows) for e in row]
    assert metric.support == tuple(sorted(set().union(*(_coordinates(e) for e in entries))))
    assert metric.support == want


@pytest.mark.parametrize("case", list(_SUPPORT_CASES))
def test_compact_d3g_is_the_dense_jets_on_the_support(case):
    # each entry's own jets are dense over every coordinate; d3g keeps the
    # tape support's block of them and the rest is zero.  Bits are compared
    # with -0.0 read as +0.0: an entry's own tape has a narrower support, so
    # a zero the shared tape computes as -0.0 is a structural +0.0 there
    rows, metric, _ = _SUPPORT_CASES[case]
    n, s = metric.dim, list(metric.support)
    for p in seeded_points(n, count=2, seed=47):
        geo = metric.at(p)
        assert np.array_equal(geo.support, s)
        assert geo.d3g.shape == (n, n) + (len(s),) * 3
        dense = np.array(
            [[_entry_jets(e, p, order=3)[3] for e in row] for row in _square(rows)]
        )
        block = np.ix_(s, s, s)
        assert (geo.d3g + 0.0).tobytes() == (dense[(..., *block)] + 0.0).tobytes()
        dense[(..., *block)] = 0.0
        assert not dense.any()
