import numpy as np
import pytest

from wfk.checks import CATALOGUE
from wfk.geometry import FieldSpec, coboundary_2form
from wfk.kenmotsu import build_example2, build_twisted_product
from wfk.weakf import (
    WeakFManifold,
    nijenhuis_tensor,
    normality_tensor,
    tensor_residual,
    theorem1_check,
    wedge_1form_2form,
)

from conftest import (
    diagonal_metric,
    example_manifold,
    exprs,
    group_residuals,
    model,
    seeded_points,
)
from reference_forms import fundamental_form_field

O = np.zeros(4)


def _perturbed_f_manifold():
    """Reference instance with f's (1,2) entry shifted by 0.1*x3."""
    data = build_example2(1, 2, 1.0, 1.0)
    data["f"][0][1] = f"{data['f'][0][1]}+0.1*x3"
    return model(data)


class TestAxioms:
    def test_reference_instance_clean(self, e2):
        for p in [O] + seeded_points(4, count=5):
            assert all(r < 1e-10 for r in group_residuals("axioms", e2.at(p)).values())

    def test_wrong_q_breaks_square_axiom(self, e2):
        broken = WeakFManifold(
            n=1, s=2, beta=1.0, metric=e2.metric, f=e2.f,
            Q=FieldSpec(4, exprs(np.eye(4), 4)),
            xi=e2.xi, eta=e2.eta,
        )
        assert group_residuals("axioms", broken.at(O))["axiom.5"] == pytest.approx(1.0)  # = c

    def test_classical_case_clean(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        assert all(r < 1e-10 for r in group_residuals("axioms", m.at(np.zeros(3))).values())

    def test_skew_rank_and_duality_invariants(self, e2):
        for p in seeded_points(4, count=3, seed=2):
            st = e2.at(p)
            g = st.geo.g
            fg = np.einsum("ma,mb->ab", st.f, g)  # g(f e_a, e_b)
            assert np.abs(fg + fg.T).max() < 1e-10
            sv = np.linalg.svd(st.f, compute_uv=False)
            assert np.all(sv[:2] > 1e-8) and np.all(sv[2:] < 1e-10)
            for i in range(2):
                assert np.abs(g @ st.xi[i] - st.eta[i]).max() < 1e-10


class TestNijenhuis:
    def test_structure_tensor_torsion_free(self, e2):
        for p in seeded_points(4, count=3, seed=4):
            st = e2.at(p)
            assert np.abs(nijenhuis_tensor(st, st.f, st.df)).max() < 1e-8

    def test_identity_tensor(self, e2):
        ident, d_ident, _ = FieldSpec(4, exprs(np.eye(4), 4)).jets(O)
        assert np.abs(nijenhuis_tensor(e2.at(O), ident, d_ident)).max() < 1e-12

    def test_flat_rotation(self):
        m = model(build_twisted_product([1.0], 1, "1"))
        st = m.at(np.zeros(3))
        assert np.abs(nijenhuis_tensor(st, st.f, st.df)).max() < 1e-12


class TestNormality:
    def test_reference_instance(self, e2):
        for p in seeded_points(4, count=3, seed=6):
            assert np.abs(normality_tensor(e2.at(p))).max() < 1e-8

    def test_perturbed_f_is_flagged(self):
        m = _perturbed_f_manifold()
        p = np.array([0.1, 0.2, 0.3, 0.1])
        assert np.abs(normality_tensor(m.at(p))).max() > 1e-4


class TestFundamentalForm:
    def test_hand_values(self, e2):
        phi = fundamental_form_field(e2).jets(O)[0]
        assert phi[0, 1] == pytest.approx(-np.sqrt(2.0))
        assert np.abs(phi + phi.T).max() < 1e-12
        assert np.abs(phi[2:, :]).max() < 1e-12  # Phi(xi_i, .) = 0

    def test_metric_scaling(self, e2):
        phi = fundamental_form_field(e2).jets(np.array([0.0, 0.0, 1.0, 0.0]))[0]
        assert phi[0, 1] == pytest.approx(-np.sqrt(2.0) * np.e**2)


class TestTheorem1:
    def test_reference_instance(self, e2):
        for p in seeded_points(4, count=3, seed=12):
            for cid, r in group_residuals("theorem1", e2.at(p)).items():
                assert r < 1e-6, cid

    def test_product_case_closed_form(self):
        m = model(build_twisted_product([1.0, 2.0], 2, "1"))
        assert m.beta == 0.0
        for cid, r in group_residuals("theorem1", m.at(np.zeros(6))).items():
            assert r < 1e-8, cid

    def test_perturbed_metric_breaks_dphi_only(self):
        base = example_manifold()
        warp = "exp(2*(x3+x4))"
        g = diagonal_metric([f"{warp}*(1+0.1*(x1*x3))", warp, 1.0, 1.0])
        m = WeakFManifold(
            n=1, s=2, beta=1.0, metric=g, f=base.f, Q=base.Q,
            xi=base.xi, eta=base.eta,
        )
        p = np.array([0.3, 0.1, -0.2, 0.2])
        by_id = group_residuals("theorem1", m.at(p))
        assert by_id["deta"] < 1e-12
        assert by_id["dphi"] > 1e-4


def _twisted_d8():
    return model(build_twisted_product([1.0, 2.0, 3.0], 2, "exp(x7+x8)*(2+x1^2+x2*x3)"))


class TestTheorem1SymbolicRoute:
    """theorem1_check differentiates Phi = g f at the point from the jets of g
    and f; the symbolic route jets f again and builds Phi as expressions.
    The two routes agree component by component."""

    @pytest.mark.parametrize(
        "build, dphi_fails",
        [
            (lambda: example_manifold(2, 3, 1.0, 1.0), False),
            (_perturbed_f_manifold, True),  # f varies, so g df counts
            (_twisted_d8, True),
        ],
        ids=["example2", "perturbed-f", "twisted"],
    )
    def test_residuals_match(self, build, dphi_fails):
        m = build()
        dphi_failed = False
        for p in seeded_points(m.dim, count=4, seed=23):
            st = m.at(p)
            by_id = theorem1_check(st)
            deta = np.stack([0.5 * (dw.T - dw) for _, dw, _ in (w.jets(p) for w in m.eta)])
            f, df, _ = m.f.jets(p)
            n1 = nijenhuis_tensor(st, f, df) + 2.0 * np.einsum("iab,ik->kab", deta, st.xi)
            phi, dphi, _ = fundamental_form_field(m).jets(p)
            dphi = coboundary_2form(dphi)
            rhs = 2.0 * st.m.beta * wedge_1form_2form(st.etabar, phi)
            for cid, t in (("n1", n1), ("dphi", dphi - rhs)):
                scale = max(1.0, np.abs(t).max(), np.abs(dphi).max())
                assert by_id[cid].shape == t.shape, cid
                assert np.abs(by_id[cid] - t).max() <= 1e-12 * scale, cid
            dphi_failed |= not tensor_residual(by_id["dphi"]) <= CATALOGUE["dphi"].tolerance
        assert dphi_failed == dphi_fails


def _varying_fields_manifold():
    """The dim-7 example2 manifest with f, xi and eta varying, as the CLI reads it."""
    data = build_example2(2, 3, 1.0, 1.0)
    data["f"][0][1] = "0.1*x3"
    data["xi"][0][0] = "0.1*x1"
    data["eta"][1][1] = "0.2*x2*x6"
    return model(data)


class TestStructureTape:
    """A structure splits one first-order run of the manifold's tape into f,
    Q, the xi_i and the eta^i; each part is that field's own jets."""

    @pytest.mark.parametrize(
        "build",
        [example_manifold, _twisted_d8, _perturbed_f_manifold, _varying_fields_manifold],
        ids=["example2", "twisted", "perturbed-f", "varying-fields"],
    )
    @pytest.mark.parametrize("count", [1, 3], ids=["point", "chunk"])
    def test_arrays_are_each_fields_own_jets(self, build, count):
        m = build()
        points = np.array(seeded_points(m.dim, count=count, seed=37))
        p = points[0] if count == 1 else points
        st = m.at(p)
        parts = [(m.f, st.f, st.df), (m.Q, st.Q, st.dQ)]
        parts += [(v, st.xi[..., i, :], st.dxi[..., i, :, :]) for i, v in enumerate(m.xi)]
        parts += [(w, st.eta[..., i, :], st.deta[..., i, :, :]) for i, w in enumerate(m.eta)]
        for field, value, d in parts:
            want = field.jets(p, order=1)
            assert np.array_equal(value, want[0]) and np.array_equal(d, want[1])
        assert st.f.shape == p.shape[:-1] + (m.dim, m.dim)
        assert st.deta.shape == p.shape[:-1] + (m.s, m.dim, m.dim)

    def test_tape_rows(self):
        m = _varying_fields_manifold()
        assert len(m.tape.outputs) == (2 * m.dim + 2 * m.s) * m.dim
        # x1 (xi_1), x2 and x6 (eta^2) and x3 (f)
        assert m.tape.support == (0, 1, 2, 5)
        assert example_manifold().tape.support == ()
