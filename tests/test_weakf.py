import numpy as np
import pytest

from wfk.checks import CATALOGUE
from wfk.geometry import coboundary_2form
from wfk.kenmotsu import build_example2, build_twisted_product
from wfk.weakf import (
    least_squares,
    nijenhuis_tensor,
    normality_tensor,
    tensor_residual,
    theorem1_check,
    wedge_1form_2form,
)

from conftest import example_manifold, field, group_residuals, model, seeded_points
from reference_forms import fundamental_form_field

O = np.zeros(4)


def _perturbed_f_data():
    """The reference instance's manifest with f's (1,2) entry shifted by 0.1*x3."""
    data = build_example2(1, 2, 1.0, 1.0)
    data["f"][0][1] = f"{data['f'][0][1]}+0.1*x3"
    return data


def _perturbed_f_manifold():
    return model(_perturbed_f_data())


class TestAxioms:
    def test_reference_instance_clean(self, e2):
        for p in [O] + seeded_points(4, count=5):
            assert all(r < 1e-10 for r in group_residuals("axioms", e2.at(p)).values())

    def test_wrong_q_breaks_square_axiom(self):
        data = build_example2(1, 2, 1.0, 1.0)
        data["Q"] = np.eye(4).tolist()
        broken = model(data)
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
        ident, d_ident, _ = field(np.eye(4), 4).jets(O)
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
    def test_hand_values(self):
        phi = fundamental_form_field(build_example2(1, 2, 1.0, 1.0)).jets(O)[0]
        assert phi[0, 1] == pytest.approx(-np.sqrt(2.0))
        assert np.abs(phi + phi.T).max() < 1e-12
        assert np.abs(phi[2:, :]).max() < 1e-12  # Phi(xi_i, .) = 0

    def test_metric_scaling(self):
        phi = fundamental_form_field(build_example2(1, 2, 1.0, 1.0))
        phi = phi.jets(np.array([0.0, 0.0, 1.0, 0.0]))[0]
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
        data = build_example2(1, 2, 1.0, 1.0)
        warp = data["metric"][0][0]
        assert warp == "exp(2*(x3+x4))"
        data["metric"][0][0] = f"{warp}*(1+0.1*(x1*x3))"
        m = model(data)
        p = np.array([0.3, 0.1, -0.2, 0.2])
        by_id = group_residuals("theorem1", m.at(p))
        assert by_id["deta"] < 1e-12
        assert by_id["dphi"] > 1e-4


def _twisted_d8_data():
    return build_twisted_product([1.0, 2.0, 3.0], 2, "exp(x7+x8)*(2+x1^2+x2*x3)")


class TestTheorem1SymbolicRoute:
    """theorem1_check differentiates Phi = g f at the point from the jets of g
    and f; the symbolic route jets the manifest's f and eta^i as tapes of
    their own and builds Phi as expressions.  The two routes agree component
    by component."""

    @pytest.mark.parametrize(
        "build, dphi_fails",
        [
            (lambda: build_example2(2, 3, 1.0, 1.0), False),
            (_perturbed_f_data, True),  # f varies, so g df counts
            (_twisted_d8_data, True),
        ],
        ids=["example2", "perturbed-f", "twisted"],
    )
    def test_residuals_match(self, build, dphi_fails):
        data = build()
        m = model(data)
        eta = [field(w, m.dim) for w in data["eta"]]
        f_field, phi_field = field(data["f"], m.dim), fundamental_form_field(data)
        dphi_failed = False
        for p in seeded_points(m.dim, count=4, seed=23):
            st = m.at(p)
            by_id = theorem1_check(st)
            deta = np.stack([0.5 * (dw.T - dw) for _, dw, _ in (w.jets(p) for w in eta)])
            f, df, _ = f_field.jets(p)
            n1 = nijenhuis_tensor(st, f, df) + 2.0 * np.einsum("iab,ik->kab", deta, st.xi)
            phi, dphi, _ = phi_field.jets(p)
            dphi = coboundary_2form(dphi)
            rhs = 2.0 * st.m.beta * wedge_1form_2form(st.etabar, phi)
            for cid, t in (("n1", n1), ("dphi", dphi - rhs)):
                scale = max(1.0, np.abs(t).max(), np.abs(dphi).max())
                assert by_id[cid].shape == t.shape, cid
                assert np.abs(by_id[cid] - t).max() <= 1e-12 * scale, cid
            dphi_failed |= not tensor_residual(by_id["dphi"]) <= CATALOGUE["dphi"].tolerance
        assert dphi_failed == dphi_fails


def _varying_fields_data():
    """The dim-7 example2 manifest with f, xi and eta varying."""
    data = build_example2(2, 3, 1.0, 1.0)
    data["f"][0][1] = "0.1*x3"
    data["xi"][0][0] = "0.1*x1"
    data["eta"][1][1] = "0.2*x2*x6"
    return data


class TestStructureTape:
    """A structure splits one first-order run of the manifold's tape into f,
    Q, the xi_i and the eta^i; each part is the jets of that field of the
    manifest compiled as a tape of its own."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_example2(1, 2, 1.0, 1.0),
            _twisted_d8_data,
            _perturbed_f_data,
            _varying_fields_data,
        ],
        ids=["example2", "twisted", "perturbed-f", "varying-fields"],
    )
    @pytest.mark.parametrize("count", [1, 3], ids=["point", "chunk"])
    def test_arrays_are_each_fields_own_jets(self, build, count):
        data = build()
        m = model(data)
        points = np.array(seeded_points(m.dim, count=count, seed=37))
        p = points[0] if count == 1 else points
        st = m.at(p)
        parts = [(data["f"], st.f, st.df), (data["Q"], st.Q, st.dQ)]
        parts += [(v, st.xi[..., i, :], st.dxi[..., i, :, :]) for i, v in enumerate(data["xi"])]
        parts += [
            (w, st.eta[..., i, :], st.deta[..., i, :, :]) for i, w in enumerate(data["eta"])
        ]
        for raw, value, d in parts:
            want = field(raw, m.dim).jets(p, order=1)
            assert np.array_equal(value, want[0]) and np.array_equal(d, want[1])
        assert st.f.shape == p.shape[:-1] + (m.dim, m.dim)
        assert st.deta.shape == p.shape[:-1] + (m.s, m.dim, m.dim)

    def test_tape_rows(self):
        m = model(_varying_fields_data())
        assert len(m.tape.outputs) == (2 * m.dim + 2 * m.s) * m.dim
        assert m.tape.shape == (2 * m.dim + 2 * m.s, m.dim)
        # x1 (xi_1), x2 and x6 (eta^2) and x3 (f)
        assert m.tape.support == (0, 1, 2, 5)
        assert example_manifold().tape.support == ()


class TestLeastSquares:
    """``least_squares`` against ``np.linalg.lstsq``, one design at a time."""

    @staticmethod
    def _lstsq(target, columns, i):
        design = np.stack([c[i].ravel() for c in columns], axis=-1)
        coef = np.linalg.lstsq(design, target[i].ravel(), rcond=None)[0]
        return coef, target[i] - (design @ coef).reshape(target[i].shape)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["point", "chunk"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_lstsq(self, k, batch):
        rng = np.random.default_rng(10 * k + len(batch))
        shape = batch + (2, 4)
        target = rng.standard_normal(shape)
        columns = [rng.standard_normal(shape) for _ in range(k)]
        *coef, rest = least_squares(target, *columns, lead=len(batch))
        assert [np.shape(c) for c in coef] == [batch] * k and rest.shape == shape
        for i in np.ndindex(batch):
            want, want_rest = self._lstsq(target, columns, i)
            np.testing.assert_allclose([c[i] for c in coef], want, rtol=1e-12)
            np.testing.assert_allclose(rest[i], want_rest, atol=1e-12)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["point", "chunk"])
    def test_a_zero_column_gets_coefficient_zero(self, batch):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(batch + (2, 4))
        col, zero = rng.standard_normal(target.shape), np.zeros(target.shape)
        alone, rest = least_squares(target, zero, lead=len(batch))
        assert np.all(alone == 0) and np.array_equal(rest, target)
        a, b, rest = least_squares(target, col, zero, lead=len(batch))
        assert np.all(b == 0)
        for i in np.ndindex(batch):
            want, want_rest = self._lstsq(target, [col, zero], i)
            assert want[1] == 0
            np.testing.assert_allclose(a[i], want[0], rtol=1e-12)
            np.testing.assert_allclose(rest[i], want_rest, atol=1e-12)

    def test_a_column_zero_at_one_point_of_a_chunk(self):
        rng = np.random.default_rng(6)
        target, col = rng.standard_normal((2, 3, 2, 4))
        col[1] = 0
        c, rest = least_squares(target, col, lead=1)
        assert c[1] == 0 and np.array_equal(rest[1], target[1])
        for i in (0, 2):
            want, want_rest = self._lstsq(target, [col], i)
            np.testing.assert_allclose(c[i], want[0], rtol=1e-12)
            np.testing.assert_allclose(rest[i], want_rest, atol=1e-12)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["point", "chunk"])
    def test_parallel_columns_take_the_minimum_norm_solution(self, batch):
        # the design's second singular value is rounding, below lstsq's cutoff
        rng = np.random.default_rng(7)
        target, col = rng.standard_normal((2,) + batch + (2, 4))
        a, b, rest = least_squares(target, col, 3 * col, lead=len(batch))
        for i in np.ndindex(batch):
            want, want_rest = self._lstsq(target, [col, 3 * col], i)
            np.testing.assert_allclose([a[i], b[i]], want, rtol=1e-12)
            np.testing.assert_allclose(3 * a[i], b[i], rtol=1e-12)
            np.testing.assert_allclose(rest[i], want_rest, atol=1e-12)
