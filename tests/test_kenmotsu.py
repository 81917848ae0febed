import dataclasses

import numpy as np
import pytest

from wfk.checks import CATALOGUE
from wfk.kenmotsu import IDENTITY_IDS, build_example2, build_twisted_product, eta_einstein_fit

from conftest import diagonal_metric, example_manifold, group_residuals, model, seeded_points

O = np.zeros(4)


def _flat_product(scales, s):
    return model(build_twisted_product(scales, s, "1"))


class TestDefiningCondition:
    def test_reference_instance(self, e2):
        for p in seeded_points(4, count=10, seed=20):
            assert group_residuals("kenmotsu", e2.at(p))["kenmotsu.12"] < 1e-8

    def test_wrong_coefficient_is_rejected(self, e2):
        wrong = dataclasses.replace(e2, beta=2.0)
        assert group_residuals("kenmotsu", wrong.at(O))["kenmotsu.12"] > 0.5

    def test_constant_structure_product(self):
        m = _flat_product([1.0], 1)
        assert m.beta == 0.0
        for p in seeded_points(3, count=3, seed=22):
            assert group_residuals("kenmotsu", m.at(p))["kenmotsu.12"] < 1e-10


class TestIdentityAudit:
    def test_full_catalogue_on_reference_instance(self, e2):
        for p in seeded_points(4, count=5, seed=24):
            for cid, r in group_residuals("identities", e2.at(p)).items():
                assert r <= CATALOGUE[cid].tolerance, (cid, r)

    def test_jet_exact_identity(self, e2):
        assert group_residuals("identities", e2.at(O))["id.13"] < 1e-10

    def test_ricci_operator_on_reeb_field(self, e2):
        st = e2.at(O)
        rs = st.geo.ginv @ st.geo.ric
        assert rs @ st.xi[0] == pytest.approx([0.0, 0.0, -2.0, -2.0])

    def test_tolerances_by_kind(self, e2):
        for cid in group_residuals("identities", e2.at(O)):
            assert CATALOGUE[cid].tolerance == 1e-8

    def test_second_parameter_set(self):
        m = example_manifold(2, 2, 0.5, 1.0)
        p = seeded_points(6, count=1, seed=26)[0]
        for cid, r in group_residuals("identities", m.at(p)).items():
            assert r <= CATALOGUE[cid].tolerance, (cid, r)


class TestExplicitModel:
    def test_shape_and_origin_metric(self, e2):
        assert e2.dim == 4
        assert e2.at(O).geo.g == pytest.approx(np.eye(4))

    def test_classical_reduction(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        p = seeded_points(3, count=1, seed=28)[0]
        assert m.at(p).Q == pytest.approx(np.eye(3))
        assert group_residuals("kenmotsu", m.at(p))["kenmotsu.12"] < 1e-10

    def test_larger_instance(self):
        m = example_manifold(2, 2, 0.5, 1.0)
        for p in seeded_points(6, count=3, seed=30):
            assert group_residuals("kenmotsu", m.at(p))["kenmotsu.12"] < 1e-8

    @pytest.mark.parametrize(
        "n,s,beta,c", [(0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0), (1, 1, 0.0, 0.0), (1, 1, 1.0, -0.5)]
    )
    def test_invalid_parameters(self, n, s, beta, c):
        with pytest.raises(ValueError):
            build_example2(n, s, beta, c)

    def test_reeb_second_fundamental_symmetry(self, e2):
        """nabla_{xi_i} xi_j + nabla_{xi_j} xi_i vanishes."""
        for p in seeded_points(4, count=3, seed=32):
            st = e2.at(p)
            nab = st.nabla_xi  # [i, k, a] = (nabla_a xi_i)^k
            for i in range(2):
                for j in range(2):
                    v = nab[j] @ st.xi[i] + nab[i] @ st.xi[j]
                    assert np.abs(v).max() < 1e-8


class TestTwistedProducts:
    def test_warped_plane(self):
        m = model(build_twisted_product([1.0], 1, "exp(x3)"))
        assert m.beta == pytest.approx(1.0)
        for p in seeded_points(3, count=3, seed=34):
            assert group_residuals("kenmotsu", m.at(p))["kenmotsu.12"] < 1e-8

    def test_two_factor_spectrum(self):
        m = model(build_twisted_product([1.0, 2.0], 2, "exp(x5+x6)"))
        q_eigs = np.linalg.eigvalsh(m.at(np.zeros(6)).Q)
        assert sorted(q_eigs) == pytest.approx([1, 1, 1, 1, 4, 4])

    def test_trivial_twist_gives_zero_coefficient(self):
        m = _flat_product([1.0, 2.0], 2)
        assert m.beta == 0.0
        assert group_residuals("kenmotsu", m.at(np.zeros(6)))["kenmotsu.12"] < 1e-10

    def test_genuinely_twisted_connection_relations(self):
        dim = 3
        m = model(build_twisted_product([1.0], 1, "exp(x3+x1^2)"))
        for p in seeded_points(dim, count=4, seed=36):
            for cid, r in group_residuals("twisted", m.at(p)).items():
                assert r < 1e-6, (cid, r)

    @staticmethod
    def _stretched_leaf(eps):
        """(i) and (ii) at 20 points of the dim-3 twisted product, its metric's
        second fiber entry times (1 + eps x3): no longer a twisted product."""
        sigma = "exp(x3)*(2+x1^2)"
        m = model(build_twisted_product([1.0], 1, sigma))
        entries = [f"({sigma})^2", f"({sigma})^2*(1+{eps!r}*x3)", 1.0]
        m = dataclasses.replace(m, metric=diagonal_metric(entries))
        res = group_residuals("twisted", m.at(np.array(seeded_points(3, count=20, seed=38))))
        return res["twisted.i"], res["twisted.ii"]

    @pytest.mark.parametrize("which", [0, 1], ids=["twisted.i", "twisted.ii"])
    def test_a_stretched_leaf_fails_to_first_order(self, which):
        once, twice = self._stretched_leaf(1e-3)[which], self._stretched_leaf(2e-3)[which]
        assert once.min() > CATALOGUE["twisted.i"].tolerance == CATALOGUE["twisted.ii"].tolerance
        assert np.all((1.5 <= twice / once) & (twice / once <= 2.5)), twice / once

    def test_audit_requires_twisted_builder(self, e2):
        # the audit reads sigma unguarded: on a model without one its ids are blocked
        from wfk.checks import CheckContext, run_check_ids

        with pytest.raises(ValueError, match="twisted-product sigma"):
            run_check_ids(CheckContext(e2), ["twisted.i"], [O])


class TestEtaEinsteinFit:
    def test_reference_instance(self, e2):
        fit = eta_einstein_fit(e2.at(O))
        assert fit.a == pytest.approx(-4.0)
        assert fit.b == pytest.approx(2.0)
        assert fit.residual < 1e-8
        assert fit.predicted == pytest.approx((fit.a, fit.b))

    def test_classical_instance_is_einstein(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        fit = eta_einstein_fit(m.at(np.zeros(3)))
        assert fit.a == pytest.approx(-2.0)
        assert fit.b == pytest.approx(0.0, abs=1e-10)

    def test_flat_product(self):
        m = _flat_product([1.0], 1)
        fit = eta_einstein_fit(m.at(np.zeros(3)))
        assert abs(fit.a) < 1e-10 and abs(fit.b) < 1e-10
        assert fit.residual < 1e-10
