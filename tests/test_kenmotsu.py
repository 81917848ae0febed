import numpy as np
import pytest

from wfk import expr as ex
from wfk.kenmotsu import (
    IDENTITY_IDS,
    FiberSpec,
    audit_identities,
    build_example2,
    build_twisted_product,
    eta_einstein_fit,
    kenmotsu_residual,
)

from conftest import example_manifold, seeded_points

O = np.zeros(4)


def _flat_product(dim_fiber_scales, s, total_dim):
    fib = FiberSpec.flat_factors(dim_fiber_scales, total_dim)
    return build_twisted_product(fib, s, ex.const(1.0, total_dim))


class TestDefiningCondition:
    def test_reference_instance(self, e2):
        for p in seeded_points(4, count=10, seed=20):
            assert kenmotsu_residual(e2.at(p)).residual < 1e-8

    def test_wrong_coefficient_is_rejected(self, e2):
        assert kenmotsu_residual(e2.at(O), beta=2.0).residual > 0.5

    def test_constant_structure_product(self):
        m = _flat_product([1.0], 1, 3)
        assert m.beta == 0.0
        for p in seeded_points(3, count=3, seed=22):
            assert kenmotsu_residual(m.at(p)).residual < 1e-10


class TestIdentityAudit:
    def test_full_catalogue_on_reference_instance(self, e2):
        for p in seeded_points(4, count=5, seed=24):
            for r in audit_identities(e2.at(p)):
                assert r.passed, (r.check_id, r.residual)

    def test_jet_exact_identity(self, e2):
        by_id = {r.check_id: r for r in audit_identities(e2.at(O), ids=("13",))}
        assert by_id["id.13"].residual < 1e-10

    def test_ricci_operator_on_reeb_field(self, e2):
        st = e2.at(O)
        rs = st.geo.ginv @ st.geo.ric
        assert rs @ st.xi[0] == pytest.approx([0.0, 0.0, -2.0, -2.0])

    def test_tolerances_by_kind(self, e2):
        for r in audit_identities(e2.at(O)):
            assert r.tolerance == 1e-8

    def test_unknown_identity_id(self, e2):
        with pytest.raises(KeyError):
            audit_identities(e2.at(O), ids=("99",))

    def test_second_parameter_set(self):
        m = example_manifold(2, 2, 0.5, 1.0)
        p = seeded_points(6, count=1, seed=26)[0]
        for r in audit_identities(m.at(p)):
            assert r.passed, (r.check_id, r.residual)


class TestExplicitModel:
    def test_shape_and_origin_metric(self, e2):
        assert e2.dim == 4
        assert e2.at(O).geo.g == pytest.approx(np.eye(4))

    def test_classical_reduction(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        p = seeded_points(3, count=1, seed=28)[0]
        assert m.at(p).Q == pytest.approx(np.eye(3))
        assert kenmotsu_residual(m.at(p)).residual < 1e-10

    def test_larger_instance(self):
        m = example_manifold(2, 2, 0.5, 1.0)
        for p in seeded_points(6, count=3, seed=30):
            assert kenmotsu_residual(m.at(p)).residual < 1e-8

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
            for i in range(2):
                for j in range(2):
                    v = st.nabla_vector(j) @ st.xi[i] + st.nabla_vector(i) @ st.xi[j]
                    assert np.abs(v).max() < 1e-8


class TestTwistedProducts:
    def test_warped_plane(self):
        fib = FiberSpec.flat_factors([1.0], 3)
        m = build_twisted_product(fib, 1, ex.exp(ex.var(2, 3)))
        assert m.beta == pytest.approx(1.0)
        for p in seeded_points(3, count=3, seed=34):
            assert kenmotsu_residual(m.at(p)).residual < 1e-8

    def test_two_factor_spectrum(self):
        fib = FiberSpec.flat_factors([1.0, 2.0], 6)
        m = build_twisted_product(
            fib, 2, ex.exp(ex.add(ex.var(4, 6), ex.var(5, 6)))
        )
        q_eigs = np.linalg.eigvalsh(m.at(np.zeros(6)).Q)
        assert sorted(q_eigs) == pytest.approx([1, 1, 1, 1, 4, 4])

    def test_trivial_twist_gives_zero_coefficient(self):
        m = _flat_product([1.0, 2.0], 2, 6)
        assert m.beta == 0.0
        assert kenmotsu_residual(m.at(np.zeros(6))).residual < 1e-10

    def test_genuinely_twisted_connection_relations(self):
        dim = 3
        sigma = ex.exp(ex.add(ex.var(2, dim), ex.powi(ex.var(0, dim), 2)))
        fib = FiberSpec.flat_factors([1.0], dim)
        m = build_twisted_product(fib, 1, sigma)
        from wfk.kenmotsu import twisted_product_audit

        for p in seeded_points(dim, count=4, seed=36):
            for r in twisted_product_audit(m.at(p)):
                assert r.residual < 1e-6, (r.check_id, r.residual)

    def test_audit_requires_twisted_builder(self, e2):
        from wfk.kenmotsu import twisted_product_audit

        with pytest.raises(ValueError):
            twisted_product_audit(e2.at(O))


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
        m = _flat_product([1.0], 1, 3)
        fit = eta_einstein_fit(m.at(np.zeros(3)))
        assert abs(fit.a) < 1e-10 and abs(fit.b) < 1e-10
        assert fit.residual < 1e-10
