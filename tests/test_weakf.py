import numpy as np
import pytest

from wfk import expr as ex
from wfk.geometry import (
    FieldSpec,
    MetricField,
    exterior_derivative_1form,
    exterior_derivative_2form,
)
from wfk.kenmotsu import FiberSpec, build_example2, build_twisted_product
from wfk.weakf import (
    WeakFManifold,
    _random_probes,
    check_axioms,
    f_basis,
    fundamental_form,
    fundamental_form_field,
    nijenhuis,
    normality_tensor,
    probe_vectors,
    tensor_residual,
    theorem1_check,
    wedge_1form_2form,
)

from conftest import example_manifold, seeded_points

O = np.zeros(4)


def _perturbed_f_manifold():
    """Reference instance with f's (1,2) entry shifted by 0.1*x3."""
    base = example_manifold()
    rows = [list(r) for r in base.f.entries]
    rows[0][1] = ex.add(rows[0][1], ex.mul(ex.const(0.1, 4), ex.var(2, 4)))
    return WeakFManifold(
        n=base.n, s=base.s, beta=base.beta, c=base.c, metric=base.metric,
        f=FieldSpec(4, tuple(tuple(r) for r in rows)), Q=base.Q,
        xi=base.xi, eta=base.eta,
    )


class TestAxioms:
    def test_reference_instance_clean(self, e2):
        for p in [O] + seeded_points(4, count=5):
            assert all(r.residual < 1e-10 for r in check_axioms(e2.at(p)))

    def test_wrong_q_breaks_square_axiom(self, e2):
        broken = WeakFManifold(
            n=1, s=2, beta=1.0, c=1.0, metric=e2.metric, f=e2.f,
            Q=FieldSpec.from_entries(np.eye(4).tolist(), 4),
            xi=e2.xi, eta=e2.eta,
        )
        by_id = {r.check_id: r for r in check_axioms(broken.at(O))}
        assert by_id["axiom.5"].residual == pytest.approx(1.0)  # = c

    def test_classical_case_clean(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        assert all(r.residual < 1e-10 for r in check_axioms(m.at(np.zeros(3))))

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
            assert np.abs(nijenhuis(e2.at(p), e2.f).components).max() < 1e-8

    def test_identity_tensor(self, e2):
        ident = FieldSpec.from_entries(np.eye(4).tolist(), 4)
        assert np.abs(nijenhuis(e2.at(O), ident).components).max() < 1e-12

    def test_flat_rotation(self):
        fib = FiberSpec.flat_factors([1.0], 3)
        m = build_twisted_product(fib, 1, ex.const(1.0, 3))
        assert np.abs(nijenhuis(m.at(np.zeros(3)), m.f).components).max() < 1e-12


class TestNormality:
    def test_reference_instance(self, e2):
        for p in seeded_points(4, count=3, seed=6):
            assert np.abs(normality_tensor(e2.at(p)).components).max() < 1e-8

    def test_perturbed_f_is_flagged(self):
        m = _perturbed_f_manifold()
        p = np.array([0.1, 0.2, 0.3, 0.1])
        assert np.abs(normality_tensor(m.at(p)).components).max() > 1e-4


class TestFundamentalForm:
    def test_hand_values(self, e2):
        phi = fundamental_form(e2.at(O)).components
        assert phi[0, 1] == pytest.approx(-np.sqrt(2.0))
        assert np.abs(phi + phi.T).max() < 1e-12
        assert np.abs(phi[2:, :]).max() < 1e-12  # Phi(xi_i, .) = 0

    def test_metric_scaling(self, e2):
        phi = fundamental_form(e2.at([0, 0, 1, 0])).components
        assert phi[0, 1] == pytest.approx(-np.sqrt(2.0) * np.e**2)


class TestFBasis:
    def test_reference_frame(self, e2):
        frame, lam = f_basis(e2.at(O))
        assert lam == pytest.approx([2.0])
        assert frame == pytest.approx(
            np.array(
                [
                    [1, 0, 0, 0],
                    [0, np.sqrt(2.0), 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                ]
            )
        )

    def test_classical_eigenvalue(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        _, lam = f_basis(m.at(np.zeros(3)))
        assert lam == pytest.approx([1.0])

    def test_two_factor_eigenvalues(self):
        fib = FiberSpec.flat_factors([1.0, 2.0], 6)
        m = build_twisted_product(
            fib, 2, ex.exp(ex.add(ex.var(4, 6), ex.var(5, 6)))
        )
        _, lam = f_basis(m.at(np.zeros(6)))
        assert sorted(lam) == pytest.approx([1.0, 4.0])

    def test_orthogonality_invariants(self, e2):
        for p in seeded_points(4, count=3, seed=10):
            frame, lam = f_basis(e2.at(p))
            st = e2.at(p)
            g = st.geo.g
            gram = frame @ g @ frame.T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-9
            for k, lk in enumerate(lam):
                e_k = frame[2 * k]
                fe = st.f @ e_k
                assert abs(fe @ g @ fe - lk) < 1e-9
                assert abs(e_k @ g @ e_k - 1.0) < 1e-9


class TestTheorem1:
    def test_reference_instance(self, e2):
        for p in seeded_points(4, count=3, seed=12):
            for r in theorem1_check(e2.at(p)):
                assert r.residual < 1e-6, r.check_id

    def test_product_case_closed_form(self):
        fib = FiberSpec.flat_factors([1.0, 2.0], 6)
        m = build_twisted_product(fib, 2, ex.const(1.0, 6))
        assert m.beta == 0.0
        for r in theorem1_check(m.at(np.zeros(6))):
            assert r.residual < 1e-8, r.check_id

    def test_perturbed_metric_breaks_dphi_only(self):
        base = example_manifold()
        dim = 4
        warp = ex.exp(
            ex.mul(ex.const(2.0, dim), ex.add(ex.var(2, dim), ex.var(3, dim)))
        )
        bump = ex.add(
            ex.const(1.0, dim),
            ex.mul(
                ex.const(0.1, dim), ex.mul(ex.var(0, dim), ex.var(2, dim))
            ),
        )
        g = MetricField.diagonal([ex.mul(warp, bump), warp, 1.0, 1.0], dim)
        m = WeakFManifold(
            n=1, s=2, beta=1.0, c=1.0, metric=g, f=base.f, Q=base.Q,
            xi=base.xi, eta=base.eta,
        )
        p = np.array([0.3, 0.1, -0.2, 0.2])
        by_id = {r.check_id: r for r in theorem1_check(m.at(p))}
        assert by_id["deta"].residual < 1e-12
        assert by_id["dphi"].residual > 1e-4


def _twisted_d8():
    fib = FiberSpec.flat_factors([1.0, 2.0, 3.0], 8)
    return build_twisted_product(
        fib, 2, ex.parse_expression("exp(x7+x8)*(2+x1^2+x2*x3)", 8)
    )


class TestTheorem1SymbolicRoute:
    """theorem1_check differentiates Phi = g f at the point from the jets of g
    and f; the symbolic route jets f again and builds Phi as expressions."""

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
            by_id = {r.check_id: r for r in theorem1_check(st)}
            deta = np.stack(
                [exterior_derivative_1form(w, p).components for w in m.eta]
            )
            n1 = nijenhuis(st, m.f).components + 2.0 * np.einsum(
                "iab,ik->kab", deta, st.xi
            )
            dphi = exterior_derivative_2form(fundamental_form_field(m), p).components
            rhs = 2.0 * m.beta_value(p) * wedge_1form_2form(
                st.etabar, fundamental_form(st).components
            )
            for cid, t, slots in (("n1", n1, (1, 2)), ("dphi", dphi - rhs, (0, 1, 2))):
                want = tensor_residual(t, slots)
                scale = max(1.0, np.abs(t).max(), np.abs(dphi).max())
                assert abs(by_id[cid].residual - want) <= 1e-12 * scale, cid
            dphi_failed |= not by_id["dphi"].passed
        assert dphi_failed == dphi_fails


class TestProbeCache:
    def test_residuals_unchanged_and_probes_read_only(self):
        rng = np.random.default_rng(8)
        cases = (((5, 5), (0, 1)), ((4, 4, 4), (1, 2)), ((6, 6, 6), (0, 1, 2)))
        for shape, slots in cases:
            t = rng.standard_normal(shape)
            # the residual as computed from probe_vectors directly
            probes = probe_vectors(shape[0])[shape[0]:]
            contracted = t
            for slot in sorted(slots, reverse=True):
                contracted = np.tensordot(contracted, probes.T, axes=([slot], [0]))
            scale = max(1.0, float(np.abs(probes).max()) ** len(slots))
            want = max(float(np.abs(t).max()), float(np.abs(contracted).max()) / scale)
            assert tensor_residual(t, slots) == want
        cached, _ = _random_probes(5)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
        fresh = probe_vectors(5)
        assert fresh.flags.writeable
        assert np.array_equal(fresh[5:], cached)
