import json
import pathlib

import numpy as np
import pytest

from wfk import expr as ex
from wfk.checks import CATALOGUE, CheckContext, run_check_ids
from wfk.geometry import FieldSpec
from wfk.star_soliton import (
    SolitonData,
    contact_fit,
    fit_soliton_constants,
    gradient_soliton_residual,
    lemma2_audit,
    soliton_residual,
    star_eta_einstein_fit,
    star_symmetry_gate,
    theorem4_residual,
)

from conftest import example_manifold, seeded_points

O = np.zeros(4)
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "star_values.json").read_text()
)


def _xibar_field(dim, s):
    comps = [0.0] * (dim - s) + [1.0] * s
    return FieldSpec.from_entries(comps, dim)


class TestGoldenValues:
    @pytest.mark.parametrize(
        "inst", GOLDEN["instances"], ids=lambda i: f"n{i['n']}s{i['s']}b{i['beta']}c{i['c']}"
    )
    def test_closed_forms(self, inst):
        n, s, beta, c = inst["n"], inst["s"], inst["beta"], inst["c"]
        m = example_manifold(n, s, beta, c)
        o = np.zeros(m.dim)
        oracle = inst["oracle"]

        st = m.at(o)
        assert np.diag(st.ric_star)[: 2 * n] == pytest.approx(
            [oracle["ric_star_diag"]] * (2 * n)
        )
        assert st.r_star == pytest.approx(oracle["r_star"])

        sol = SolitonData(
            lam=oracle["lambda"], mu=-oracle["lambda"], V=_xibar_field(m.dim, s)
        )
        verdict = soliton_residual(m.at(o), sol)
        assert verdict.residual < 1e-6
        sign = {"expanding": -1, "steady": 0, "shrinking": 1}[verdict.classification]
        assert sign == np.sign(oracle["lambda"])

    @pytest.mark.parametrize(
        "inst", GOLDEN["instances"], ids=lambda i: f"n{i['n']}s{i['s']}b{i['beta']}c{i['c']}"
    )
    def test_printed_discrepancy_is_the_recorded_gap(self, inst):
        printed, oracle = inst["paper_printed"], inst["oracle"]
        gap = printed["ric_star_diag"] - oracle["ric_star_diag"]
        assert gap == pytest.approx(-inst["ric_star_gap"])
        if inst["s"] == 1:
            assert inst["ric_star_gap"] == 0.0
        n, s, beta, c = inst["n"], inst["s"], inst["beta"], inst["c"]
        assert inst["ric_star_gap"] == pytest.approx(
            (1.0 + c) * beta**2 * (2 * n * (s - 1) + 1 - s)
        )


class TestStarRicci:
    def test_reeb_slots_vanish(self, e2):
        for p in [O] + seeded_points(4, count=3, seed=40):
            rs = e2.at(p).ric_star
            assert np.abs(rs[2:, :]).max() < 1e-8
            assert np.abs(rs[:, 2:]).max() < 1e-8

    def test_symmetry_gate(self, e2):
        for p in seeded_points(4, count=3, seed=42):
            asym, comm = star_symmetry_gate(e2.at(p))
            assert asym < 1e-6 and comm < 1e-6

    def test_ricci_expression(self, e2):
        for p in seeded_points(4, count=3, seed=46):
            for cid, r in theorem4_residual(e2.at(p)).items():
                assert r < 1e-6, cid

    def test_eta_einstein_fit(self, e2):
        fit = star_eta_einstein_fit(e2.at(O))
        assert fit.a == pytest.approx(-4.0)
        assert fit.b == pytest.approx(4.0)
        assert fit.residual < 1e-8
        assert fit.predicted == pytest.approx((fit.a, fit.b))


class TestVectorSolitons:
    def test_reference_instance(self, e2):
        sol = SolitonData(lam=-2.0, mu=2.0, V=_xibar_field(4, 2))
        for p in seeded_points(4, count=3, seed=48):
            verdict = soliton_residual(e2.at(p), sol)
            assert verdict.residual < 1e-6
            assert verdict.cross_residual < 1e-6
            assert verdict.classification == "expanding"

    def test_classical_instance(self):
        m = example_manifold(1, 1, 1.0, 1.0)
        sol = SolitonData(lam=-1.0, mu=1.0, V=_xibar_field(3, 1))
        assert soliton_residual(m.at(np.zeros(3)), sol).residual < 1e-6

    def test_zero_potential(self, e2):
        zero = FieldSpec.from_entries([0.0] * 4, 4)
        sol = SolitonData(lam=-4.0, mu=4.0, V=zero)
        assert soliton_residual(e2.at(O), sol).residual < 1e-8

    def test_fit_constants(self, e2):
        pts = seeded_points(4, count=3, seed=50)
        lam, mu, res = fit_soliton_constants(e2, _xibar_field(4, 2), pts)
        assert lam == pytest.approx(-2.0)
        assert mu == pytest.approx(2.0)
        assert res < 1e-6

    def test_fit_zero_potential_recovers_star_coefficients(self, e2):
        zero = FieldSpec.from_entries([0.0] * 4, 4)
        pts = seeded_points(4, count=3, seed=52)
        lam, mu, res = fit_soliton_constants(e2, zero, pts)
        abar = e2.at(O).r_star / 2.0
        assert lam == pytest.approx(abar)
        assert mu == pytest.approx(-abar)
        assert res < 1e-6

    def test_fit_needs_two_points(self, e2):
        with pytest.raises(ValueError):
            fit_soliton_constants(e2, _xibar_field(4, 2), [O])


class TestGradientSolitons:
    def test_reeb_potential(self, e2):
        v = ex.add(ex.var(2, 4), ex.var(3, 4))
        sol = SolitonData(lam=-2.0, mu=2.0, v=v)
        for p in seeded_points(4, count=3, seed=54):
            verdict = gradient_soliton_residual(e2.at(p), sol)
            assert verdict.residual < 1e-6
            assert verdict.cross_residual < 1e-6

    def test_matches_vector_form(self, e2):
        v = ex.add(ex.var(2, 4), ex.var(3, 4))
        grad_sol = SolitonData(lam=-2.0, mu=2.0, v=v)
        vec_sol = SolitonData(lam=-2.0, mu=2.0, V=_xibar_field(4, 2))
        for p in seeded_points(4, count=3, seed=56):
            g_res = gradient_soliton_residual(e2.at(p), grad_sol).residual
            v_res = soliton_residual(e2.at(p), vec_sol).residual
            assert abs(g_res - v_res) < 1e-8

    def test_constant_potential(self, e2):
        sol = SolitonData(lam=-4.0, mu=4.0, v=ex.const(3.0, 4))
        assert gradient_soliton_residual(e2.at(O), sol).residual < 1e-8

    def test_steady_classical_case(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        sol = SolitonData(lam=0.0, mu=0.0, v=ex.var(2, 3))
        verdict = gradient_soliton_residual(m.at(np.zeros(3)), sol)
        assert verdict.residual < 1e-6
        assert verdict.classification == "steady"


class TestConstantsAndContact:
    def test_constants_relation(self, e2):
        tol = CATALOGUE["prop5"].tolerance
        for lam, mu, gap in ((-2.0, 2.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 2.0)):
            ctx = CheckContext(e2, SolitonData(lam=lam, mu=mu, V=_xibar_field(4, 2)))
            (res,) = run_check_ids(ctx, ["prop5"], [O])["prop5"]
            assert res == pytest.approx(gap)
            assert (res <= tol) == (gap == 0.0)

    def test_reeb_sum_is_strict_contact(self, e2):
        sigma, residual = contact_fit(e2.at(O), _xibar_field(4, 2))
        assert residual <= CATALOGUE["contact.65"].tolerance and abs(sigma) < 1e-12

    def test_transverse_coordinate_field(self, e2):
        d1 = FieldSpec.from_entries([1.0, 0.0, 0.0, 0.0], 4)
        sigma, residual = contact_fit(e2.at(O), d1)
        assert residual <= CATALOGUE["contact.65"].tolerance
        assert sigma == pytest.approx(0.0)

    def test_non_contact_field(self, e2):
        V = FieldSpec.from_entries(["0", "0", "x1", "0"], 4)
        _, residual = contact_fit(e2.at(O), V)
        assert not residual <= CATALOGUE["contact.65"].tolerance


class TestLieDerivativeAudit:
    def test_classical_instance_matches(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        sol = SolitonData(lam=0.0, mu=0.0, V=_xibar_field(3, 1))
        residuals = lemma2_audit(m.at(np.zeros(3)), sol)
        assert residuals["lemma2.42"] < 1e-4
        assert residuals["lemma2.34"] < 1e-3
        assert residuals["lemma2.35"] < 1e-3

    def test_weak_instance_flags_connection_identity(self, e2):
        sol = SolitonData(lam=-2.0, mu=2.0, V=_xibar_field(4, 2))
        residuals = lemma2_audit(e2.at(O), sol)
        # gap 2*s*c*beta^3 of the Reeb-slot connection identity
        assert residuals["lemma2.42"] == pytest.approx(4.0, abs=1e-6)
        assert residuals["lemma2.34"] < 1e-3
        assert residuals["lemma2.35"] < 1e-3


class TestValidation:
    def test_potential_exclusivity(self):
        with pytest.raises(ValueError):
            SolitonData(lam=1.0, mu=0.0)
        with pytest.raises(ValueError):
            SolitonData(
                lam=1.0, mu=0.0, V=_xibar_field(4, 2), v=ex.const(0.0, 4)
            )

    def test_constant_coefficients_only(self):
        with pytest.raises(TypeError):
            SolitonData(lam="1", mu=0.0, V=_xibar_field(4, 2))

    def test_asymmetric_star_ricci_is_rejected(self, e2):
        from wfk.geometry import MetricField
        from wfk.weakf import WeakFManifold

        dim = 4
        warp = ex.exp(
            ex.mul(ex.const(2.0, dim), ex.add(ex.var(2, dim), ex.var(3, dim)))
        )
        one = ex.const(1.0, dim)
        zero = ex.const(0.0, dim)
        rows = [
            [warp],
            [ex.mul(ex.const(0.3, dim), ex.var(0, dim)), warp],
            [zero, zero, one],
            [ex.mul(ex.const(0.2, dim), ex.var(1, dim)), zero, zero, one],
        ]
        m = WeakFManifold(
            n=1, s=2, beta=1.0, c=1.0,
            metric=MetricField.from_entries(rows, dim),
            f=e2.f, Q=e2.Q, xi=e2.xi, eta=e2.eta,
        )
        sol = SolitonData(lam=-2.0, mu=2.0, V=_xibar_field(4, 2))
        p = np.array([0.3, 0.2, -0.1, 0.2])
        with pytest.raises(ValueError, match="not symmetric"):
            soliton_residual(m.at(p), sol)

    def test_dimension_mismatch(self, e2):
        sol = SolitonData(lam=0.0, mu=0.0, V=_xibar_field(3, 1))
        with pytest.raises(ValueError):
            soliton_residual(e2.at(O), sol)
