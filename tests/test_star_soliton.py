import json
import pathlib

import numpy as np
import pytest

from wfk import InputError
from wfk.checks import CATALOGUE, CheckContext, run_check_ids
from wfk.geometry import lie_derivative_1form
from wfk.kenmotsu import build_example2
from wfk.star_soliton import (
    _FIT_GATE,
    corollary2_residual,
    soliton_residual,
    star_eta_einstein_fit,
)

from conftest import (
    example_manifold,
    field,
    group_residuals,
    model,
    scalar,
    seeded_points,
    with_soliton,
)

O = np.zeros(4)
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "star_values.json").read_text()
)


def _xibar_field(dim, s):
    return field([0.0] * (dim - s) + [1.0] * s, dim)


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

        m = with_soliton(m, oracle["lambda"], -oracle["lambda"], V=_xibar_field(m.dim, s))
        assert group_residuals("soliton", m.at(o))["soliton.32"] < 1e-6
        sign = {"expanding": -1, "steady": 0, "shrinking": 1}[m.soliton.classification]
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
            # the larger of the antisymmetry and the commutator
            assert group_residuals("star_def", e2.at(p))["star.def"] < 1e-6

    def test_ricci_expression(self, e2):
        for p in seeded_points(4, count=3, seed=46):
            for cid, r in group_residuals("thm4", e2.at(p)).items():
                assert r < 1e-6, cid

    def test_eta_einstein_fit(self, e2):
        st = e2.at(O)
        a, b, residual = star_eta_einstein_fit(st)
        assert a == pytest.approx(-4.0)
        assert b == pytest.approx(4.0)
        assert residual < 1e-8
        # Corollary 2: abar = -bbar = r*/2n
        assert (st.r_star / 2, -st.r_star / 2) == pytest.approx((a, b))


class TestCorollary2LargeBeta:
    """Where e^{2 beta xbar} spans many orders of magnitude, the *-eta-Einstein
    fit of the mixed tensor still sees its g column: the gate is open and
    cor2 reads rounding, at the points the default sample policy drew for
    these models (count 5, seed 42, box [-0.5, 0.5]), written out here."""

    POINTS = np.array([
        [0.27395604855596334, -0.06112156024794768, 0.35859791991138246, 0.1973680290593639],
        [-0.40582265211235047, 0.4756223516367559, 0.26113970199035297, 0.2860643052769538],
        [-0.3718863673244541, -0.049614062104432866, -0.12920197576741876, 0.4267649888486018],
        [0.14386512008066454, 0.32276161327083, -0.05658580117266887, -0.2727612782152231],
        [0.0545847870158348, -0.4361827438958247, 0.32763117199258207, 0.13166439912206485],
    ])

    @pytest.mark.parametrize("beta", [-26.09, -19.09, 19.09])
    def test_the_fit_sees_its_g_column(self, beta):
        m = example_manifold(1, 2, beta, 0.0)
        for p in self.POINTS:
            st = m.at(p)
            assert star_eta_einstein_fit(st)[2] <= _FIT_GATE
            assert corollary2_residual(st)["cor2"] <= 1e-12


class TestVectorSolitons:
    def test_reference_instance(self, e2):
        m = with_soliton(e2, -2.0, 2.0, V=_xibar_field(4, 2))
        for p in seeded_points(4, count=3, seed=48):
            residuals = group_residuals("soliton", m.at(p))
            assert residuals["soliton.32"] < 1e-6
            assert residuals["soliton.33"] < 1e-6
        assert m.soliton.classification == "expanding"

    def test_classical_instance(self):
        m = with_soliton(example_manifold(1, 1, 1.0, 1.0), -1.0, 1.0, V=_xibar_field(3, 1))
        assert group_residuals("soliton", m.at(np.zeros(3)))["soliton.32"] < 1e-6

    def test_zero_potential(self, e2):
        m = with_soliton(e2, -4.0, 4.0, V=field([0.0] * 4, 4))
        assert group_residuals("soliton", m.at(O))["soliton.32"] < 1e-8


class TestGradientSolitons:
    def test_reeb_potential(self, e2):
        m = with_soliton(e2, -2.0, 2.0, v=scalar("x3+x4", 4))
        for p in seeded_points(4, count=3, seed=54):
            # the larger of the two forms of (75)
            assert group_residuals("grad", m.at(p))["grad.75"] < 1e-6

    def test_matches_vector_form(self, e2):
        grad_m = with_soliton(e2, -2.0, 2.0, v=scalar("x3+x4", 4))
        vec_m = with_soliton(e2, -2.0, 2.0, V=_xibar_field(4, 2))
        for p in seeded_points(4, count=3, seed=56):
            g_res = group_residuals("grad", grad_m.at(p))["grad.75"]
            v_res = group_residuals("soliton", vec_m.at(p))["soliton.32"]
            assert abs(g_res - v_res) < 1e-8

    def test_constant_potential(self, e2):
        m = with_soliton(e2, -4.0, 4.0, v=scalar(3.0, 4))
        assert group_residuals("grad", m.at(O))["grad.75"] < 1e-8

    def test_steady_classical_case(self):
        m = example_manifold(1, 1, 1.0, 0.0)
        m = with_soliton(m, 0.0, 0.0, v=scalar("x3", 3))
        assert group_residuals("grad", m.at(np.zeros(3)))["grad.75"] < 1e-6
        assert m.soliton.classification == "steady"


def _contact_sigma(st):
    """Least-squares sigma of L_V eta^i = sigma eta^i at one point."""
    lie = np.stack(
        [lie_derivative_1form(st.geo, (w, dw), st.potential) for w, dw in zip(st.eta, st.deta)]
    )
    return np.sum(lie * st.eta) / np.sum(st.eta * st.eta)


class TestConstantsAndContact:
    def test_constants_relation(self, e2):
        tol = CATALOGUE["prop5"].tolerance
        for lam, mu, gap in ((-2.0, 2.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 2.0)):
            ctx = CheckContext(with_soliton(e2, lam, mu, V=_xibar_field(4, 2)))
            (res,) = run_check_ids(ctx, ["prop5"], [O])["prop5"]
            assert res == pytest.approx(gap)
            assert (res <= tol) == (gap == 0.0)

    def test_reeb_sum_is_strict_contact(self, e2):
        st = with_soliton(e2, -2.0, 2.0, V=_xibar_field(4, 2)).at(O)
        sigma, residual = _contact_sigma(st), group_residuals("contact", st)["contact.65"]
        assert residual <= CATALOGUE["contact.65"].tolerance and abs(sigma) < 1e-12

    def test_transverse_coordinate_field(self, e2):
        d1 = field([1.0, 0.0, 0.0, 0.0], 4)
        st = with_soliton(e2, 0.0, 0.0, V=d1).at(O)
        sigma, residual = _contact_sigma(st), group_residuals("contact", st)["contact.65"]
        assert residual <= CATALOGUE["contact.65"].tolerance
        assert sigma == pytest.approx(0.0)

    def test_non_contact_field(self, e2):
        V = field(["0", "0", "x1", "0"], 4)
        st = with_soliton(e2, 0.0, 0.0, V=V).at(O)
        residual = group_residuals("contact", st)["contact.65"]
        assert not residual <= CATALOGUE["contact.65"].tolerance


class TestLieDerivativeAudit:
    def test_classical_instance_matches(self):
        m = with_soliton(example_manifold(1, 1, 1.0, 0.0), 0.0, 0.0, V=_xibar_field(3, 1))
        residuals = group_residuals("lemma2", m.at(np.zeros(3)))
        assert residuals["lemma2.42"] < 1e-4
        assert residuals["lemma2.34"] < 1e-3
        assert residuals["lemma2.35"] < 1e-3

    def test_weak_instance_flags_connection_identity(self, e2):
        m = with_soliton(e2, -2.0, 2.0, V=_xibar_field(4, 2))
        residuals = group_residuals("lemma2", m.at(O))
        # gap 2*s*c*beta^3 of the Reeb-slot connection identity
        assert residuals["lemma2.42"] == pytest.approx(4.0, abs=1e-6)
        assert residuals["lemma2.34"] < 1e-3
        assert residuals["lemma2.35"] < 1e-3


class TestValidation:
    # the manifest reader is the one place a soliton is built, so it checks its data
    def test_potential_exclusivity(self):
        for potential in ({}, {"V": [0, 0, 1, 1], "v": "x3"}):
            soliton = {"lambda": 1, "mu": 0, **potential}
            with pytest.raises(InputError, match="^soliton: provide exactly one of V or v$"):
                model({**build_example2(1, 2, 1.0, 1.0), "soliton": soliton})

    def test_constant_coefficients_only(self):
        soliton = {"lambda": "x1", "mu": 0, "V": [0, 0, 1, 1]}
        with pytest.raises(InputError, match="^soliton.lambda: expected a finite number"):
            model({**build_example2(1, 2, 1.0, 1.0), "soliton": soliton})

    def test_asymmetric_star_ricci_is_rejected(self):
        data = build_example2(1, 2, 1.0, 1.0)
        warp = "exp(2*(x3+x4))"
        data["metric"] = [[warp], ["0.3*x1", warp], [0, 0, 1], ["0.2*x2", 0, 0, 1]]
        data["soliton"] = {"lambda": -2.0, "mu": 2.0, "V": [0, 0, 1, 1]}
        m = model(data)
        p = np.array([0.3, 0.2, -0.1, 0.2])
        with pytest.raises(ValueError, match="not symmetric"):
            soliton_residual(m.at(p))

    def test_dimension_mismatch(self):
        # a potential over another chart is rejected when the manifest is read:
        # a V of the wrong length by the reader, a v's coordinate by the parser
        cases = (("V", [0, 0, 1], "^soliton.V: expected 4 entries$"),
                 ("v", "x5", "^soliton.v: coordinate index out of range: x5 \\(dimension 4\\)"))
        for key, potential, message in cases:
            soliton = {"lambda": 0, "mu": 0, key: potential}
            with pytest.raises(InputError, match=message):
                model({**build_example2(1, 2, 1.0, 1.0), "soliton": soliton})

    @pytest.mark.parametrize(
        "potential, cid",
        [("v", "soliton.32"), ("v", "contact.65"), ("v", "lemma2.42"), ("V", "grad.75"),
         (None, "prop5")],
    )
    def test_a_check_without_its_potential_is_blocked(self, e2, potential, cid):
        # the soliton functions read the model's potential unguarded; an id
        # whose potential is missing is blocked before any of them runs
        given = {"v": scalar("x3+x4", 4), "V": _xibar_field(4, 2)}
        m = e2
        if potential is not None:
            m = with_soliton(e2, -2.0, 2.0, **{potential: given[potential]})
        with pytest.raises(ValueError, match="need data this manifest does not provide"):
            run_check_ids(CheckContext(m), [cid], [O])
