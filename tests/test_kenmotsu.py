import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from wfk import kenmotsu, star_soliton
from wfk.checks import CATALOGUE, CheckContext, applicable_ids
from wfk.cli import main
from wfk.kenmotsu import IDENTITY_IDS, build_example2, build_twisted_product
from wfk.star_soliton import eta_einstein_fit

from conftest import diagonal_metric, example_manifold, group_residuals, model, seeded_points
from curved import curved_product

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

    def test_id27_keeps_few_dim4_arrays_alive(self):
        # which temporaries numpy can elide decides the peak: with the
        # s g(Z, fX) fY pair summed third instead of first, one more
        # chunk-sized dim^4 array stays alive and the peak reads 1.54 MiB
        m = example_manifold(2, 3, 1.0, 1.0)
        st = m.at(np.array(seeded_points(m.dim, count=20, seed=1)))  # one dim-7 chunk
        kenmotsu._id27(st, m.beta)  # builds every cached tensor it reads
        tracemalloc.start()
        try:
            kenmotsu._id27(st, m.beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 2**20, peak / 2**20

    @pytest.mark.parametrize(
        "audit, reading",
        [(kenmotsu.audit_identities, 1.98), (star_soliton.lemma2_audit, 1.78)],
        ids=["identities", "lemma2"],
    )
    def test_a_chunk_keeps_no_extra_dim4_array_alive(self, audit, reading):
        # on one dim-7 chunk of 20 points, a second call, once the cached
        # tensors are built, peaks at ``reading`` MiB; one more chunk-sized
        # dim^4 array alive at the peak (0.37 MiB) fails the pin
        soliton = {"lambda": -3.0, "mu": 3.0, "V": [0] * 4 + [1] * 3}  # V = xibar
        m = model({**build_example2(2, 3, 1.0, 1.0), "soliton": soliton})
        st = m.at(np.array(seeded_points(m.dim, count=20, seed=1)))
        audit(st)
        tracemalloc.start()
        try:
            audit(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reading * 2**20 + 20 * m.dim**4 * 8, peak / 2**20

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
    def test_invalid_parameters(self, tmp_path, capsys, n, s, beta, c):
        # the emitter checks n and s, then the builder beta and c
        out = tmp_path / "bad.json"
        assert main(["example2", *map(str, (n, s, beta, c)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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
    @staticmethod
    def _closed_form(st):
        """The Kenmotsu closed form: a = s beta^2 + r/2n, b = -2n beta^2 - a."""
        m = st.m
        a = m.s * m.beta**2 + st.geo.scalar / (2.0 * m.n)
        return a, -2.0 * m.n * m.beta**2 - a

    def test_reference_instance(self, e2):
        st = e2.at(O)
        a, b, residual = eta_einstein_fit(st)
        assert a == pytest.approx(-4.0)
        assert b == pytest.approx(2.0)
        assert residual < 1e-8
        assert self._closed_form(st) == pytest.approx((a, b))

    def test_classical_instance_is_einstein(self):
        st = example_manifold(1, 1, 1.0, 0.0).at(np.zeros(3))
        a, b, _ = eta_einstein_fit(st)
        assert a == pytest.approx(-2.0)
        assert b == pytest.approx(0.0, abs=1e-10)
        assert self._closed_form(st) == pytest.approx((a, b), abs=1e-10)

    def test_flat_product(self):
        m = _flat_product([1.0], 1)
        a, b, residual = eta_einstein_fit(m.at(np.zeros(3)))
        assert abs(a) < 1e-10 and abs(b) < 1e-10
        assert residual < 1e-10


def _check(manifest, tmp_path):
    """`wfk check` of ``manifest`` at the default 5 points: exit code and report."""
    path, report = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(manifest))
    code = main(["check", str(path), "--reproducible", "--out", str(report)])
    return code, json.loads(report.read_text())


class TestCurvedLeaves:
    """Warped products over round spheres (``tests/curved.py``): a curved
    Kaehler fiber, so every applicable id holds, at n = 1 and n = 2."""

    @pytest.mark.parametrize(
        "radii, s, beta, c",
        [((1.0,), 1, 1.0, 0.0), ((1.0,), 2, 1.0, 1.0), ((1.0, 2.0), 1, 1.0, 0.0),
         ((1.0, 0.5), 2, 0.5, 3.0)],
        ids=["n1s1", "n1s2-weak", "n2s1", "n2s2-weak"],
    )
    def test_every_applicable_id_passes(self, radii, s, beta, c, tmp_path):
        manifest = curved_product(radii, s, beta, c)
        code, report = _check(manifest, tmp_path)
        ids = applicable_ids(CheckContext(model(manifest)))
        assert "kenmotsu.12" in ids and {rec["id"] for rec in report["checks"]} == set(ids)
        assert code == 0
        assert report["summary"] == {"pass": 5 * len(ids), "fail": 0, "flagged": 0}

    def test_a_conformal_four_sphere_is_not_kaehler(self, tmp_path, capsys):
        # the same conformal factor over R^4 makes a leaf that is not Kaehler
        argv = ["twisted", "--factors", "1,1", "--s", "1",
                "--sigma", "exp(x5)*2/(1+x1^2+x2^2+x3^2+x4^2)"]
        assert main(argv) == 0
        code, report = _check(json.loads(capsys.readouterr().out), tmp_path)
        failed = {rec["id"] for rec in report["checks"] if not rec["pass"]}
        assert code == 1
        assert failed == {"dphi", "id.26", "id.27", "kenmotsu.12", "thm4.28", "thm4.29"}
