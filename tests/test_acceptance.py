"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion sweeps the parameter grid n in {1,2}, s in {1,2,3},
beta in {-1, 0.5, 1}, c in {0, 1} with 5 seeded sample points per
instance, and asserts the stated tolerance.
"""

import json
import pathlib

import numpy as np
import pytest

from wfk import expr as ex
from wfk.geometry import coboundary_2form
from wfk.kenmotsu import build_example2, build_twisted_product
from wfk.star_soliton import eta_einstein_fit, star_eta_einstein_fit
from wfk.weakf import wedge_1form_2form
from wfk.checks import CATALOGUE, CheckContext, run_check_ids
from wfk.cli import main as cli_main
from wfk.cli import manifold_from_manifest

from conftest import (
    GRID,
    example_manifold,
    field,
    group_residuals,
    model,
    scalar,
    seeded_points,
    with_soliton,
)
from reference_forms import fundamental_form_field

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "star_values.json").read_text()
)


def _report(num, label, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    line = f"criterion {num:02d} [{label}]: worst {worst:.3e} (tol {tol:g}) {status}"
    print(line)
    # also bypass pytest's capture so the line is visible on passing runs
    import sys

    sys.__stdout__.write(line + "\n")
    assert worst <= tol, f"criterion {num}: worst residual {worst:.3e} > {tol:g}"


def _grid_instances():
    for n, s, beta, c in GRID:
        m = example_manifold(n, s, beta, c)
        yield (n, s, beta, c), m


def _xibar(m):
    return field([0.0] * (2 * m.n) + [1.0] * m.s, m.dim)


def test_criterion_01_axioms_and_defining_condition():
    worst = 0.0
    for _, m in _grid_instances():
        for p in seeded_points(m.dim):
            st = m.at(p)
            axioms = group_residuals("axioms", st)
            worst = max(worst, axioms["axiom.5"], axioms["axiom.6"])
            worst = max(worst, group_residuals("kenmotsu", st)["kenmotsu.12"])
    _report(1, "axioms + defining condition", worst, 1e-8)


def test_criterion_02_normality_closedness_and_proportionality():
    worst = 0.0
    for key, m in _grid_instances():
        phi_field = fundamental_form_field(build_example2(*key))
        for p in seeded_points(m.dim, count=2):
            st = m.at(p)
            worst = max(worst, *group_residuals("theorem1", st).values())
            # recover the proportionality constant of dPhi vs beta etabar ^ Phi
            phi, dphi, _ = phi_field.jets(p)
            dphi = coboundary_2form(dphi)
            base = st.m.beta * wedge_1form_2form(st.etabar, phi)
            denom = float(np.sum(base * base))
            k = float(np.sum(dphi * base)) / denom
            worst = max(worst, abs(k - 2.0))
    _report(2, "structure normality + exterior system", worst, 1e-6)


def test_criterion_03_curvature_closed_forms():
    worst = 0.0
    for (n, s, beta, c), m in _grid_instances():
        o = np.zeros(m.dim)
        geo = m.metric.at(o)
        low = np.einsum("ml,labc->mabc", geo.g, geo.riem)
        worst = max(worst, abs(low[0, 0, 1, 1] + s * beta**2))
        rs = geo.ginv @ geo.ric
        st = m.at(o)
        for i in range(s):
            worst = max(
                worst, float(np.abs(rs @ st.xi[i] + 2 * n * beta**2 * st.xibar).max())
            )
        worst = max(worst, abs(geo.scalar + 2 * s * n * (2 * n + 1) * beta**2))
    _report(3, "curvature closed forms", worst, 1e-6)


def test_criterion_04_identity_audit():
    worst = 0.0
    for _, m in _grid_instances():
        for p in seeded_points(m.dim):
            worst = max(worst, *group_residuals("identities", m.at(p)).values())
    _report(4, "identity audit", worst, 1e-8)


def test_criterion_05_star_ricci_expressions():
    worst = 0.0
    for _, m in _grid_instances():
        for p in seeded_points(m.dim):
            worst = max(worst, *group_residuals("thm4", m.at(p)).values())
    _report(5, "star-Ricci tensor and scalar expressions", worst, 1e-6)


def test_criterion_06_discrepancy_audit():
    worst = 0.0
    for inst in GOLDEN["instances"]:
        n, s, beta, c = inst["n"], inst["s"], inst["beta"], inst["c"]
        m = example_manifold(n, s, beta, c)
        o = np.zeros(m.dim)
        computed = float(m.at(o).ric_star[0, 0])
        worst = max(worst, abs(computed - inst["oracle"]["ric_star_diag"]))
        gap = inst["oracle"]["ric_star_diag"] - inst["paper_printed"]["ric_star_diag"]
        expected_gap = (1.0 + c) * beta**2 * (2 * n * (s - 1) + 1 - s)
        worst = max(worst, abs(gap - expected_gap))
        worst = max(
            worst,
            abs(
                (inst["oracle"]["r_star"] - inst["paper_printed"]["r_star"])
                - 2 * n * expected_gap
            ),
        )
        worst = max(
            worst,
            abs(
                (inst["oracle"]["lambda"] - inst["paper_printed"]["lambda"])
                - expected_gap
            ),
        )
        if s == 1:
            worst = max(worst, abs(expected_gap))
    _report(6, "printed-value discrepancy audit", worst, 1e-6)


def test_criterion_07_soliton_constants(capsys):
    # The emitter writes lambda = s beta - s(1+c) beta^2 and mu = -lambda for
    # V = xibar.  soliton.32's model terms g - sum eta (x) eta and
    # etabar (x) etabar are independent, so a residual within tolerance pins
    # (lambda, mu), and shifting lambda by 1e-3 must fail the check.
    tol = CATALOGUE["soliton.32"].tolerance
    worst, least_shifted = 0.0, np.inf
    for n, s, beta, c in GRID:
        assert cli_main(["example2", str(n), str(s), str(beta), str(c)]) == 0
        m = manifold_from_manifest(json.loads(capsys.readouterr().out))[0]
        sol = m.soliton
        lam_oracle = s * beta - s * (1.0 + c) * beta**2
        assert sol.lam == pytest.approx(lam_oracle) and sol.mu == -sol.lam
        assert sol.V == _xibar(m)
        pts = seeded_points(m.dim)[:3]
        for shift in (0.0, 1e-3):
            ctx = CheckContext(with_soliton(m, sol.lam + shift, sol.mu, V=sol.V))
            res = run_check_ids(ctx, ["soliton.32"], pts)["soliton.32"]
            if shift:
                least_shifted = min(least_shifted, res.min())
            else:
                worst = max(worst, res.max())
        verdict_class = (
            "expanding" if lam_oracle < -1e-9
            else "shrinking" if lam_oracle > 1e-9
            else "steady"
        )
        assert sol.classification == verdict_class
        v = scalar("+".join(f"x{2 * n + p_ + 1}" for p_ in range(s)), m.dim)
        grad_m = with_soliton(m, lam_oracle, -lam_oracle, v=v)
        worst_grad = group_residuals("grad", grad_m.at(pts[0]))["grad.75"]
        assert worst_grad < 1e-8, worst_grad
    assert least_shifted > tol, f"lambda + 1e-3 passes soliton.32: {least_shifted:.3e}"
    _report(7, "soliton constants over the grid", worst, tol)


def test_criterion_08_twisted_products():
    worst12 = worst_rel = 0.0
    cases = []
    # flat plane fiber, constant-times-exponential twist
    cases.append(model(build_twisted_product([1.0], 1, "2*exp(x3)")))
    # two-factor fiber
    cases.append(model(build_twisted_product([1.0, 2.0], 2, "exp(0.5*(x5+x6))")))
    for m in cases:
        for p in seeded_points(m.dim, count=3):
            st = m.at(p)
            worst12 = max(worst12, group_residuals("kenmotsu", st)["kenmotsu.12"])
            worst_rel = max(worst_rel, *group_residuals("twisted", st).values())
    # genuinely twisted: sigma depends on a fiber coordinate
    m = model(build_twisted_product([1.0], 1, "exp(x3+x1^2)"))
    for p in seeded_points(3, count=3):
        worst_rel = max(worst_rel, *group_residuals("twisted", m.at(p)).values())
    assert worst12 <= 1e-8, f"defining condition on twisted products: {worst12:.3e}"
    _report(8, "twisted-product connection relations", worst_rel, 1e-6)


def test_criterion_09_einstein_fits():
    worst = 0.0
    for (n, s, beta, c), m in _grid_instances():
        o = np.zeros(m.dim)
        st = m.at(o)
        a, b, residual = eta_einstein_fit(st)
        worst = max(
            worst,
            abs(a + 2 * s * n * beta**2),
            abs(b - 2 * (s - 1) * n * beta**2),
            residual,
        )
        abar, _, residual = star_eta_einstein_fit(st)
        worst = max(worst, abs(abar - st.r_star / (2 * n)), residual)
    _report(9, "eta-Einstein coefficient fits", worst, 1e-6)


def test_criterion_10_lie_derivative_audit():
    worst = 0.0
    for (n, s, beta, c), m in _grid_instances():
        st = with_soliton(m, 0.0, 0.0, V=_xibar(m)).at(np.zeros(m.dim))
        rep = group_residuals("lemma2", st)
        if c == 0:
            worst = max(worst, rep["lemma2.42"])
            assert rep["lemma2.35"] < 1e-3
        else:
            gap = abs(2 * s * c * beta**3)
            assert rep["lemma2.42"] == pytest.approx(gap, rel=1e-3)
    _report(10, "Lie-derivative audit (report-only gaps)", worst, 1e-4)


def test_criterion_11_numerics_hygiene():
    m = example_manifold()
    h = 1e-4
    worst = 0.0
    for p in seeded_points(4, count=2):
        geo = m.metric.at(p)
        dim = 4
        dg_fd = np.empty((dim, dim, dim))
        for a in range(dim):
            dp = np.zeros(dim)
            dp[a] = h
            gp, gm = m.metric.at(p + dp), m.metric.at(p - dp)
            dg_fd[:, :, a] = (gp.g - gm.g) / (2 * h)
        core = (
            np.einsum("jli->lij", dg_fd)
            + np.einsum("ilj->lij", dg_fd)
            - np.einsum("ijl->lij", dg_fd)
        )
        gamma_from_fd = 0.5 * np.einsum("kl,lij->kij", geo.ginv, core)
        worst = max(worst, float(np.abs(gamma_from_fd - geo.gamma).max()))

        gam = geo.gamma
        dgamma_fd = np.stack(
            [
                (m.metric.at(p + np.eye(dim)[a] * h).gamma
                 - m.metric.at(p - np.eye(dim)[a] * h).gamma) / (2 * h)
                for a in range(dim)
            ]
        )  # [a, k, i, j] = d_a Gamma^k_ij
        riem_fd = (
            np.einsum("akbc->kabc", dgamma_fd)
            - np.einsum("bkac->kabc", dgamma_fd)
            + np.einsum("kam,mbc->kabc", gam, gam)
            - np.einsum("kbm,mac->kabc", gam, gam)
        )
        worst = max(worst, float(np.abs(riem_fd - geo.riem).max()))

    # expression-jet derivative property (seeded random sweep)
    from test_expr import _random_source

    rng = np.random.default_rng(99)
    checked = 0
    while checked < 200:
        tape = scalar(_random_source(rng, 3, 3), 3)
        p = rng.uniform(-0.8, 0.8, 3)
        try:
            value, grad, hess = tape.jets(p)
        except ex.ExprDomainError:
            continue
        if abs(value) > 1e6 or np.abs(hess).max() > 1e6:
            continue
        scale = max(1.0, abs(value), float(np.abs(grad).max()))
        for a in range(3):
            dp = np.zeros(3)
            dp[a] = h
            fd = (tape.jets(p + dp)[0] - tape.jets(p - dp)[0]) / (2 * h)
            assert abs(grad[a] - fd) < 1e-5 * scale
        checked += 1
    _report(11, "analytic jets vs finite differences", worst, 1e-4)


def test_criterion_12_cli_round_trip(tmp_path, capsys):
    man = str(tmp_path / "model.json")
    assert cli_main(["example2", "1", "2", "1.0", "1.0", "--out", man]) == 0
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    ok = cli_main(["check", man, "--reproducible", "--out", r1]) == 0
    ok &= cli_main(["check", man, "--reproducible", "--out", r2]) == 0
    with open(r1, "rb") as f1, open(r2, "rb") as f2:
        ok &= f1.read() == f2.read()
    report = json.loads(pathlib.Path(r1).read_text())
    ok &= report["summary"]["fail"] == 0

    data = json.loads(pathlib.Path(man).read_text())
    data["metric"][0][0] = "exp(2*(x3+"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    ok &= cli_main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    ok &= "error:" in err

    data2 = json.loads(pathlib.Path(man).read_text())
    data2["eta"] = [[0, 0, 0, 0], [0, 0, 0, 1]]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(data2))
    ok &= cli_main(["check", str(bad2)]) == 2
    ok &= "eta^i(xi_j) = delta" in capsys.readouterr().err
    _report(12, "command-line round trip", 0.0 if ok else 1.0, 0.5)
