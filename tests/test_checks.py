import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wfk import expr as ex
from wfk.checks import _RUNNERS, CATALOGUE, CheckContext, applicable_ids, run_check_ids
from wfk.geometry import FieldSpec
from wfk.kenmotsu import FiberSpec, build_example2, build_twisted_product
from wfk.star_soliton import SolitonData
from wfk.weakf import TOLERANCES

from conftest import seeded_points

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _example2_V():
    m = build_example2(1, 2, 1.0, 1.0)
    xibar = FieldSpec.from_entries([0.0, 0.0, 1.0, 1.0], m.dim)
    return CheckContext(m, SolitonData(lam=-2.0, mu=2.0, V=xibar))


def _example2_v():
    m = build_example2(1, 2, 1.0, 1.0)
    v = ex.parse_expression("x3+x4+x1^2", m.dim)
    return CheckContext(m, SolitonData(lam=-2.0, mu=2.0, v=v))


def _twisted():
    fiber = FiberSpec.flat_factors([1.0, 2.0], 6)
    sigma = ex.parse_expression("exp(x5+x6)*(2+x1^2)", 6)
    return CheckContext(build_twisted_product(fiber, 2, sigma))


@pytest.mark.parametrize("make_ctx", [_example2_V, _example2_v, _twisted])
def test_runners_produce_each_catalogue_id_once(make_ctx):
    ctx = make_ctx()
    ids = applicable_ids(ctx)
    for p in seeded_points(ctx.manifold.dim, count=2, seed=3):
        st = ctx.manifold.at(p)
        produced = Counter()
        for group in {CATALOGUE[cid].group for cid in ids}:
            for r in ctx.group_reports(group, st):
                assert r.check_id in CATALOGUE, r.check_id
                spec = CATALOGUE[r.check_id]
                assert spec.group == group, r.check_id
                assert r.tolerance == spec.tolerance, r.check_id
                produced[r.check_id] += 1
        assert sorted(produced) == sorted(ids)
        assert set(produced.values()) == {1}


def test_every_tolerance_belongs_to_a_catalogue_id():
    assert set(TOLERANCES) == set(CATALOGUE)


def test_perfbench_tracer_targets_resolve():
    """Every name the benchmark tracer patches exists where it looks it up."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr in tracer.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert callable(owner.__dict__.get(attr)), f"{module}.{attr}"


@pytest.mark.parametrize("make_ctx", [_example2_V, _twisted])
def test_batched_run_matches_points_and_releases_caches(make_ctx):
    ctx = make_ctx()
    m = ctx.manifold
    ids = applicable_ids(ctx)
    points = seeded_points(m.dim, count=5, seed=17)
    reports = run_check_ids(ctx, ids, points)
    # the same residuals, bit for bit, as point-by-point evaluation
    fresh = make_ctx()
    for r in reports:
        st = fresh.manifold.at(np.array(r.point))
        (want,) = [
            w for w in fresh.group_reports(CATALOGUE[r.check_id].group, st)
            if w.check_id == r.check_id
        ]
        assert r == want


@pytest.mark.parametrize("make_ctx", [_example2_V, _example2_v, _twisted])
def test_each_needed_group_runs_once_per_point(make_ctx, monkeypatch):
    ctx = make_ctx()
    ids = applicable_ids(ctx)
    calls = Counter()
    for group, runner in list(_RUNNERS.items()):
        def counted(st, sol, group=group, runner=runner):
            calls[group] += 1
            return runner(st, sol)

        monkeypatch.setitem(_RUNNERS, group, counted)
    points = seeded_points(ctx.manifold.dim, count=3, seed=5)
    run_check_ids(ctx, ids + ids[:4], points)
    assert calls == {CATALOGUE[cid].group: len(points) for cid in ids}


@pytest.mark.parametrize("make_ctx", [_example2_V, _example2_v, _twisted])
def test_at_most_one_jet_evaluation_per_point(make_ctx, monkeypatch):
    # every field is jetted once for the whole batch; only the third-order
    # metric jets of ids 21-23 and lemma2 (d3g) are evaluated per point
    calls = Counter()
    evaluate_jet = ex.evaluate_jet

    def counted(ast, point, third=False):
        calls["third" if third else "order2"] += 1
        return evaluate_jet(ast, point, third)

    monkeypatch.setattr(ex, "evaluate_jet", counted)
    counts = []
    for count in (2, 6):
        ctx = make_ctx()
        points = seeded_points(ctx.manifold.dim, count=count, seed=11)
        calls.clear()
        run_check_ids(ctx, applicable_ids(ctx), points)
        assert calls["third"] <= count
        counts.append(calls["order2"])
    assert counts[0] == counts[1]
