import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wfk import expr as ex
from wfk.checks import CATALOGUE, CheckContext, applicable_ids
from wfk.geometry import VectorFieldSpec
from wfk.kenmotsu import FiberSpec, build_example2, build_twisted_product
from wfk.star_soliton import SolitonData
from wfk.weakf import TOLERANCES

from conftest import seeded_points

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _example2_V():
    m = build_example2(1, 2, 1.0, 1.0)
    xibar = VectorFieldSpec.from_entries([0.0, 0.0, 1.0, 1.0], m.dim)
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
        produced = Counter()
        for group in {CATALOGUE[cid].group for cid in ids}:
            for r in ctx.group_reports(group, p):
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
