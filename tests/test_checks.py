import ast
import dataclasses
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wfk import expr as ex
from wfk import weakf
from wfk.checks import _RUNNERS, CATALOGUE, CheckContext, applicable_ids, run_check_ids
from wfk.geometry import FieldSpec
from wfk.kenmotsu import FiberSpec, build_example2, build_twisted_product, kenmotsu_residual
from wfk.star_soliton import SolitonData, contact_fit, lemma2_audit, soliton_residual
from wfk.weakf import TOLERANCES, theorem1_check

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
            for cid, residual in ctx.group_reports(group, st).items():
                assert cid in CATALOGUE, cid
                assert CATALOGUE[cid].group == group, cid
                assert np.shape(residual) == (), cid  # one point, one residual
                produced[cid] += 1
        assert sorted(produced) == sorted(ids)
        assert set(produced.values()) == {1}


def test_every_tolerance_belongs_to_a_catalogue_id():
    assert set(TOLERANCES) == set(CATALOGUE)


_LIBRARY = ("wfk.geometry", "wfk.weakf", "wfk.kenmotsu", "wfk.star_soliton")


def test_no_library_function_reads_a_tolerance():
    """Library functions return arrays or residuals; only the report writer
    compares a residual with its tolerance."""
    for name in _LIBRARY:
        module = importlib.import_module(name)
        for fname, obj in vars(module).items():
            if fname.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            members = [(fname, obj)]
            if inspect.isclass(obj):
                members = [
                    (f"{fname}.{m}", f) for m, f in vars(obj).items() if not m.startswith("_")
                ]
            for qual, fn in members:
                fn = getattr(fn, "__func__", fn)  # a classmethod's function
                if inspect.isfunction(fn):
                    params = inspect.signature(fn).parameters
                    assert not any(p.startswith("tol") for p in params), f"{name}.{qual}"
    # TOLERANCES is read where the catalogue is built and where the twisted
    # builder validates its fiber at the origin, nowhere else in src/wfk
    readers = set()
    for path in sorted(Path(weakf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = {
            node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "TOLERANCES"
            and isinstance(node.ctx, ast.Load)
        }
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and reads & set(ast.walk(fn)):
                readers.add((path.stem, fn.name))
                reads -= set(ast.walk(fn))
        assert not reads, f"{path.stem} reads TOLERANCES outside a function"
    assert readers == {("checks", "_specs"), ("kenmotsu", "build_twisted_product")}


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


def test_the_structure_screen_never_builds_dgamma_or_riem():
    # the dim-8 twisted product's structure screen reads curvature only
    # through Ric and Ric*, which come from the metric's second jets
    fiber = FiberSpec.flat_factors([1.0, 2.0, 3.0], 8)
    sigma = ex.parse_expression("exp(x7+x8)*(2+x1^2+x2*x3)", 8)
    ctx = CheckContext(build_twisted_product(fiber, 2, sigma))
    screen = ("axioms", "theorem1", "kenmotsu", "twisted", "star_def", "thm4", "cor2")
    st = ctx.manifold.at(seeded_points(8, count=weakf.chunk_size(8), seed=29))
    for group in screen:
        ctx.group_reports(group, st)
    assert not {"dgamma", "dginv", "riem"} & set(st.geo.__dict__)
    ctx.group_reports("identities", st)  # id.19 and others read Riem whole
    assert {"dgamma", "riem"} <= set(st.geo.__dict__)


def _two_point_chunks(monkeypatch, dim):
    monkeypatch.setattr(weakf, "CHUNK_FLOATS", 2 * dim**5)
    assert weakf.chunk_size(dim) == 2


@pytest.mark.parametrize("dim", range(3, 22))
def test_chunk_size_bounds_the_third_order_jets(dim):
    size = weakf.chunk_size(dim)
    assert size >= 1
    # within the budget unless one point alone exceeds it, and no smaller
    assert size * dim**5 <= max(weakf.CHUNK_FLOATS, dim**5)
    assert (size + 1) * dim**5 > weakf.CHUNK_FLOATS


def test_chunk_sizes_of_the_benchmark_dimensions():
    assert [weakf.chunk_size(d) for d in (7, 8, 15)] == [62, 32, 1]


@pytest.mark.parametrize("make_ctx", [_example2_V, _twisted])
def test_batched_run_matches_points_and_releases_caches(make_ctx, monkeypatch):
    ctx = make_ctx()
    m = ctx.manifold
    ids = applicable_ids(ctx)
    _two_point_chunks(monkeypatch, m.dim)
    points = seeded_points(m.dim, count=5, seed=17)  # chunks of 2, 2 and 1
    table = run_check_ids(ctx, ids, points)
    assert list(table) == ids
    # the same residuals in point order, bit for bit, as point-by-point evaluation
    fresh = make_ctx()
    for j, p in enumerate(points):
        st = fresh.manifold.at(p)
        for group in dict.fromkeys(CATALOGUE[cid].group for cid in ids):
            for cid, want in fresh.group_reports(group, st).items():
                assert table[cid].shape == (5,), cid
                assert table[cid][j].tobytes() == np.float64(want).tobytes(), (cid, j)


@pytest.mark.parametrize("make_ctx", [_example2_V, _example2_v, _twisted])
def test_each_needed_group_runs_once_per_chunk(make_ctx, monkeypatch):
    ctx = make_ctx()
    ids = applicable_ids(ctx)
    calls, covered = Counter(), Counter()
    for group, runner in list(_RUNNERS.items()):
        def counted(st, sol, group=group, runner=runner):
            calls[group] += 1
            covered.update((group, tuple(pt)) for pt in st.point.tolist())
            return runner(st, sol)

        monkeypatch.setitem(_RUNNERS, group, counted)
    _two_point_chunks(monkeypatch, ctx.manifold.dim)
    points = seeded_points(ctx.manifold.dim, count=5, seed=5)
    run_check_ids(ctx, ids + ids[:4], points)
    groups = {CATALOGUE[cid].group for cid in ids}
    assert calls == dict.fromkeys(groups, 3)
    assert covered == {(g, tuple(p)): 1 for g in groups for p in points}


@pytest.mark.parametrize("make_ctx", [_example2_V, _example2_v, _twisted])
def test_at_most_one_jet_evaluation_per_point(make_ctx, monkeypatch):
    # every field is jetted once for the whole batch; only the third-order
    # metric jets of ids 21-23 and lemma2 (d3g) are evaluated per point
    calls = Counter()
    evaluate_jet = ex.evaluate_jet

    def counted(tape, points, order=2):
        calls["order3" if order == 3 else "lower"] += 1
        return evaluate_jet(tape, points, order)

    monkeypatch.setattr(ex, "evaluate_jet", counted)
    counts = []
    for count in (2, 6):
        ctx = make_ctx()
        points = seeded_points(ctx.manifold.dim, count=count, seed=11)
        calls.clear()
        run_check_ids(ctx, applicable_ids(ctx), points)
        assert calls["order3"] <= count
        counts.append(calls["lower"])
    assert counts[0] == counts[1]


@pytest.fixture
def tape_runs(monkeypatch):
    """Runs of each tape, by id, from here on."""
    runs = Counter()
    evaluate_jet = ex.evaluate_jet

    def counted(tape, points, order=2):
        runs[id(tape)] += 1
        return evaluate_jet(tape, points, order)

    monkeypatch.setattr(ex, "evaluate_jet", counted)
    return runs


def test_a_potential_is_jetted_once_per_structure(tape_runs):
    ctx = _example2_V()
    st = ctx.manifold.at(seeded_points(4, count=1, seed=31)[0])
    soliton_residual(st, ctx.soliton)
    contact_fit(st, ctx.soliton.V)
    lemma2_audit(st, ctx.soliton)
    assert tape_runs[id(ctx.soliton.V.tape)] == 1


def test_an_expression_beta_is_jetted_once_per_structure(tape_runs):
    beta = ex.parse_expression("1+0.1*x1", 4)
    m = dataclasses.replace(build_example2(1, 2, 1.0, 1.0), beta=beta)
    st = m.at(seeded_points(4, count=1, seed=31)[0])
    theorem1_check(st)
    kenmotsu_residual(st)
    assert tape_runs[id(beta.tape)] == 1


@pytest.mark.parametrize("make_ctx", [_example2_V, _example2_v, _twisted])
def test_the_structure_tape_runs_once_per_structure(make_ctx, monkeypatch, tape_runs):
    # f, Q, the xi_i and the eta^i are one tape, run once a chunk to first
    # order; the tapes of the fields alone never run
    ctx = make_ctx()
    m = ctx.manifold
    own = [field.tape for field in (m.f, m.Q, *m.xi, *m.eta)]  # compiled, not run
    _two_point_chunks(monkeypatch, m.dim)
    tape_runs.clear()  # the twisted builder checks its axioms at the origin
    run_check_ids(ctx, applicable_ids(ctx), seeded_points(m.dim, count=5, seed=41))
    assert tape_runs[id(m.tape)] == 3  # chunks of 2, 2 and 1
    assert not {id(tape) for tape in own} & set(tape_runs)
