import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wfk import checks, weakf
from wfk import expr as ex
from wfk.checks import CATALOGUE, CheckContext, applicable_ids, run_check_ids
from wfk.cli import main as cli_main
from wfk.kenmotsu import build_example2, build_twisted_product

from conftest import model, seeded_points

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _example2_V_manifest():
    soliton = {"lambda": -2.0, "mu": 2.0, "V": [0, 0, 1, 1]}  # V = xibar
    return {"version": "wfk/1", **build_example2(1, 2, 1.0, 1.0), "soliton": soliton}


def _example2_V():
    return CheckContext(model(_example2_V_manifest()))


def _example2_v():
    soliton = {"lambda": -2.0, "mu": 2.0, "v": "x3+x4+x1^2"}
    return CheckContext(model({**build_example2(1, 2, 1.0, 1.0), "soliton": soliton}))


def _twisted():
    return CheckContext(model(build_twisted_product([1.0, 2.0], 2, "exp(x5+x6)*(2+x1^2)")))


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


_LIBRARY = ("wfk.expr", "wfk.geometry", "wfk.weakf", "wfk.kenmotsu", "wfk.star_soliton")
SRC = Path(weakf.__file__).parent


def _source(name: str) -> Path:
    return SRC / f"{name.removeprefix('wfk.')}.py"


def _wfk_imports(path: Path) -> set[str]:
    """The absolute names a source file of ``src/wfk`` imports, each module
    and each ``module.name`` it takes from one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "wfk." + base if base else "wfk"
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


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
    # the tolerances live in the catalogue, which the library never imports
    for name in _LIBRARY:
        assert not _wfk_imports(_source(name)) & {"wfk.checks", "wfk.cli"}, name


def _public_definitions(path: Path) -> set[str]:
    defined = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return {name for name in defined if not name.startswith("_")}


@pytest.mark.parametrize("name", _LIBRARY + ("wfk.checks", "wfk.cli"))
def test_all_lists_every_public_definition(name):
    """A module's ``__all__`` is its one API list: exactly the public names
    it defines at top level, none it imports."""
    module = importlib.import_module(name)
    assert sorted(module.__all__) == sorted(_public_definitions(_source(name)))


def test_the_package_root_loads_no_submodule():
    code = "import sys, wfk; print(sorted(m for m in sys.modules if m.startswith('wfk.')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


# Public names that no other src/wfk code reads, each kept for a reason.
_UNREAD_KEPT = {
    # the eta-Einstein characterization of the abstract, to become a check beside cor2
    "kenmotsu.eta_einstein_fit",
    # the soliton-type convention (the sign of lambda) that README documents
    "star_soliton.SolitonData.classification",
}


def test_every_public_library_function_is_read_by_the_library():
    """A public top-level function or public method that no other src/wfk
    code names serves no check and no CLI path: delete it, or keep it in
    ``_UNREAD_KEPT`` with its reason."""
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        defined[f"{path.stem}.{node.name}.{fn.name}"] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unread = {
        qual for qual, name in defined.items() if not name.startswith("_") and name not in named
    }
    assert unread == _UNREAD_KEPT, (
        f"unread: {sorted(unread - _UNREAD_KEPT)}; read now: {sorted(_UNREAD_KEPT - unread)}"
    )


def _calls(node, scope: str, names, found: list) -> list:
    """(enclosing function, callee) of each call of one of ``names`` under ``node``."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) in names:
        found.append((scope, ast.unparse(node.func)))
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    for child in ast.iter_child_nodes(node):
        _calls(child, scope, names, found)
    return found


def test_only_the_manifest_reader_builds_a_model():
    """A model and its soliton are built in one place, after the manifest's
    checks and before the origin validation, so a library function may rely
    on them (a missing potential is a blocked id, not a guard of its own)."""
    # dataclasses.replace would build a model too
    names = ("WeakFManifold", "SolitonData", "replace", "dataclasses.replace")
    found = []
    for path in sorted(SRC.glob("*.py")):
        _calls(ast.parse(path.read_text()), path.stem, names, found)
    assert sorted(found) == [
        ("cli.manifold_from_manifest", "SolitonData"),
        ("cli.manifold_from_manifest", "SolitonData"),
        ("cli.manifold_from_manifest", "WeakFManifold"),
    ]


def test_only_the_check_context_measures_a_check():
    """A check group returns the tensors that must vanish and
    ``CheckContext._run_group`` measures each one, so how a residual is
    measured is decided in one place.  The norm's two other callers measure a
    fit's own quality (cor2's gate) and the Ric* symmetry gate."""
    assert not hasattr(weakf.StructureAtPoint, "residual")
    found = []
    for path in sorted(SRC.glob("*.py")):
        _calls(ast.parse(path.read_text()), path.stem, ("tensor_residual",), found)
    assert sorted(found) == [
        ("checks.CheckContext._run_group", "tensor_residual"),
        ("kenmotsu.EinsteinFit.least_squares", "tensor_residual"),
        ("star_soliton._check_star_symmetric", "tensor_residual"),
    ]


@pytest.mark.parametrize(
    "group, cid, component",
    [
        ("kenmotsu", "kenmotsu.12", (0, 1, 2)),
        ("star_def", "star.def", (1, 0, 1)),  # the second of the two stacked forms
    ],
    ids=["kenmotsu.12", "star.def-second-form"],
)
def test_a_nan_component_fails_its_point_only(monkeypatch, tmp_path, group, cid, component):
    """The norm propagates NaN: one NaN component of a group's tensor at one
    point of a chunk gives that point a NaN residual, which fails its record."""
    runner = checks._RUNNERS[group]

    def poisoned(st):
        tensors = runner(st)
        t = tensors[cid].copy()
        t[(1,) + component] = np.nan  # the chunk's second point
        return {**tensors, cid: t}

    monkeypatch.setitem(checks._RUNNERS, group, poisoned)
    ctx = _example2_V()
    points = np.array(seeded_points(ctx.manifold.dim, count=3, seed=7))
    (residuals,) = run_check_ids(ctx, [cid], points).values()
    assert np.isnan(residuals[1])
    assert (residuals[[0, 2]] <= CATALOGUE[cid].tolerance).all()

    manifest, report = tmp_path / "m.json", tmp_path / "r.json"
    sample = {"count": 3, "seed": 7}
    manifest.write_text(json.dumps({**_example2_V_manifest(), "checks": [cid], "sample": sample}))
    assert cli_main(["check", str(manifest), "--reproducible", "--out", str(report)]) == 1
    records = json.loads(report.read_text())["checks"]
    assert [r["pass"] for r in records] == [True, False, True]
    assert np.isnan(records[1]["residual"])


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
    sigma = "exp(x7+x8)*(2+x1^2+x2*x3)"
    ctx = CheckContext(model(build_twisted_product([1.0, 2.0, 3.0], 2, sigma)))
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
    assert [weakf.chunk_size(d) for d in (7, 8, 13, 14, 15)] == [62, 32, 2, 1, 1]


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
    group_reports = CheckContext.group_reports

    def counted(self, group, st):
        calls[group] += 1
        covered.update((group, tuple(pt)) for pt in st.point.tolist())
        return group_reports(self, group, st)

    monkeypatch.setattr(CheckContext, "group_reports", counted)
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
    for group in ("soliton", "contact", "lemma2"):  # each reads st.potential
        ctx.group_reports(group, st)
    assert "potential" in st.__dict__
    assert tape_runs[id(ctx.manifold.soliton.V.tape)] == 1


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
