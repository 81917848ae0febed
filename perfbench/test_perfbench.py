"""Self-tests of the benchmark's own code: scoring, self time, tracing.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import wfk.checks  # noqa: E402
import wfk.cli as cli  # noqa: E402
import wfk.expr  # noqa: E402
import wfk.star_soliton  # noqa: E402
from wfk.geometry import MetricField  # noqa: E402
from wfk.weakf import WeakFManifold  # noqa: E402

from run import END_TO_END  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, bad_records, manifest, reference_points  # noqa: E402

SCREEN = WORKLOADS["tw_d8_screen"]
POINTS = reference_points(8, 3, seed=5)


def _clean_report() -> dict:
    return {
        "checks": [
            {
                "id": cid,
                "point": [float(f"{x:.15g}") for x in p],
                "pass": verdict in ("pass", "audit-pass"),
                "audit": verdict in ("audit-pass", "flag"),
            }
            for cid, verdict in SCREEN.verdicts.items()
            for p in POINTS
        ]
    }


def test_clean_report_has_no_bad_records():
    assert bad_records(SCREEN, POINTS, _clean_report(), SCREEN.exit_code) == 0


def test_flipped_verdict_is_bad():
    report = _clean_report()
    report["checks"][4]["pass"] = not report["checks"][4]["pass"]
    assert bad_records(SCREEN, POINTS, report, SCREEN.exit_code) == 1


def test_missing_record_is_bad():
    report = _clean_report()
    del report["checks"][7]
    assert bad_records(SCREEN, POINTS, report, SCREEN.exit_code) == 1


def test_wrong_point_and_duplicate_are_bad():
    report = _clean_report()
    report["checks"][2]["point"][0] += 1e-9
    report["checks"].append(copy.deepcopy(report["checks"][0]))
    assert bad_records(SCREEN, POINTS, report, SCREEN.exit_code) == 2


def test_wrong_exit_code_or_crash_makes_every_record_bad():
    expected = len(SCREEN.verdicts) * len(POINTS)
    assert bad_records(SCREEN, POINTS, _clean_report(), 0) == expected
    assert bad_records(SCREEN, POINTS, None, None) == expected


def test_self_time_of_synthetic_span_tree():
    spans = [
        ("r", "root", 0, 100, -1),
        ("r", "a", 10, 40, 0),
        ("r", "b", 50, 70, 0),
        ("r", "a.child", 20, 30, 1),
        ("r", "lone", 200, 260, -1),
    ]
    assert self_times(spans) == [50, 20, 20, 10, 60]


def test_self_time_counts_overlapping_children_once():
    spans = [("r", "p", 0, 100, -1), ("r", "c1", 10, 40, 0), ("r", "c2", 30, 60, 0)]
    assert self_times(spans)[0] == 50


def _traced_check(name: str, tag: str) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    emitted = WORK / f"{tag}.emitted.json"
    assert cli.main(list(workload.emit) + ["--out", str(emitted)]) == 0
    data = manifest(workload, json.loads(emitted.read_text()), seed=3)
    data["sample"]["count"] = 2
    path = WORK / f"{tag}.manifest.json"
    path.write_text(json.dumps(data))
    report = WORK / f"{tag}.report.json"
    tracer = Tracer(tag)
    tracer.install()
    try:
        code = cli.main(["check", str(path), "--out", str(report), "--reproducible"])
    finally:
        tracer.uninstall()
    assert code == workload.exit_code
    metrics, calls = layer_metrics(tracer, report.stat().st_size)
    assert {span[0] for span in tracer.spans} == {tag}
    return metrics, calls


# e2_d15_full runs the same layers as e2_d7_full at a far higher cost
@pytest.mark.parametrize("name", ["e2_d7_full", "tw_d8_screen"])
def test_counts_repeat_and_expected_spans_fire(name):
    first, calls = _traced_check(name, f"{name}-a")
    second, _ = _traced_check(name, f"{name}-b")
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    assert [s for s in WORKLOADS[name].spans if not calls.get(s)] == []
    assert set(first) | {"trace.overhead_s"} == set(PER_LAYER)


def _lookups() -> dict:
    """What callers reach through the names they look up."""
    return {
        "checks.audit_identities": wfk.checks.audit_identities,
        "cli.run_check_ids": cli.run_check_ids,
        "expr.evaluate_jet": wfk.expr.evaluate_jet,
        "star_soliton.lie_derivative_curvature": wfk.star_soliton.lie_derivative_curvature,
        "MetricField.at": MetricField.at,
        "WeakFManifold.at": WeakFManifold.at,
    }


def test_wrappers_patch_where_callers_look_names_up():
    originals = _lookups()
    tracer = Tracer("patch")
    tracer.install()
    try:
        patched = _lookups()
    finally:
        tracer.uninstall()
    for key, fn in patched.items():
        assert fn.__wrapped__ is originals[key], key
    assert _lookups() == originals


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_a_source_tree():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2_d7_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
