"""Workload definitions, their expected verdicts, and report scoring.

Each workload is a manifest emitted by the wfk CLI's own emitters, a
check list (``None`` runs the full applicable catalogue) and a point
count.  The seed of a run becomes the manifest's sample seed, so the
same seed gives the same points.  The expected verdicts are per-id
constants that hold at every point of the default sampling box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOX = (-0.5, 0.5)

_AXIOMS = (
    "axiom.5", "axiom.6", "axiom.fxi", "axiom.etaf", "axiom.etaQ",
    "axiom.Qf", "axiom.Qxi", "axiom.dual", "axiom.f3",
)
_IDENTITIES = tuple(
    f"id.{i}"
    for i in ("13", "14", "15", "16", "18", "19", "20", "21", "22", "23", "26", "27", "44")
)

# verdict of a record: "pass", "fail" (non-audit) or "audit-pass", "flag"
_E2_VERDICTS = {
    **{cid: "pass" for cid in _AXIOMS},
    **{cid: "pass" for cid in ("n1", "deta", "dphi", "kenmotsu.12")},
    **{cid: "pass" for cid in _IDENTITIES},
    **{cid: "pass" for cid in ("star.def", "thm4.28", "thm4.29", "cor2")},
    **{cid: "pass" for cid in ("soliton.32", "soliton.33", "prop5", "contact.65")},
    "lemma2.42": "flag",
    "lemma2.34": "audit-pass",
    "lemma2.35": "audit-pass",
}

_TW_FAILING = ("dphi", "kenmotsu.12", "star.def", "thm4.28", "thm4.29")
_TW_CHECKS = (
    _AXIOMS
    + ("n1", "deta", "dphi", "kenmotsu.12")
    + ("twisted.i", "twisted.ii", "twisted.iii")
    + ("star.def", "thm4.28", "thm4.29", "cor2")
)
_TW_VERDICTS = {cid: "fail" if cid in _TW_FAILING else "pass" for cid in _TW_CHECKS}

# spans every traced run of the workload must record at least once
_COMMON_SPANS = (
    "cli.run_check", "cli.load", "cli.build", "cli.sample", "checks.run",
    "checks.group", "checks.group_miss", "expr.parse", "expr.jet",
    "geometry.at", "geometry.build", "weakf.at", "weakf.structure",
    "weakf.axioms", "weakf.theorem1", "kenmotsu.residual",
    "star_soliton.star_def", "star_soliton.thm4", "star_soliton.cor2",
)
_E2_SPANS = _COMMON_SPANS + (
    "kenmotsu.identities", "star_soliton.soliton", "star_soliton.lemma2",
    "geometry.lie_metric", "geometry.lie_1form", "geometry.lie_connection",
    "geometry.lie_curvature",
)
_TW_SPANS = _COMMON_SPANS + ("kenmotsu.twisted",)


@dataclass(frozen=True)
class Workload:
    name: str
    emit: tuple[str, ...]        # wfk CLI arguments that emit the manifest
    checks: tuple[str, ...] | None
    points: int
    exit_code: int
    verdicts: dict
    spans: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # The baseline manifest: finite differences dominate (about 43
        # geometry builds per point, mostly at offsets), every layer runs.
        Workload(
            name="e2_d7_full",
            emit=("example2", "2", "3", "1.0", "1.0"),
            checks=None,
            points=20,
            exit_code=0,
            verdicts=_E2_VERDICTS,
            spans=_E2_SPANS,
        ),
        # dim^4-dim^5 einsum kernels in geometry, kenmotsu and star_soliton
        # dominate, and peak RSS grows with the point count.
        Workload(
            name="e2_d15_full",
            emit=("example2", "6", "3", "1.0", "1.0"),
            checks=None,
            points=3,
            exit_code=0,
            verdicts=_E2_VERDICTS,
            spans=_E2_SPANS,
        ),
        # A rejected candidate: no finite differences and one geometry
        # build per point; jets, per-point Python and failure reporting.
        Workload(
            name="tw_d8_screen",
            emit=(
                "twisted", "--factors", "1.0,2.0,3.0", "--s", "2",
                "--sigma", "exp(x7+x8)*(2+x1^2+x2*x3)",
            ),
            checks=_TW_CHECKS,
            points=200,
            exit_code=1,
            verdicts=_TW_VERDICTS,
            spans=_TW_SPANS,
        ),
    )
}


def manifest(workload: Workload, emitted: dict, seed: int) -> dict:
    """The emitted manifest with this workload's check list and sample policy."""
    data = dict(emitted)
    if workload.checks is not None:
        data["checks"] = list(workload.checks)
    data["sample"] = {"count": workload.points, "seed": seed, "box": list(BOX)}
    return data


def reference_points(dim: int, count: int, seed: int) -> list[tuple[float, ...]]:
    """The points of the documented sampling policy: seeded uniform in BOX."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(BOX[0], BOX[1], dim).tolist()) for _ in range(count)]


def _verdict(record: dict) -> str | None:
    passed, audit = record.get("pass"), record.get("audit")
    if not isinstance(passed, bool) or not isinstance(audit, bool):
        return None
    if audit:
        return "audit-pass" if passed else "flag"
    return "pass" if passed else "fail"


def _point_key(point) -> tuple[str, ...]:
    # reports print 15 significant digits; compare at that precision
    return tuple(f"{float(x):.15g}" for x in point)


def bad_records(workload: Workload, points, report: dict | None, exit_code) -> int:
    """Records of one check run that differ from the reference.

    Every expected (id, point) without a record of the expected verdict is
    bad, and so is every record beyond the expected count.  A wrong exit
    code or a missing report makes every expected record bad.
    """
    expected = {
        (cid, _point_key(p)): verdict
        for cid, verdict in workload.verdicts.items()
        for p in points
    }
    if exit_code != workload.exit_code or not isinstance(report, dict):
        return len(expected)
    records = report.get("checks")
    if not isinstance(records, list):
        return len(expected)
    good = set()
    for record in records:
        try:
            key = (record["id"], _point_key(record["point"]))
        except (KeyError, TypeError, ValueError):
            continue
        if key in expected and expected[key] == _verdict(record):
            good.add(key)
    return len(expected) - len(good) + max(0, len(records) - len(expected))
