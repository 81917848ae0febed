"""Outside-in span recorder for the wfk layers.

The tracer replaces public functions and methods of ``wfk`` with timing
wrappers at run time; the package itself is not modified.  A function is
patched in every ``wfk`` module that binds it, because callers such as
``wfk.checks`` import library functions by name and would otherwise keep
calling the unwrapped original.

Spans are kept in memory as ``(run_id, name, start_ns, end_ns, parent)``
tuples and written out when the run ends.  Layer times are self times: a
span's duration minus the part of its interval that its child spans cover.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (span name, module, attribute); attribute "Class.method" patches the class
TARGETS = (
    ("cli.run_check", "wfk.cli", "run_check"),
    ("cli.load", "wfk.cli", "load_manifest"),
    ("cli.build", "wfk.cli", "manifold_from_manifest"),
    ("cli.sample", "wfk.cli", "sample_points"),
    ("checks.run", "wfk.checks", "run_check_ids"),
    ("checks.group", "wfk.checks", "CheckContext.group_reports"),
    ("checks.group_miss", "wfk.checks", "CheckContext._run_group"),
    ("expr.parse", "wfk.expr", "parse_expression"),
    ("expr.jet", "wfk.expr", "evaluate_jet"),
    ("geometry.at", "wfk.geometry", "MetricField.at"),
    ("geometry.build", "wfk.geometry", "_PointGeometry.__init__"),
    ("geometry.lie_metric", "wfk.geometry", "lie_derivative_metric"),
    ("geometry.lie_1form", "wfk.geometry", "lie_derivative_1form"),
    ("geometry.lie_connection", "wfk.geometry", "lie_derivative_connection"),
    ("geometry.lie_connection", "wfk.geometry", "_lie_connection_components"),
    ("geometry.lie_curvature", "wfk.geometry", "lie_derivative_curvature"),
    ("weakf.at", "wfk.weakf", "WeakFManifold.at"),
    ("weakf.structure", "wfk.weakf", "StructureAtPoint.__init__"),
    ("weakf.axioms", "wfk.weakf", "check_axioms"),
    ("weakf.theorem1", "wfk.weakf", "theorem1_check"),
    ("kenmotsu.residual", "wfk.kenmotsu", "kenmotsu_residual"),
    ("kenmotsu.identities", "wfk.kenmotsu", "audit_identities"),
    ("kenmotsu.twisted", "wfk.kenmotsu", "twisted_product_audit"),
    ("star_soliton.star_def", "wfk.star_soliton", "star_symmetry_gate"),
    ("star_soliton.thm4", "wfk.star_soliton", "theorem4_residual"),
    ("star_soliton.cor2", "wfk.star_soliton", "star_eta_einstein_fit"),
    ("star_soliton.soliton", "wfk.star_soliton", "soliton_residual"),
    ("star_soliton.lemma2", "wfk.star_soliton", "lemma2_audit"),
)

# per-layer self-time metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "geometry.build_s": ("geometry.build",),
    "geometry.lie_curvature_s": ("geometry.lie_curvature",),
    "geometry.lie_connection_s": ("geometry.lie_connection",),
    "geometry.lie_metric_s": ("geometry.lie_metric",),
    "geometry.lie_1form_s": ("geometry.lie_1form",),
    "expr.jet_s": ("expr.jet",),
    "expr.parse_s": ("expr.parse",),
    "kenmotsu.identities_s": ("kenmotsu.identities",),
    "star_soliton.lemma2_s": ("star_soliton.lemma2",),
    "weakf.structure_s": ("weakf.structure",),
    "weakf.axioms_s": ("weakf.axioms",),
    "weakf.theorem1_s": ("weakf.theorem1",),
    "kenmotsu.residual_s": ("kenmotsu.residual",),
    "kenmotsu.twisted_s": ("kenmotsu.twisted",),
    "star_soliton.star_def_s": ("star_soliton.star_def",),
    "star_soliton.thm4_s": ("star_soliton.thm4",),
    "star_soliton.cor2_s": ("star_soliton.cor2",),
    "star_soliton.soliton_s": ("star_soliton.soliton",),
    "checks.run_s": ("checks.run", "checks.group", "checks.group_miss"),
    "cli.load_s": ("cli.load",),
    "cli.build_s": ("cli.build",),
    "cli.sample_s": ("cli.sample",),
    # what run_check does itself: digest, record formatting, JSON, write
    "cli.report_s": ("cli.run_check",),
}

# count metrics must repeat exactly between traced runs of the same inputs
COUNT_METRICS = (
    "geometry.at_calls",
    "geometry.builds",
    "expr.jet_calls",
    "expr.parse_calls",
    "weakf.structure_calls",
    "weakf.structure_builds",
    "checks.group_calls",
    "cli.report_bytes",
)

# every per-layer metric a traced run reports: name -> (unit, better)
PER_LAYER = {
    **{name: ("s", "lower") for name in SELF_TIME_METRICS},
    **{name: ("count", "lower") for name in COUNT_METRICS},
    "cli.report_bytes": ("bytes", "lower"),
    "geometry.hit_ratio": ("ratio", "higher"),
    "geometry.offset_build_share": ("ratio", "lower"),
    "expr.jets_per_point": ("jets/point", "lower"),
    "checks.group_hit_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Span recorder: wraps callables and keeps finished spans in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self.build_points: list[tuple] = []
        self.sample_points: list[tuple] = []
        self._restore: list = []

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (run_id, name, start, end, parent)
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target where its callers look it up."""
        hooks = {
            "geometry.build": lambda args, _: self.build_points.append(
                tuple(args[2].tolist())
            ),
            "cli.sample": lambda _, result: self.sample_points.extend(
                tuple(p.tolist()) for p in result
            ),
        }
        wfk_modules = [
            mod for key, mod in sorted(sys.modules.items())
            if (key == "wfk" or key.startswith("wfk.")) and mod is not None
        ]
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                attr = meth
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, hooks.get(name))
            holders = [owner] if isinstance(owner, type) else [
                mod for mod in wfk_modules if mod.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["run", "name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans) -> list[int]:
    """Self time of each span in ns: duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for run_id, name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, report_bytes: int) -> tuple[dict, Counter]:
    """Per-layer metrics of one traced check, and span call counts."""
    calls = Counter(span[1] for span in tracer.spans)
    self_ns = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_ns[span[1]] += own
    metrics = {
        metric: sum(self_ns[name] for name in names) / 1e9
        for metric, names in SELF_TIME_METRICS.items()
    }
    samples = set(tracer.sample_points)
    builds = calls["geometry.build"]
    offset_builds = sum(1 for p in tracer.build_points if p not in samples)
    groups = calls["checks.group"]
    metrics.update(
        {
            "geometry.at_calls": calls["geometry.at"],
            "geometry.builds": builds,
            "geometry.hit_ratio": _ratio(calls["geometry.at"] - builds, calls["geometry.at"]),
            "geometry.offset_build_share": _ratio(offset_builds, builds),
            "expr.jet_calls": calls["expr.jet"],
            "expr.jets_per_point": _ratio(calls["expr.jet"], len(samples)),
            "expr.parse_calls": calls["expr.parse"],
            "weakf.structure_calls": calls["weakf.at"],
            "weakf.structure_builds": calls["weakf.structure"],
            "checks.group_calls": groups,
            "checks.group_hit_ratio": _ratio(groups - calls["checks.group_miss"], groups),
            "cli.report_bytes": report_bytes,
        }
    )
    return metrics, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
