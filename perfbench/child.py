"""One measured wfk invocation in a fresh process.

    python3 perfbench/child.py emit WORKLOAD OUT
    python3 perfbench/child.py check MANIFEST REPORT --trace 0|1 [--run-id ID --spans PATH]

``emit`` writes the workload's manifest with the wfk CLI's own emitter.
``check`` runs ``wfk.cli.main(["check", ...])`` once and prints one JSON
line: exit code, wall and CPU seconds of the call, the monotonic time at which
the first point started (untraced only), peak RSS, and with
``--trace 1`` the per-layer metrics and span call counts.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wfk.cli as cli  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def emit(workload: str, out: str) -> int:
    return cli.main(list(WORKLOADS[workload].emit) + ["--out", out])


def check(manifest: str, report: str, trace: bool, run_id: str, spans: str | None) -> dict:
    marks: list[float] = []
    tracer = None
    if trace:
        tracer = Tracer(run_id)
        tracer.install()
    else:
        run_ids = cli.run_check_ids

        def first_point(*args, **kwargs):
            if not marks:
                marks.append(time.monotonic())
            return run_ids(*args, **kwargs)

        cli.run_check_ids = first_point

    start, cpu_start = time.perf_counter(), time.process_time()
    code = cli.main(["check", manifest, "--out", report, "--reproducible"])
    check_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    result = {
        "exit": code,
        "check_s": check_s,
        "cpu_s": cpu_s,
        "setup_mark": marks[0] if marks else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        size = os.path.getsize(report) if os.path.exists(report) else 0
        layers, calls = layer_metrics(tracer, size)
        if spans:
            tracer.write(spans)
        result["layers"] = layers
        result["calls"] = dict(calls)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_emit = sub.add_parser("emit")
    p_emit.add_argument("workload", choices=sorted(WORKLOADS))
    p_emit.add_argument("out")
    p_check = sub.add_parser("check")
    p_check.add_argument("manifest")
    p_check.add_argument("report")
    p_check.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_check.add_argument("--run-id", default="run")
    p_check.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "emit":
        return emit(args.workload, args.out)
    result = check(args.manifest, args.report, bool(args.trace), args.run_id, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
