"""Benchmark of ``wfk check``: end-to-end metrics, or a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/wfk`` is imported from
there; nothing is installed).  The loop is closed: one caller, one check
at a time, each ``wfk check`` call in a fresh process so that peak RSS and
set-up time cover that call only.  Calls repeat until ``--seconds`` have
passed and the medians are reported.

With ``--trace 0`` the metrics are ``check_s`` (wall time of one
``wfk.cli.main(["check", ...])`` call after imports), ``setup_s`` (process
spawn until the first point starts) and ``peak_rss_mb``.  With
``--trace 1`` traced and untraced calls alternate; the metrics are the
per-layer self times and counts of the traced calls and the tracing
overhead (median traced minus median untraced ``check_s``).

Every report is checked against the workload's expected verdicts; bad
records over expected records is ``failed`` over ``attempted`` in the
last line, which is one JSON object.  Details of every call and the
environment go to ``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import COUNT_METRICS, PER_LAYER
from workloads import WORKLOADS, bad_records, manifest, reference_points

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
# a run must end within 180 s even when calls are slow or hang
CHILD_TIMEOUT_S = 90
LAST_START_S = 80
MIN_CALLS = {0: 3, 1: 4}
END_TO_END = {"check_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run child.py to completion; returns its spawn time and the process."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"child timed out: {' '.join(args)}\n")
        return spawned, None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return spawned, proc


def parse_result(proc: subprocess.CompletedProcess | None) -> dict | None:
    if proc is None or proc.returncode != 0 or not proc.stdout.strip():
        return None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def read_report(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wfk check benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wfk" / "cli.py").is_file():
        sys.stderr.write(f"no wfk source tree under {ROOT}; run from a checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"

    emitted_path = WORK / f"{workload.name}.emitted.json"
    _, proc = run_child(["emit", workload.name, str(emitted_path)])
    if proc is None or proc.returncode != 0:
        sys.stderr.write("manifest emission failed\n")
        return 1
    with open(emitted_path, encoding="utf-8") as fh:
        emitted = json.load(fh)
    manifest_path = WORK / f"{tag}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest(workload, emitted, args.seed), fh, indent=1)
    points = reference_points(emitted["dim"], workload.points, args.seed)
    report_path = WORK / f"{tag}.report.json"

    calls: list[dict] = []
    attempted = failed = 0
    begun = time.monotonic()
    deadline = begun + args.seconds
    last_start = begun + max(args.seconds, LAST_START_S)
    while (len(calls) < MIN_CALLS[args.trace] or time.monotonic() < deadline) and (
        time.monotonic() < last_start
    ):
        traced = args.trace == 1 and len(calls) % 2 == 0
        report_path.unlink(missing_ok=True)
        child_args = [
            "check", str(manifest_path), str(report_path),
            "--trace", str(int(traced)),
            "--run-id", f"{tag}-{len(calls)}",
            "--spans", str(WORK / f"{tag}.spans.json"),
        ]
        spawned, proc = run_child(child_args)
        result = parse_result(proc)
        exit_code = result["exit"] if result else None
        bad = bad_records(workload, points, read_report(report_path), exit_code)
        attempted += len(workload.verdicts) * len(points)
        failed += bad
        calls.append(
            {
                "traced": traced,
                "bad": bad,
                "result": result,
                "setup_s": (
                    result["setup_mark"] - spawned
                    if result and result.get("setup_mark") is not None
                    else None
                ),
            }
        )
    report_path.unlink(missing_ok=True)

    ok = [c for c in calls if c["result"] is not None]
    plain = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    correct = failed == 0
    if args.trace == 0:
        if not plain:
            sys.stderr.write("no check call completed\n")
            return 1
        values = {
            "check_s": median(c["result"]["check_s"] for c in plain),
            "setup_s": median(c["setup_s"] for c in plain),
            "peak_rss_mb": median(c["result"]["rss_mb"] for c in plain),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        if not plain or not traced:
            sys.stderr.write("no traced and untraced check pair completed\n")
            return 1
        layers = [c["result"]["layers"] for c in traced]
        metrics = {name: median(run[name] for run in layers) for name in layers[0]}
        for name in COUNT_METRICS:
            values = {run[name] for run in layers}
            if len(values) != 1:
                sys.stderr.write(f"count {name} differs between traced calls: {values}\n")
                correct = False
        for c in traced:
            silent = [s for s in workload.spans if not c["result"]["calls"].get(s)]
            if silent:
                sys.stderr.write(f"spans recorded no calls: {silent}\n")
                correct = False
        overhead = median(c["result"]["check_s"] for c in traced) - median(
            c["result"]["check_s"] for c in plain
        )
        metrics["trace.overhead_s"] = overhead
        metrics = {name: (metrics[name], unit) for name, (unit, _) in PER_LAYER.items()}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": {"plain": len(plain), "traced": len(traced), "calls": len(calls)},
        "calls": calls,
    }
    with open(WORK / f"{tag}.record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    info = {k: record[k] for k in ("environment", "samples")}
    sys.stdout.write(json.dumps(info) + "\n")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
