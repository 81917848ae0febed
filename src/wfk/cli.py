"""Manifest-driven command line: run identity checks, emit builder manifests.

Manifest schema (JSON, version tag "wfk/1"): structure tensors as
expression strings over coordinates x1..xN, metric as its lower
triangle, optional soliton block, optional tolerance overrides, check
list, and sampling policy.  Reports are deterministic for a fixed
manifest and seed; `--reproducible` suppresses the timestamp.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import errno
import hashlib
import json
import math
import os
import sys
from itertools import accumulate, chain

import numpy as np

from . import __version__
from . import expr as ex
from .checks import CATALOGUE, CheckContext, applicable_ids, run_check_ids
from .expr import ExprAst, ExprDomainError, ExprError
from .geometry import FieldSpec, MetricError, MetricField
from .kenmotsu import build_example2, build_twisted_product
from .star_soliton import SolitonData
from .weakf import MAX_FIELD, WeakFManifold

__all__ = [
    "SCHEMA_VERSION",
    "ManifestError",
    "load_manifest",
    "manifold_from_manifest",
    "sample_points",
    "run_check",
    "emit_example2",
    "emit_twisted",
    "list_checks",
    "main",
]

SCHEMA_VERSION = "wfk/1"
_KEYS = (
    "version", "n", "s", "dim", "beta", "c", "metric", "f", "Q", "xi", "eta",
    "sigma", "soliton", "checks", "tolerances", "sample",
)
_SOLITON_KEYS = ("lambda", "mu", "V", "v")
_DEFAULT_SAMPLE = {"count": 5, "seed": 42, "box": [-0.5, 0.5]}

# Size caps, checked before anything of that size is allocated.  A run holds
# one chunk's geometry at a time (weakf.chunk_size: 2^20 floats counted as
# dim^5 third-order metric jets a point, or one point from dim 14; the jets
# span the metric's support only, so the count over-provisions).  Over the
# full catalogue of example2, tracemalloc measures a peak of 12.8 MiB at dim 21.
_MAX_DIM = 21
# Every point adds a record per check id (41 ids, up to ~600 bytes of JSON
# each at dim 21), so a report file stays within about 50 MiB; it is written
# an id's records at a time, so the cap bounds the file, not the memory.
_MAX_POINTS = 2000
# count * dim^5 bound, e.g. at most 108 points at dim 15.  Fields are jetted
# a chunk at a time, so memory does not grow with the count (a full-catalogue
# run peaks at 10.4 MiB at dim 15 with 108 points, 12.8 MiB at dim 21 with 13);
# the bound caps the run time instead, about 2 s at dim 15.
_MAX_POINTS_DIM5 = 2**31 // 26
# A constant beta enters the formulas through powers up to beta^4, and the
# largest coefficient formed from beta alone is 4 s n beta^4 (lemma2.34).  At
# dim 2n + s <= 21, s n <= 55, so 220 beta^4 stays below the largest float
# (1.8e308) while |beta| <= 1e76.
_MAX_BETA = 1e76


class ManifestError(Exception):
    """Bad input: invalid manifest content, or an argument that cannot be
    used; maps to process exit code 2."""


# ---------------------------------------------------------------------------
# manifest parsing


def _finite_number(raw, where: str) -> float:
    """``raw`` as a finite float; booleans, non-numbers, nan and inf are errors."""
    try:
        val = float(raw)
    except (TypeError, ValueError, OverflowError):
        val = math.nan
    if isinstance(raw, bool) or not math.isfinite(val):
        raise ManifestError(f"{where}: expected a finite number, got {raw!r}")
    return val


def _integer(raw, where: str) -> int:
    """``raw`` as an int; booleans and numbers with a fractional part are errors."""
    try:
        val = int(raw)
    except (TypeError, ValueError, OverflowError):
        val = None
    if isinstance(raw, bool) or val is None or (isinstance(raw, float) and val != raw):
        raise ManifestError(f"{where}: expected an integer, got {raw!r}")
    return val


def _bounded(raw, where: str, bound: float) -> float:
    """``raw`` as a finite float at most ``bound`` in size."""
    val = _finite_number(raw, where)
    if abs(val) > bound:
        raise ManifestError(f"{where}: must be at most {bound:g} in size, got {raw!r}")
    return val


def _chart_dim(n: int, s: int) -> int:
    """The chart dimension 2n + s, within its bounds."""
    if n < 1 or s < 1:
        raise ManifestError("need n >= 1 and s >= 1")
    if 2 * n + s > _MAX_DIM:
        raise ManifestError(
            f"dimension 2n+s = {2 * n + s} exceeds the limit {_MAX_DIM}"
        )
    return 2 * n + s


def _parse_entry(raw, dim: int, where: str) -> ExprAst:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return ex.const(_finite_number(raw, where), dim)
    if isinstance(raw, str):
        try:
            return ex.parse_expression(raw, dim)
        except ExprError as err:
            raise ManifestError(f"{where}: {err}") from err
    raise ManifestError(f"{where}: expected a number or expression string")


def _parse_matrix(raw, dim: int, name: str, lower: bool = False):
    if not isinstance(raw, list) or len(raw) != dim:
        raise ManifestError(f"{name}: expected {dim} rows")
    rows = []
    for i, row in enumerate(raw):
        want = i + 1 if lower else dim
        if not isinstance(row, list) or len(row) != want:
            raise ManifestError(f"{name} row {i + 1}: expected {want} entries")
        rows.append(
            tuple(_parse_entry(e, dim, f"{name}[{i + 1}][{j + 1}]") for j, e in enumerate(row))
        )
    return tuple(rows)


def _parse_components(raw, dim: int, name: str):
    if not isinstance(raw, list) or len(raw) != dim:
        raise ManifestError(f"{name}: expected {dim} components")
    return tuple(_parse_entry(e, dim, f"{name}[{k + 1}]") for k, e in enumerate(raw))


def _entry_error(m: WeakFManifold, err: ExprDomainError) -> ManifestError:
    """``err`` named by the first entry of ``m`` in manifest order that holds
    the node at fault, so that its span reads in that entry's text."""
    sol = m.soliton
    todo = [  # in reverse manifest order
        ("soliton.v", sol and sol.v), ("soliton.V", sol and sol.V and sol.V.entries),
        ("sigma", m.sigma), ("eta", [v.entries for v in m.eta]), ("xi", [v.entries for v in m.xi]),
        ("Q", m.Q.entries), ("f", m.f.entries),
        ("metric", [row[: i + 1] for i, row in enumerate(m.metric.entries)]),
    ]
    while todo:  # depth first, in manifest order: fields, rows, entries, nodes
        name, item = todo.pop()
        if isinstance(item, tuple | list):
            todo += reversed([(f"{name}[{k + 1}]", e) for k, e in enumerate(item)])
        elif isinstance(item, ExprAst):
            todo.append((name, item.root))
        elif item == err.node:
            return ManifestError(f"{name}: {err}")
        elif item:
            todo += [(name, child) for child in item.children]
    return ManifestError(str(err))


def _known_keys(raw: dict, allowed, where: str) -> None:
    """A misspelt key is an error, not an option silently left at its default."""
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        raise ManifestError(f"{where}: unknown keys {unknown}; expected {list(allowed)}")


def load_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ManifestError(f"cannot read manifest: {err}") from err
    # JSONDecodeError, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise ManifestError(f"manifest is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ManifestError("manifest root must be a JSON object")
    if data.get("version") != SCHEMA_VERSION:
        raise ManifestError(
            f"unsupported manifest version {data.get('version')!r}; "
            f"expected {SCHEMA_VERSION!r}"
        )
    return data


def manifold_from_manifest(data: dict):
    """Build (model with its soliton, check ids, tolerance overrides, sample policy)."""
    _known_keys(data, _KEYS, "manifest")
    n, s = _integer(data.get("n"), "n"), _integer(data.get("s"), "s")
    dim = _chart_dim(n, s)
    if data.get("dim") not in (None, dim):
        raise ManifestError(f"dim {data.get('dim')} does not equal 2n+s = {dim}")

    beta = data.get("beta")
    if isinstance(beta, str):  # a constant written as an expression
        folded = _parse_entry(beta, dim, "beta").tape.outputs[0]
        if not isinstance(folded, float):  # an instruction: it reads x, or is not finite
            raise ManifestError(f"beta: expected a finite constant, got {beta!r}")
        beta = folded
    if beta is not None:
        beta = _bounded(beta, "beta", _MAX_BETA)
    if data.get("c") is not None:  # the emitters write it; no check reads it
        _finite_number(data["c"], "c")

    metric_rows = _parse_matrix(data.get("metric"), dim, "metric", lower=True)
    metric = MetricField.from_entries(metric_rows, dim)
    f = FieldSpec(dim, _parse_matrix(data.get("f"), dim, "f"))
    q = FieldSpec(dim, _parse_matrix(data.get("Q"), dim, "Q"))
    fields = []
    for name, what in (("xi", "vector fields"), ("eta", "one-forms")):
        raw = data.get(name)
        if not isinstance(raw, list) or len(raw) != s:
            raise ManifestError(f"{name}: expected {s} {what}")
        fields.append(tuple(
            FieldSpec(dim, _parse_components(v, dim, f"{name}[{i + 1}]"))
            for i, v in enumerate(raw)
        ))
    xi, eta = fields

    sigma = None if data.get("sigma") is None else _parse_entry(data["sigma"], dim, "sigma")

    soliton = None
    sol_raw = data.get("soliton")
    if sol_raw is not None:
        if not isinstance(sol_raw, dict):
            raise ManifestError("soliton: expected an object")
        _known_keys(sol_raw, _SOLITON_KEYS, "soliton")
        # lambda and mu enter the soliton checks linearly, as V does
        lam = _bounded(sol_raw.get("lambda"), "soliton.lambda", MAX_FIELD)
        mu = _bounded(sol_raw.get("mu"), "soliton.mu", MAX_FIELD)
        if ("V" in sol_raw) == ("v" in sol_raw):
            raise ManifestError("soliton: provide exactly one of V or v")
        if "V" in sol_raw:
            comps = _parse_components(sol_raw["V"], dim, "soliton.V")
            soliton = SolitonData(lam=lam, mu=mu, V=FieldSpec(dim, comps))
        else:
            soliton = SolitonData(lam=lam, mu=mu, v=_parse_entry(sol_raw["v"], dim, "soliton.v"))

    m = WeakFManifold(
        n=n, s=s, beta=beta, metric=metric, f=f, Q=q, xi=xi, eta=eta, sigma=sigma,
        soliton=soliton,
    )
    # dual-basis validation at the origin, on the model the run uses
    try:
        st = m.at(np.zeros(dim))
    except ExprDomainError as err:
        raise _entry_error(m, err) from err
    if np.abs(st.eta @ st.xi.T - np.eye(s)).max() > 1e-8:
        raise ManifestError("axiom eta^i(xi_j) = delta violated at validation")

    checks = data.get("checks")
    if checks is not None:
        if not isinstance(checks, list) or not checks or not all(
            isinstance(c_, str) for c_ in checks
        ):
            raise ManifestError("checks: expected a non-empty list of check ids")
        unknown = [c_ for c_ in checks if c_ not in CATALOGUE]
        if unknown:
            raise ManifestError(f"checks: unknown check ids {unknown}")

    tols = {} if data.get("tolerances") is None else data["tolerances"]
    if not isinstance(tols, dict):
        raise ManifestError("tolerances: expected an object of id -> value")
    overrides = {}
    for key, raw in tols.items():  # each finite and > 0
        if key not in CATALOGUE:
            raise ManifestError(f"tolerances: unknown check id {key!r}")
        overrides[key] = _finite_number(raw, f"tolerances[{key}]")
        if overrides[key] <= 0:
            raise ManifestError(f"tolerances[{key}]: tolerance must be > 0, got {raw!r}")

    sample_raw = {} if data.get("sample") is None else data["sample"]
    if not isinstance(sample_raw, dict):
        raise ManifestError("sample: expected an object of policy key -> value")
    _known_keys(sample_raw, _DEFAULT_SAMPLE, "sample")
    sample = {**_DEFAULT_SAMPLE, **sample_raw}
    return m, checks, overrides, sample


# ---------------------------------------------------------------------------
# check command


def sample_points(dim: int, sample: dict) -> np.ndarray:
    try:
        count = _integer(sample["count"], "sample.count")
        seed = _integer(sample["seed"], "sample.seed")
        box = sample["box"]
        if not isinstance(box, list) or len(box) != 2:  # a string would unpack too
            raise ManifestError(f"sample.box: expected a list of two numbers, got {box!r}")
        lo, hi = (_finite_number(x, "sample.box") for x in box)
    except (KeyError, TypeError, ValueError) as err:
        raise ManifestError(f"sample policy: {err}") from err
    most = min(_MAX_POINTS, _MAX_POINTS_DIM5 // dim**5)
    if not 1 <= count <= most:
        raise ManifestError(
            f"sample policy: need 1 <= count <= {most} at dimension {dim}, got {count}"
        )
    if seed < 0:
        raise ManifestError(f"sample policy: need seed >= 0, got {seed}")
    if not lo < hi or not math.isfinite(hi - lo):
        raise ManifestError("sample policy: need a box LO < HI with a finite width")
    return np.random.default_rng(seed).uniform(lo, hi, (count, dim))


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _numbers(xs) -> list[str]:
    """Each float of ``xs`` rounded to 15 significant digits, as :mod:`json`
    writes that float; each step is one ``map``, a loop in C."""
    texts = list(map(repr, map(float, map("%.15g".__mod__, xs))))
    return list(map(_NON_FINITE.get, texts, texts))


def _report_json(head: dict, points, checks, tail: dict):
    """The pieces of a report's text, an id's records a piece, and its summary.

    The pieces join to ``json.dumps(report, indent=2)`` of ``head``, then
    "checks": a record an id and point with the id, the point, the residual,
    the tolerance (numbers rounded to 15 significant digits), whether it
    passed (``residual <= tolerance``; NaN fails) and the id's audit flag;
    then "summary": the passed and failed checks and the flagged (not passed)
    audits; then ``tail``.  ``checks`` gives ``(id, residual at each point,
    tolerance, audit)`` in record order.  ``indent`` selects json's
    pure-Python encoder, which costs more than the checks themselves on
    large runs, so the records are put together from their fixed layout,
    and no Python code runs once per record.
    """
    summary = {"pass": 0, "fail": 0, "flagged": 0}
    verdicts = []
    for _, column, tol, audit in checks:
        passed = column <= tol
        n_pass = int(np.count_nonzero(passed))
        if audit:
            summary["flagged"] += len(column) - n_pass
        else:
            summary["pass"] += n_pass
            summary["fail"] += len(column) - n_pass
        verdicts.append(passed.tolist())

    def field(key, val) -> str:
        return f"  {json.dumps(key)}: " + json.dumps(val, indent=2).replace("\n", "\n  ")

    def pieces():
        any_record = any(verdicts)
        yield "{\n" + "".join(field(k, v) + ",\n" for k, v in head.items()) + (
            '  "checks": [' if any_record else '  "checks": []'
        )
        rows = points.tolist() if isinstance(points, np.ndarray) else points
        coords = _numbers(chain.from_iterable(rows))
        ends = list(accumulate(map(len, rows)))
        sep, then = ",\n        ", ',\n      "residual": '
        blocks = [
            f"[\n        {sep.join(coords[a:b])}\n      ]{then}" if a < b else "[]" + then
            for a, b in zip([0, *ends], ends)
        ]
        # each distinct residual is formatted once; its bits keep -0.0 apart from 0.0
        every = np.concatenate([np.empty(0), *(c[1] for c in checks)])
        bits, at = np.unique(every.view(np.int64), return_inverse=True)
        residuals = list(map(_numbers(bits.view(np.float64).tolist()).__getitem__, at.tolist()))
        literal, lead, start = ("false", "true"), "\n", 0  # lead: before the first record
        for (cid, _, tol, audit), passed in zip(checks, verdicts):
            if not passed:
                continue
            opening = f'    {{\n      "id": {json.dumps(cid)},\n      "point": '
            middle = f',\n      "tolerance": {_numbers([tol])[0]},\n      "pass": '
            closings = [f'{middle}{ok},\n      "audit": {literal[audit]}\n    }}' for ok in literal]
            parts = [",\n" + opening] * (4 * len(passed))
            parts[0] = lead + opening
            parts[1::4] = blocks
            parts[2::4] = residuals[start : start + len(passed)]
            parts[3::4] = map(closings.__getitem__, passed)
            lead, start = ",\n", start + len(passed)
            yield "".join(parts)
        yield ("\n  ]" if any_record else "") + "".join(
            ",\n" + field(k, v) for k, v in {"summary": summary, **tail}.items()
        ) + "\n}"

    return pieces(), summary


def run_check(args) -> int:
    data = load_manifest(args.manifest)
    # the flags are edits of the manifest, so its one validator checks them
    # and the digest covers them; only a --tol argument's shape is read here
    sample = {"count": args.points, "seed": args.seed, "box": args.box}
    tols = {}
    for item in args.tol or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ManifestError(f"--tol {item}: expected ID=VALUE")
        tols[key] = val
    for key, edits in (("sample", sample), ("tolerances", tols)):
        edits = {k: v for k, v in edits.items() if v is not None}
        base = {} if data.get(key) is None else data[key]
        if edits and isinstance(base, dict):  # a non-object is left to the validator
            data[key] = {**base, **edits}
    if args.only:
        data["checks"] = [i for part in args.only for i in part.split(",") if i]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()
    m, ids, overrides, sample = manifold_from_manifest(data)
    ctx = CheckContext(m)
    ids = applicable_ids(ctx) if ids is None else ids

    points = sample_points(m.dim, sample)
    out = args.out  # a directory, or a file in a missing one, fails before the checks
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
        raise ManifestError(f"cannot write {out}: {os.strerror(code)}")
    try:
        # each input is bounded alone; extremes of several together can still
        # leave the float range, which is bad input too
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            table = run_check_ids(ctx, ids, points)
    except FloatingPointError as err:
        raise ManifestError(f"the inputs are too large together: {err}") from err
    except ExprDomainError as err:
        raise _entry_error(m, err) from err
    except ValueError as err:
        raise ManifestError(str(err)) from err

    checks = [
        (cid, table[cid], overrides.get(cid, CATALOGUE[cid].tolerance), CATALOGUE[cid].audit)
        for cid in sorted(table)
    ]
    tail = {}
    if not args.reproducible:
        tail["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    pieces, summary = _report_json(
        {"tool": f"wfk {__version__}", "manifest_digest": digest}, points, checks, tail
    )
    _write(chain(pieces, ["\n"]), args.out)
    return 0 if summary["fail"] == 0 else 1


def _write(pieces, out: str | None) -> None:
    """The text ``pieces``, in order, to the file ``out``, or to stdout without
    one.  A failed write is bad output, and leaves no partial file."""
    try:
        if not out:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except OSError:
                # what stdout still buffers would fail again at exit: send it nowhere
                with contextlib.suppress(OSError):  # a stdout without a descriptor
                    fd = sys.stdout.fileno()
                    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
                raise
        else:
            fh = open(out, "w", encoding="utf-8")
            try:
                with fh:
                    fh.writelines(pieces)
            except OSError:
                if os.path.isfile(out):  # the partial report; never a device
                    with contextlib.suppress(OSError):
                        os.remove(out)
                raise
    except OSError as err:
        raise ManifestError(f"cannot write {out or '<stdout>'}: {err.strerror or err}") from err


# ---------------------------------------------------------------------------
# emit commands


def emit_example2(args) -> int:
    _chart_dim(args.n, args.s)
    beta, c = _bounded(args.beta, "beta", _MAX_BETA), _finite_number(args.c, "c")
    try:
        data = build_example2(args.n, args.s, beta, c)
    except ValueError as err:
        raise ManifestError(str(err)) from err
    lam = _bounded(args.s * beta - args.s * (1.0 + c) * beta**2, "soliton.lambda", MAX_FIELD)
    soliton = {"lambda": lam, "mu": -lam, "V": [0] * (2 * args.n) + [1] * args.s}  # V = xibar
    manifest = {"version": SCHEMA_VERSION, **data, "soliton": soliton}
    _write([json.dumps(manifest, indent=2) + "\n"], args.out)
    return 0


def emit_twisted(args) -> int:
    """Emit a twisted-product manifest.  The factor scales come from the
    command line, so the structure axioms are checked at the origin against
    their catalogue tolerances before the manifest is written."""
    scales = [_finite_number(x, "--factors") for x in args.factors.split(",") if x]
    if not scales:
        raise ManifestError("--factors: need at least one factor scale")
    _chart_dim(len(scales), args.s)
    try:
        data = build_twisted_product(scales, args.s, args.sigma)
    except ExprError as err:
        raise ManifestError(f"sigma: {err}") from err
    except ValueError as err:
        raise ManifestError(str(err)) from err
    m = manifold_from_manifest(data)[0]  # bounds the beta inferred from sigma, too
    axioms = CheckContext(m).group_reports("axioms", m.at(np.zeros(m.dim)))
    if not all(res <= CATALOGUE[cid].tolerance for cid, res in axioms.items()):
        worst = max(axioms.values())
        raise ManifestError(
            f"fiber data does not satisfy the structure axioms (residual {worst:.2e})"
        )
    _write([json.dumps({"version": SCHEMA_VERSION, **data}, indent=2) + "\n"], args.out)
    return 0


def list_checks(args) -> int:
    width = max(len(cid) for cid in CATALOGUE)
    for cid, spec in CATALOGUE.items():
        tag = "audit" if spec.audit else "check"
        need = f"  requires: {', '.join(spec.requires)}" if spec.requires else ""
        sys.stdout.write(f"{cid:<{width}}  {tag}  tol={spec.tolerance:g}{need}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfk", description="identity checks for weak metric f-manifolds"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run checks from a manifest")
    p_check.add_argument("manifest")
    p_check.add_argument("--points", type=int)
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--box", nargs=2, type=float, metavar=("LO", "HI"))
    p_check.add_argument("--only", action="append")
    p_check.add_argument("--tol", action="append", metavar="ID=VALUE")
    p_check.add_argument("--out")
    p_check.add_argument("--reproducible", action="store_true")
    p_check.set_defaults(func=run_check)

    p_e2 = sub.add_parser("example2", help="emit the explicit chart model manifest")
    p_e2.add_argument("n", type=int)
    p_e2.add_argument("s", type=int)
    p_e2.add_argument("beta", type=float)
    p_e2.add_argument("c", type=float)
    p_e2.add_argument("--out")
    p_e2.set_defaults(func=emit_example2)

    p_tw = sub.add_parser("twisted", help="emit a twisted-product manifest")
    p_tw.add_argument("--factors", required=True, metavar="C1,C2,…")
    p_tw.add_argument("--s", type=int, required=True)
    p_tw.add_argument("--sigma", required=True)
    p_tw.add_argument("--out")
    p_tw.set_defaults(func=emit_twisted)

    p_ls = sub.add_parser("list-checks", help="list catalogue check ids")
    p_ls.set_defaults(func=list_checks)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, ExprError, MetricError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
