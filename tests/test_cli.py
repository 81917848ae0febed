import contextlib
import errno
import functools
import hashlib
import io
import json
import operator
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfk import InputError, checks, cli, weakf
from wfk.checks import CATALOGUE
from wfk.cli import main
from wfk.kenmotsu import build_example2

from conftest import scalar, seeded_points

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "model.json"
    assert main(["example2", "1", "2", "1.0", "1.0", "--out", str(path)]) == 0
    return str(path)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestEmit:
    def test_example2_manifest_shape(self, manifest_path):
        data = _load(manifest_path)
        assert data["version"] == "wfk/1"
        assert data["n"] == 1 and data["s"] == 2 and data["dim"] == 4
        assert len(data["metric"]) == 4  # lower-triangular rows
        assert len(data["metric"][0]) == 1
        assert len(data["xi"]) == 2 and len(data["eta"]) == 2
        sol = data["soliton"]
        assert sol["lambda"] == pytest.approx(-2.0)
        assert sol["mu"] == pytest.approx(2.0)

    def test_example2_invalid_parameters(self, tmp_path, capsys):
        out = str(tmp_path / "bad.json")
        assert main(["example2", "0", "1", "1.0", "1.0", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    def test_twisted_manifest(self, tmp_path):
        path = tmp_path / "twisted.json"
        code = main(
            [
                "twisted", "--factors", "1.0,2.0", "--s", "2",
                "--sigma", "exp(x5+x6)", "--out", str(path),
            ]
        )
        assert code == 0
        data = _load(path)
        assert data["sigma"] == "exp(x5+x6)"
        assert data["n"] == 2 and data["s"] == 2

    def test_twisted_rejects_nonpositive_sigma(self, tmp_path, capsys):
        code = main(
            ["twisted", "--factors", "1.0", "--s", "1", "--sigma", "0"]
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
    def test_twisted_rejects_fiber_data_that_fails_the_axioms(self, tmp_path, capsys):
        # f^3 is about 3.6e20 at the scale 7.1e6, and its rounding alone fails axiom.f3
        out = tmp_path / "F"
        argv = ["twisted", "--factors", "0.3,7.1e6", "--s", "1", "--sigma", "exp(x5)"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: fiber data does not satisfy the structure axioms (residual 6.55e+04)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("factors", ["1,,2", "1,2,"])
    def test_twisted_rejects_an_empty_factor(self, tmp_path, capsys, factors):
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", factors, "--s", "1", "--sigma", "exp(x5)"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --factors: expected a finite number, got ''\n"
        assert not out.exists()


class TestEmitterGoldens:
    """The emitters' output, pinned: the builders write numbers and source
    text, and a changed builder must not change a manifest unnoticed."""

    @pytest.mark.parametrize(
        "args",
        [("2", "3", "1.0", "1.0"), ("6", "3", "1.0", "1.0"), ("1", "1", "-0.7", "0.0"),
         ("1", "2", "0.5", "1.0"),  # 2 beta = 1: the warp has no factor 1
         ("1", "2", "1e-3", "0.0"),  # a warp factor below 1
         ("1", "1", "0.5", "0.0"),  # no factor and one Reeb coordinate: exp(x3)
         ("1", "2", "-19.09", "1.0"),  # a negative factor
         ("2", "1", "12.73", "0.5"),  # non-integral f and Q entries
         ("1", "2", "1e20", "0.0")],  # a factor written with its exponent
    )
    def test_example2_matches_its_golden(self, tmp_path, args):
        out = tmp_path / "e2.json"
        assert main(["example2", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"example2_{'_'.join(args)}.json").read_bytes()

    def test_twisted_matches_its_golden(self, tmp_path):
        # a scale below 1 puts 0.09 into Q, and a sigma with a fiber coordinate
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "0.3,2", "--s", "1", "--sigma", "exp(x5)*(1+x1^2)"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "twisted_0.3_2.json").read_bytes()

    def test_twisted_writes_sigma_as_given(self, tmp_path):
        # the spelling changes the manifest and its digest, and nothing else
        reports = {}
        for sigma in ("exp(x3) * (2 + x1^2)", "exp(x3)*(2+x1^2)"):
            manifest, report = tmp_path / "tw.json", tmp_path / "report.json"
            argv = ["twisted", "--factors", "1", "--s", "1", "--sigma", sigma]
            assert main([*argv, "--out", str(manifest)]) == 0
            data = _load(manifest)
            assert data["sigma"] == sigma
            assert data["metric"][0][0] == data["metric"][1][1] == f"({sigma})^2"
            code = main(["check", str(manifest), "--reproducible", "--out", str(report)])
            reports[sigma] = code, _load(report)
        (code, spaced), (tight_code, tight) = reports.values()
        assert spaced.pop("manifest_digest") != tight.pop("manifest_digest")
        assert (code, spaced) == (tight_code, tight)

    def test_an_atomic_sigma_is_squared_in_parentheses(self, tmp_path):
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "1,2", "--s", "1", "--sigma", "exp(x5)"]
        assert main([*argv, "--out", str(out)]) == 0
        assert _load(out)["metric"][0][0] == "(exp(x5))^2"

    def test_twisted_differs_from_its_golden_in_numeric_q_only(self, tmp_path):
        # the golden writes Q's fiber diagonal as expressions such as "-(2*-2)"
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "1.0,2.0,3.0", "--s", "2",
                "--sigma", "exp(x7+x8)*(2+x1^2+x2*x3)", "--out", str(out)]
        assert main(argv) == 0
        data, golden = _load(out), _load(GOLDEN / "twisted_tw_d8_screen.json")
        q, golden_q = data.pop("Q"), golden.pop("Q")
        assert data == golden
        for row, golden_row in zip(q, golden_q, strict=True):
            for entry, old in zip(row, golden_row, strict=True):
                assert type(entry) in (int, float)
                assert entry == scalar(str(old), 8).outputs[0]


class TestCheck:
    def test_round_trip_passes(self, manifest_path, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = main(
            ["check", manifest_path, "--reproducible", "--out", report_path]
        )
        assert code == 0
        report = _load(report_path)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["pass"] > 0
        assert "generated_at" not in report
        assert report["tool"].startswith("wfk ")
        ids = [rec["id"] for rec in report["checks"]]
        assert ids == sorted(ids)
        for rec in report["checks"]:
            assert set(rec) == {"id", "point", "residual", "tolerance", "pass", "audit"}

    def test_reproducible_reports_are_identical(self, manifest_path, tmp_path):
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["check", manifest_path, "--reproducible", "--out", p1]) == 0
        assert main(["check", manifest_path, "--reproducible", "--out", p2]) == 0
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_timestamp_present_by_default(self, manifest_path, tmp_path):
        report_path = str(tmp_path / "report.json")
        assert main(["check", manifest_path, "--out", report_path]) == 0
        assert "generated_at" in _load(report_path)

    def test_only_subset(self, manifest_path, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "check", manifest_path, "--only", "axiom.5,axiom.6",
                "--points", "3", "--out", report_path,
            ]
        )
        assert code == 0
        report = _load(report_path)
        assert {rec["id"] for rec in report["checks"]} == {"axiom.5", "axiom.6"}
        assert len(report["checks"]) == 6

    def test_sampling_flags(self, manifest_path, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "check", manifest_path, "--points", "2", "--seed", "7",
                "--box", "-0.1", "0.1", "--only", "axiom.5",
                "--out", report_path,
            ]
        )
        assert code == 0
        report = _load(report_path)
        assert len(report["checks"]) == 2
        for rec in report["checks"]:
            assert all(-0.1 <= x <= 0.1 for x in rec["point"])

    def test_tolerance_override_can_force_failure(self, manifest_path, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "check", manifest_path, "--only", "soliton.32",
                "--tol", "soliton.32=1e-20", "--out", report_path,
            ]
        )
        assert code == 1
        report = _load(report_path)
        assert report["summary"]["fail"] > 0
        assert all(rec["tolerance"] == 1e-20 for rec in report["checks"])

    def test_unknown_tolerance_id(self, manifest_path, tmp_path, capsys):
        routes = _both_routes(
            manifest_path, tmp_path, "tolerances", {"nope": 1e-6}, ["--tol", "nope=1e-6"]
        )
        for err in _input_errors(routes, tmp_path, capsys):
            assert err == "error: tolerances: unknown check id 'nope'\n"

    @pytest.mark.parametrize(
        "value", ["nan", float("nan"), float("inf"), -1, 0, "abc", True]
    )
    def test_bad_manifest_tolerance(self, manifest_path, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        data = _mutated(_load(manifest_path), ("tolerances",), {"axiom.5": value})
        bad.write_text(json.dumps(data))
        [err] = _input_errors([[str(bad)]], tmp_path, capsys)
        assert err.startswith("error: tolerances[axiom.5]: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
    def test_bad_tolerance_flag(self, manifest_path, tmp_path, capsys, value):
        # --tol ID=VALUE is the manifest's tolerances entry {ID: "VALUE"}
        routes = _both_routes(
            manifest_path, tmp_path, "tolerances", {"axiom.5": value},
            ["--tol", f"axiom.5={value}"],
        )
        errors = _input_errors(routes, tmp_path, capsys)
        assert errors[0] == errors[1] and errors[0].startswith("error: tolerances[axiom.5]: ")

    def test_repeated_ids_run_once(self, manifest_path, tmp_path):
        data = _load(manifest_path)
        data["checks"] = ["axiom.5", "axiom.6", "axiom.5"]
        listed = tmp_path / "listed.json"
        listed.write_text(json.dumps(data))
        runs = [
            [manifest_path, "--only", "axiom.5,axiom.5", "--only", "axiom.5"],
            [str(listed)],
        ]
        for args, want in zip(runs, (["axiom.5"], ["axiom.5", "axiom.6"])):
            report_path = str(tmp_path / "report.json")
            assert main(["check", *args, "--points", "2", "--out", report_path]) == 0
            report = _load(report_path)
            assert [rec["id"] for rec in report["checks"]] == sorted(want * 2)
            assert report["summary"]["pass"] == 2 * len(want)

    @pytest.mark.parametrize("potential", ["V", "v"])
    def test_soliton_groups_need_beta(self, manifest_path, tmp_path, capsys, potential):
        data = _load(manifest_path)
        data["beta"] = None
        if potential == "v":
            del data["soliton"]["V"]
            data["soliton"]["v"] = "x3+x4"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        report_path = str(tmp_path / "report.json")
        assert main(["check", str(path), "--points", "2", "--out", report_path]) == 0
        ran = {rec["id"] for rec in _load(report_path)["checks"]}
        needs_beta = {
            "soliton.32", "soliton.33", "grad.75", "lemma2.42", "lemma2.34", "lemma2.35"
        }
        assert "prop5" in ran and not ran & needs_beta
        want = "soliton.32" if potential == "V" else "grad.75"
        assert main(["check", str(path), "--only", want]) == 2
        err = capsys.readouterr().err
        assert "need data" in err and want in err

    def test_unknown_only_id(self, manifest_path, tmp_path, capsys):
        routes = _both_routes(
            manifest_path, tmp_path, "checks", ["axiom.5", "nope"], ["--only", "axiom.5,nope"]
        )
        for err in _input_errors(routes, tmp_path, capsys):
            assert err == "error: checks: unknown check ids ['nope']\n"

    def test_empty_only_list(self, manifest_path, tmp_path, capsys):
        routes = _both_routes(manifest_path, tmp_path, "checks", [], ["--only", ","])
        errors = _input_errors(routes, tmp_path, capsys)
        assert errors[0] == errors[1]

    def test_empty_manifest_check_list(self, manifest_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), ("checks",), [])))
        [err] = _input_errors([[str(bad)]], tmp_path, capsys)
        assert err == "error: checks: expected a non-empty list of check ids\n"

    @pytest.mark.parametrize(
        "sample, flags",
        [
            ({"count": 0}, ["--points", "0"]),
            ({"seed": -1}, ["--seed", "-1"]),
            ({"box": [1.0, 0.0]}, ["--box", "1", "0"]),
            ({"box": [0.0, "inf"]}, ["--box", "0", "inf"]),
        ],
        ids=["count-zero", "seed-negative", "box-reversed", "box-inf"],
    )
    def test_bad_sample_setting(self, manifest_path, tmp_path, capsys, sample, flags):
        routes = _both_routes(manifest_path, tmp_path, "sample", sample, flags)
        errors = _input_errors(routes, tmp_path, capsys)
        assert errors[0] == errors[1] and errors[0].startswith("error: sample")

    @pytest.mark.parametrize(
        "box", ["12", "05", [0, 1, 2], [0]], ids=["str-12", "str-05", "three", "one"]
    )
    def test_box_is_a_list_of_two(self, manifest_path, tmp_path, capsys, box):
        # a string is iterable too: "12" would unpack to the box [1, 2]
        bad = tmp_path / "bad.json"
        data = _mutated(_load(manifest_path), ("sample",), {"box": box})
        bad.write_text(json.dumps(data))
        [err] = _input_errors([[str(bad)]], tmp_path, capsys)
        assert err == f"error: sample.box: expected a list of two numbers, got {box!r}\n"

    def test_the_digest_covers_the_flags(self, manifest_path, tmp_path):
        def digest(*flags):
            report = tmp_path / "report.json"
            assert main(["check", manifest_path, *flags, "--out", str(report)]) == 0
            return _load(report)["manifest_digest"]

        loaded = json.dumps(_load(manifest_path), sort_keys=True).encode("utf-8")
        assert digest() == hashlib.sha256(loaded).hexdigest()
        assert digest("--seed", "7") != digest("--seed", "8")

    def test_audits_never_fail_the_run(self, manifest_path, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "check", manifest_path, "--only", "lemma2.42",
                "--points", "2", "--out", report_path,
            ]
        )
        assert code == 0  # flagged, not failed
        report = _load(report_path)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["flagged"] == 2
        assert all(rec["audit"] for rec in report["checks"])


class TestManifestValidation:
    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_wrong_version(self, tmp_path, manifest_path, capsys):
        data = _load(manifest_path)
        data["version"] = "wfk/0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        assert "version" in capsys.readouterr().err

    def test_truncated_expression(self, tmp_path, manifest_path, capsys):
        data = _load(manifest_path)
        data["metric"][0][0] = "exp(2*(x3+"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        assert "metric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("exp(exp(x3+10))", "exp overflows"),
            ("1e999", "out of range"),
            (float("inf"), "finite"),
        ],
    )
    def test_non_finite_metric_entry(
        self, tmp_path, manifest_path, capsys, entry, message
    ):
        data = _load(manifest_path)
        data["metric"][0][0] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "value",
        ["ab", 5, [["count", 3]], [], "", 0, False],
        ids=["string", "number", "pairs", "empty-list", "empty-string", "zero", "false"],
    )
    def test_non_object_sample(self, tmp_path, manifest_path, capsys, value):
        data = _load(manifest_path)
        data["sample"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        assert "error: sample: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [[], 0, "", False], ids=["empty-list", "zero", "empty-string", "false"]
    )
    def test_falsy_non_object_tolerances(self, tmp_path, manifest_path, capsys, value):
        data = _load(manifest_path)
        data["tolerances"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        assert "error: tolerances: expected an object" in capsys.readouterr().err

    def test_null_tolerances_mean_no_overrides(self, tmp_path, manifest_path):
        data = _load(manifest_path)
        data["tolerances"] = None
        path = tmp_path / "null.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--points", "1"]) == 0

    @pytest.mark.parametrize(
        "sample, key",
        [({"cnt": 3}, "cnt"), ({"count": 3, "sead": 9}, "sead")],
        ids=["cnt", "sead"],
    )
    def test_unknown_sample_key(self, tmp_path, manifest_path, capsys, sample, key):
        data = _load(manifest_path)
        data["sample"] = sample
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error: sample: unknown keys" in err and repr(key) in err

    @pytest.mark.parametrize(
        "where, key",
        [((), "tolerence"), ((), "sampel"), (("soliton",), "Vextra")],
        ids=["tolerence", "sampel", "soliton-Vextra"],
    )
    def test_unknown_manifest_key(self, tmp_path, manifest_path, capsys, where, key):
        data = _load(manifest_path)
        block = data
        for name in where:
            block = block[name]
        block[key] = {} if key != "Vextra" else [0, 0, 1, 1]
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad), "--points", "2", "--out", str(report)]) == 2
        err = capsys.readouterr().err
        prefix = "soliton" if where else "manifest"
        assert err.startswith(f"error: {prefix}: unknown keys") and repr(key) in err
        assert not report.exists()

    def test_non_dual_reeb_forms(self, tmp_path, manifest_path, capsys):
        data = _load(manifest_path)
        data["eta"] = [[0, 0, 0, 1], [0, 0, 0, 1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        assert "eta^i(xi_j) = delta" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/manifest.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json's decoder recurses once a level, so this depth overflows it
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest is not valid JSON:")
        assert "Traceback" not in err


    def test_full_square_metric_is_rejected(self, tmp_path, capsys):
        # the metric is its lower triangle: row i holds i entries
        path = tmp_path / "e2.json"
        assert main(["example2", "2", "3", "1.0", "1.0", "--out", str(path)]) == 0
        data = _load(path)
        lower = data["metric"]
        data["metric"] = [[lower[max(i, j)][min(i, j)] for j in range(7)] for i in range(7)]
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: metric[1]: expected 1 entries\n"


# level: (its key path in the n = 1, s = 2 manifest, its name in errors, its extent)
_EXTENTS = {
    "metric": (("metric",), "metric", 4),
    "metric[i]": (("metric", 2), "metric[3]", 3),
    "f": (("f",), "f", 4),
    "f[i]": (("f", 1), "f[2]", 4),
    "Q": (("Q",), "Q", 4),
    "Q[i]": (("Q", 3), "Q[4]", 4),
    "xi": (("xi",), "xi", 2),
    "xi[i]": (("xi", 1), "xi[2]", 4),
    "eta": (("eta",), "eta", 2),
    "eta[i]": (("eta", 0), "eta[1]", 4),
    "soliton.V": (("soliton", "V"), "soliton.V", 4),
}


class TestFieldReader:
    """Every field is read by its shape: a list of the wrong extent, or no
    list, at any level is one message named by the list's path."""

    @pytest.mark.parametrize("form", ["short", "non-list"])
    @pytest.mark.parametrize("level", list(_EXTENTS))
    def test_a_list_of_the_wrong_extent(self, manifest_path, tmp_path, capsys, level, form):
        path, name, k = _EXTENTS[level]
        data = _load(manifest_path)
        rows = functools.reduce(operator.getitem, path, data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(data, path, rows[:-1] if form == "short" else "x1")))
        assert _input_errors([[str(bad)]], tmp_path, capsys) == [
            f"error: {name}: expected {k} entries\n"
        ]

    @pytest.mark.parametrize("potential", ["V", "v"])
    def test_a_null_potential_is_an_absent_one(self, manifest_path, tmp_path, potential):
        # the report equals that of the manifest without the null key, but
        # for the digest, which covers the key
        sol = _load(manifest_path)["soliton"]
        if potential == "v":
            del sol["V"]
            sol["v"] = "x3+x4"
        reports = []
        for block in (sol, {**sol, ("v" if potential == "V" else "V"): None}):
            path, out = tmp_path / "model.json", tmp_path / "report.json"
            path.write_text(json.dumps({**_load(manifest_path), "soliton": block}))
            argv = ["check", str(path), "--points", "3", "--reproducible", "--out", str(out)]
            assert main(argv) == 0
            reports.append({**_load(out), "manifest_digest": None})
        assert reports[0] == reports[1]

    def test_a_null_potential_alone_is_no_potential(self, manifest_path, tmp_path, capsys):
        data = _load(manifest_path)
        data["soliton"]["V"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert _input_errors([[str(bad)]], tmp_path, capsys) == [
            "error: soliton: provide exactly one of V or v\n"
        ]


class TestUnwritableOutput:
    """An --out that cannot be written is bad input (exit 2), not a failed
    check (exit 1), and leaves no file."""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_check(self, manifest_path, tmp_path, capsys, monkeypatch, where):
        out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
        before = sorted(tmp_path.rglob("*"))

        def no_checks(*args):
            raise AssertionError("the checks ran before --out was tested")

        # refused before the first chunk, not after every record is computed
        monkeypatch.setattr(cli, "run_check_ids", no_checks)
        assert main(["check", manifest_path, "--points", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["example2", "1", "2", "1.0", "1.0"],
            ["twisted", "--factors", "1.0", "--s", "1", "--sigma", "exp(x3)"],
        ],
        ids=["example2", "twisted"],
    )
    def test_emitters(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "m.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _run(argv, unbuffered="", **kwargs):
        """``wfk argv`` in a subprocess under a 64 KiB file-size limit; stdout
        is buffered, as in a shell, unless ``unbuffered``."""
        code = (
            "import resource, runpy, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (65536, resource.RLIM_INFINITY))\n"
            "sys.argv = ['wfk', *sys.argv[1:]]\n"
            "runpy.run_module('wfk.cli', run_name='__main__')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        env["PYTHONUNBUFFERED"] = unbuffered
        return subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, stderr=subprocess.PIPE,
            text=True, timeout=300, **kwargs,
        )

    def test_a_failed_write_leaves_no_partial_file(self, manifest_path, tmp_path):
        """A file-size limit stops the report part way: one error line, exit
        2, and the partial report is removed."""
        out = tmp_path / "r.json"
        argv = ["check", manifest_path, "--points", "20", "--reproducible", "--out", str(out)]
        run = self._run(argv, stdout=subprocess.DEVNULL)
        assert run.returncode == 2
        assert run.stderr == f"error: cannot write {out}: File too large\n"
        assert list(tmp_path.iterdir()) == [pathlib.Path(manifest_path)]

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("target", ["file", "full", "pipe"])
    def test_stdout_that_cannot_take_the_report(
        self, manifest_path, tmp_path, target, unbuffered
    ):
        """Stdout that takes part of the report and then fails (a file at its
        size limit), or none of it (``/dev/full``, a pipe whose reader has
        closed): exit 2 and one error line, and what stdout still buffers
        does not fail again at exit."""
        if target == "file":
            fd, reason = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT), "File too large"
        elif target == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            fd, reason = os.open("/dev/full", os.O_WRONLY), "No space left on device"
        else:
            reader, fd = os.pipe()
            os.close(reader)
            reason = "Broken pipe"
        try:
            run = self._run(
                ["check", manifest_path, "--points", "20", "--reproducible"], unbuffered, stdout=fd
            )
        finally:
            os.close(fd)
        assert run.returncode == 2
        assert run.stderr == f"error: cannot write <stdout>: {reason}\n"

    def test_a_device_is_never_removed(self, manifest_path, capsys, monkeypatch):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        assert main(["check", manifest_path, "--points", "1", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write /dev/full: No space left on device\n"
        )
        assert removed == []

    @pytest.mark.parametrize(
        "argv",
        [["check", None, "--points", "1"], ["example2", "1", "2", "1.0", "1.0"]],
        ids=["check", "example2"],
    )
    def test_stdout_write_errors(self, manifest_path, capsys, monkeypatch, argv):
        """A full disk under stdout is exit 2 with one error line, not a
        traceback."""

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", Full())
        argv = [manifest_path if arg is None else arg for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: cannot write <stdout>: No space left on device\n"
        )


class TestListChecks:
    def test_catalogue_is_complete(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.strip().splitlines()}
        assert listed == set(CATALOGUE)
        assert len(listed) == 41

    def test_listing_matches_its_golden(self, capsys):
        # every id's tolerance, audit flag and requirements, pinned: editing
        # a tolerance means editing this golden too
        assert main(["list-checks"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "list_checks.txt").read_text()


def _mutated(data, path, value):
    """A copy of the manifest with the key path set to value (deleted if None)."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def _both_routes(manifest_path, tmp_path, key, value, flags):
    """The two ways to give one setting: the manifest with ``key`` set to
    ``value``, and the unchanged manifest with ``flags``."""
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(_mutated(_load(manifest_path), (key,), value)))
    return [[str(edited)], [manifest_path, *flags]]


def _input_errors(routes, tmp_path, capsys) -> list[str]:
    """The stderr of ``wfk check`` on each route, each an input error: exit
    2, one ``error:`` line and no report."""
    errors = []
    for argv in routes:
        report = tmp_path / "report.json"
        assert main(["check", *argv, "--out", str(report)]) == 2
        errors.append(capsys.readouterr().err)
        assert errors[-1].startswith("error: ") and errors[-1].count("\n") == 1
        assert not report.exists()
    return errors


_HUGE_INT = 10**400


class TestInputBounds:
    """Bad numbers and oversized requests are input errors: exit 2, no traceback."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("c",), "abc"),
            (("c",), float("nan")),
            (("beta",), float("inf")),
            (("soliton", "lambda"), float("nan")),
            (("soliton", "mu"), None),
            (("sample",), {"count": 2, "seed": 1, "box": [0, float("nan")]}),
            (("sample",), {"count": 2, "seed": 1, "box": [-1e308, 1e308]}),
            (("sample",), {"count": 2, "seed": -1, "box": [0, 1]}),
            (("sample",), {"count": float("inf"), "seed": 1, "box": [0, 1]}),
            (("n",), float("inf")),
            (("metric", 0, 0), "(" * 2000 + "1" + ")" * 2000),
            (("metric", 0, 0), "+".join(["1"] * 3000)),
            # integers beyond the float range (more than 308 digits)
            (("metric", 0, 0), _HUGE_INT),
            (("beta",), _HUGE_INT),
            (("c",), -_HUGE_INT),
            (("soliton", "lambda"), _HUGE_INT),
            (("tolerances",), {"axiom.5": _HUGE_INT}),
            (("sample",), {"count": 2, "seed": 1, "box": [0, _HUGE_INT]}),
        ],
        ids=[
            "c-abc", "c-nan", "beta-inf", "lambda-nan", "mu-missing",
            "box-nan", "box-width", "seed-negative", "count-inf", "n-inf",
            "deep-parens", "long-sum", "metric-400-digits", "beta-400-digits",
            "c-400-digits", "lambda-400-digits", "tolerance-400-digits",
            "box-400-digits",
        ],
    )
    def test_bad_number_exits_2(self, manifest_path, tmp_path, capsys, path, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), path, value)))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("beta", [1e160, 1.2e77, -1.2e77])
    def test_constant_beta_beyond_the_bound(self, tmp_path, capsys, beta):
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("beta",), beta)))
        assert main(["check", str(path), "--points", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: beta:" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [1e308, -1e308, 1e151, 1e-320])
    def test_metric_value_beyond_the_bound(self, tmp_path, capsys, entry):
        # 1e308 overflowed in g Q, f g f and 2 beta g; 1e-320 in g^-1
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("metric", 0, 0), entry)))
        assert main(["check", str(path), "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "at point [" in err and "Traceback" not in err

    def test_a_value_past_its_bound_never_reads_as_the_bound(self, tmp_path, capsys):
        # g^-1 is 1.0000000000000003e150 here, which :g printed as 1e+150
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("metric", 0, 0), 1e-150)))
        assert main(["check", str(path), "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert "inverse metric value 1.0000000000000003e+150 exceeds 1e+150 at point" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_metric_value_at_the_bound_runs(self, tmp_path):
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("metric", 0, 0), 1e150)))
        assert main(["check", str(path), "--points", "1", "--out", str(path) + ".r"]) in (0, 1)

    def test_constant_beta_at_the_bound_runs(self, tmp_path):
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("beta",), -cli._MAX_BETA)))
        assert main(["check", str(path), "--points", "1", "--out", str(path) + ".r"]) in (0, 1)

    @pytest.mark.parametrize("beta", ["1.0", "1", "2*0.5"])
    def test_constant_beta_written_as_an_expression(self, tmp_path, beta):
        # a beta that folds to a constant is that constant: every id runs
        path = tmp_path / "e2.json"
        assert main(["example2", "2", "3", "1.0", "1.0", "--out", str(path)]) == 0
        reports = []
        for value in (1.0, beta):
            path.write_text(json.dumps(_mutated(_load(path), ("beta",), value)))
            out = str(tmp_path / "report.json")
            assert main(["check", str(path), "--points", "2", "--out", out]) == 0
            reports.append(_load(out))
        records = [
            [(rec["id"], rec["point"], rec["pass"]) for rec in report["checks"]]
            for report in reports
        ]
        assert records[0] == records[1]
        assert len({rec["id"] for rec in reports[1]["checks"]}) == 37

    @pytest.mark.parametrize("beta", ["1+0*x1", "x1-x1", "1/(x1-x1)", "exp(1000)", "1e300*1e300"])
    def test_beta_expression_without_a_finite_constant_value(self, tmp_path, capsys, beta):
        # a coordinate, or a constant that is not finite, is no Kenmotsu coefficient
        path = tmp_path / "e2.json"
        assert main(["example2", "2", "3", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("beta",), beta)))
        out = tmp_path / "report.json"
        assert main(["check", str(path), "--points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beta:") and "Traceback" not in err
        assert not out.exists()

    def test_constant_beta_expression_beyond_the_bound(self, tmp_path, capsys):
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("beta",), "2e76")))
        assert main(["check", str(path), "--points", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beta: must be at most 1e+76") and "Traceback" not in err

    def test_structure_field_whose_hessian_overflows(self, tmp_path, capsys):
        # a structure reads f to first order, but its tape still checks the Hessian
        path = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(path)]) == 0
        path.write_text(json.dumps(_mutated(_load(path), ("f", 0, 1), "2+sqrt(x1+1e-300)")))
        assert main(["check", str(path), "--points", "1"]) == 2
        err = capsys.readouterr().err
        want = "error: f[1][2]: sqrt second derivative is not finite (at characters 2..17)\n"
        assert err == want

    # (key path, how the error names the field); xi[1][3] pairs with eta[1][3],
    # so the other two edits stay off the dual pairing
    _FIELDS = [
        (("f", 0, 1), "f value"),
        (("Q", 0, 0), "Q value"),
        (("xi", 0, 0), "xi value"),
        (("eta", 0, 0), "eta value"),
        (("soliton", "V", 2), "soliton.V value"),
        (("soliton", "lambda"), "soliton.lambda:"),
        (("soliton", "mu"), "soliton.mu:"),
    ]
    _FIELD_IDS = [name.split()[0].rstrip(":") for _, name in _FIELDS]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("path, name", _FIELDS, ids=_FIELD_IDS)
    @pytest.mark.parametrize("entry", [1e308, -1e308, 1e101])
    def test_structure_value_beyond_the_bound(self, tmp_path, capsys, path, name, entry):
        # 1e308 overflowed in f^3, eta eta, lambda + mu and the like and exited 1
        manifest = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(manifest)]) == 0
        manifest.write_text(json.dumps(_mutated(_load(manifest), path, entry)))
        assert main(["check", str(manifest), "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert f"error: {name}" in err and "Traceback" not in err
        assert "at point [" in err or path[-1] in ("lambda", "mu")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("path, name", _FIELDS, ids=_FIELD_IDS)
    @pytest.mark.parametrize("entry", [weakf.MAX_FIELD, -weakf.MAX_FIELD])
    def test_structure_value_at_the_bound_runs(self, tmp_path, path, name, entry):
        manifest = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(manifest)]) == 0
        manifest.write_text(json.dumps(_mutated(_load(manifest), path, entry)))
        out = str(manifest) + ".r"
        assert main(["check", str(manifest), "--points", "2", "--out", out]) in (0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "edits, group",
        [
            ([(("metric", 0, 0), 1e150), (("f", 0, 1), 1e100)], "axioms"),
            ([(("beta",), 1e76), (("eta", 0, 0), 1e10)], "lemma2"),
        ],
        ids=["metric-and-f", "beta-and-eta"],
    )
    def test_inputs_within_their_bounds_that_overflow_together(
        self, tmp_path, capsys, edits, group
    ):
        # each value is within its own bound; together they overflow f g f
        # (axiom.6) and lemma2.34's beta^4 term
        manifest = tmp_path / "e2.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(manifest)]) == 0
        data = _load(manifest)
        for path, value in edits:
            data = _mutated(data, path, value)
        manifest.write_text(json.dumps(data))
        assert main(["check", str(manifest), "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert "error: the inputs are too large together" in err and "Traceback" not in err
        # the error names the check group and the first point of its chunk
        first = cli.sample_points(3, {**cli._DEFAULT_SAMPLE, "count": 2})[0]
        assert f"(check group '{group}', chunk from point {first.tolist()})" in err

    def test_run_check_ids_reports_an_overflow_as_bad_input(self):
        # with no floating-point state set by its caller
        data = build_example2(1, 1, 1.0, 1.0)
        data["metric"][0][0], data["f"][0][1] = 1e150, 1e100
        ctx = checks.CheckContext(cli.manifold_from_manifest(data)[0])
        points = seeded_points(3, count=2, seed=5)
        where = re.escape(f"(check group 'axioms', chunk from point {points[0].tolist()})")
        with pytest.raises(InputError, match=f"^the inputs are too large together: .* {where}$"):
            checks.run_check_ids(ctx, ["axiom.6"], points)

    def test_an_overflow_building_a_structure_names_its_chunk(self, monkeypatch):
        m = cli.manifold_from_manifest(build_example2(1, 1, 1.0, 1.0))[0]
        monkeypatch.setattr(weakf.WeakFManifold, "at", lambda self, p: np.float64(1e308) * 10)
        points = seeded_points(3, count=2, seed=5)
        where = f"(building the structure, chunk from point {points[0].tolist()})"
        with pytest.raises(InputError, match=re.escape(where)):
            checks.run_check_ids(checks.CheckContext(m), ["axiom.6"], points)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", ["x1^400", "x1", "0*x1"])
    def test_sigma_not_positive_at_a_sample_point(self, tmp_path, capsys, sigma):
        # x1^400 underflows to 0 near x1 = 0, and 0/0 in d(log sigma) warned
        manifest = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "1.0", "--s", "1", "--sigma", "exp(x3)*(2+x1^2)"]
        assert main([*argv, "--out", str(manifest)]) == 0
        manifest.write_text(json.dumps(_mutated(_load(manifest), ("sigma",), sigma)))
        assert main(["check", str(manifest), "--points", "5", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "error: sigma is not positive at point [" in err and "Traceback" not in err

    def test_asymmetric_star_ricci(self, tmp_path, capsys):
        # a metric entry coupling x1 and x3 makes Ric* asymmetric, so the
        # soliton equation (32) is undefined: the gate rejects the model
        manifest = tmp_path / "asym.json"
        assert main(["example2", "1", "1", "1.0", "1.0", "--out", str(manifest)]) == 0
        manifest.write_text(json.dumps(_mutated(_load(manifest), ("metric", 2, 0), 0.5)))
        assert main(["check", str(manifest), "--reproducible"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: the *-Ricci tensor is not symmetric at a sample point (antisymmetric "
            "part 2.23e+00); the soliton equation is undefined\n",
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x²", "error: f[1][2]: unexpected character '²' (at characters 1..2)"),
            ("x" + "1" * 5000, "error: f[1][2]: coordinate index out of range: x111"),
            ("x1^" + "9" * 300, "error: f[1][2]: pow second derivative is not finite"),
        ],
        ids=["non-ascii-digit", "long-index", "huge-power"],
    )
    def test_expression_text_past_the_grammar(
        self, manifest_path, tmp_path, capsys, text, message
    ):
        data = _mutated(_load(manifest_path), ("f", 0, 1), text)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        [err] = _input_errors([[str(bad)]], tmp_path, capsys)
        assert err.startswith(message)
        # the twisted emitter parses its sigma the same way, and writes nothing
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "1", "--s", "1", "--sigma", text, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize(
        "path, text, message",
        [
            (("f", 0, 1), "exp(x1+800)", "error: f[1][2]: exp overflows (at characters 0..11)\n"),
            (("metric", 0, 0), "1+exp(x1+800)", "error: metric[1][1]: exp overflows (at "),
            (("soliton", "V", 0), "exp(x1+800)", "error: soliton.V[1]: exp overflows (at "),
        ],
        ids=["f", "metric", "soliton.V"],
    )
    def test_a_jet_evaluation_error_names_its_entry(
        self, manifest_path, tmp_path, capsys, path, text, message
    ):
        # the text parses, so the error comes from a tape run, at the origin or a sample point
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), path, text)))
        [err] = _input_errors([[str(bad)]], tmp_path, capsys)
        assert err.startswith(message)

    def test_a_subtree_shared_by_two_entries_names_the_one_that_ran(self, tmp_path, capsys):
        # the metric's and f's text hold the same subtree; a structure runs f's
        # tape before the metric's, so f's instruction is the one that fails
        path = tmp_path / "e2.json"
        assert main(["example2", "2", "3", "1.0", "1.0", "--out", str(path)]) == 0
        data = _mutated(_load(path), ("metric", 0, 0), "1+exp(x1+800)")
        path.write_text(json.dumps(_mutated(data, ("f", 0, 1), "1+exp(x1+800)")))
        [err] = _input_errors([[str(path)]], tmp_path, capsys)
        assert err == "error: f[1][2]: exp overflows (at characters 2..13)\n"

    def test_a_sigma_jet_evaluation_error_names_sigma(self, tmp_path, capsys):
        out = tmp_path / "tw.json"
        sigma = "x1^" + "9" * 300
        argv = ["twisted", "--factors", "1", "--s", "1", "--sigma", sigma, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: sigma: pow second derivative is not finite (at characters 0..303)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["example2", "1", "1", "1e200", "0"], "error: beta:"),
            (["example2", "1", "1", "10", "1e307"], "error: soliton.lambda:"),
        ],
        ids=["beta", "lambda"],
    )
    def test_emitted_soliton_constants_stay_finite(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_emitted_twisted_beta_within_the_bound(self, tmp_path, capsys):
        # the beta inferred from sigma was written unchecked, and the check
        # then rejected the manifest
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "1", "--s", "1", "--sigma", "exp(1e100*x3)"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: beta:" in err and "Traceback" not in err
        assert not out.exists()

    def test_integer_too_long_for_json(self, manifest_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        text = json.dumps(_load(manifest_path)).replace('"n": 1', '"n": 1' + "0" * 5000)
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dimension_cap_is_checked_before_parsing(
        self, manifest_path, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("structure parsed despite the dimension cap")

        monkeypatch.setattr(cli, "_entries", never)
        for n, s in ((10**9, 1), (1, 10**12), (cli._MAX_DIM // 2, 2)):
            bad = tmp_path / "bad.json"
            data = _mutated(_mutated(_load(manifest_path), ("n",), n), ("s",), s)
            bad.write_text(json.dumps(_mutated(data, ("dim",), None)))
            assert main(["check", str(bad)]) == 2
            assert "exceeds the limit" in capsys.readouterr().err
        assert main(["example2", str(10**9), "1", "1.0", "1.0"]) == 2
        assert main(["twisted", "--factors", "1", "--s", str(10**9), "--sigma", "1"]) == 2

    @pytest.mark.parametrize("where", ["manifest", "flag", "dim15"])
    def test_point_cap_is_checked_before_sampling(
        self, manifest_path, tmp_path, capsys, monkeypatch, where
    ):
        def never(*args, **kwargs):
            raise AssertionError("points sampled despite the point cap")

        path, args = manifest_path, []
        if where == "manifest":
            path = str(tmp_path / "many.json")
            sample = {"count": 10**12, "seed": 1, "box": [0, 1]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_mutated(_load(manifest_path), ("sample",), sample), fh)
        elif where == "flag":
            args = ["--points", str(cli._MAX_POINTS + 1)]
        else:  # within the plain cap, over the geometry budget at dim 15
            path = str(tmp_path / "d15.json")
            assert main(["example2", "6", "3", "1.0", "1.0", "--out", path]) == 0
            args = ["--points", "200"]
        monkeypatch.setattr(np.random, "default_rng", never)
        assert main(["check", path, *args]) == 2
        err = capsys.readouterr().err
        assert "count" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["example2", "1", "2", "nan", "1.0"],
            ["example2", "1", "2", "1.0", "inf"],
            ["twisted", "--factors", "1,nan", "--s", "1", "--sigma", "1"],
        ],
    )
    def test_emitters_reject_non_finite_parameters(self, argv, capsys):
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err


class TestIntegerFields:
    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("n",), 1.9, "n"),
            (("n",), True, "n"),
            (("s",), 2.5, "s"),
            (("s",), False, "s"),
            (("sample",), {"count": 2.7, "seed": 1, "box": [0, 1]}, "sample.count"),
            (("sample",), {"count": True, "seed": 1, "box": [0, 1]}, "sample.count"),
            (("sample",), {"count": 2, "seed": 3.5, "box": [0, 1]}, "sample.seed"),
            (("sample",), {"count": 2, "seed": True, "box": [0, 1]}, "sample.seed"),
            (("dim",), 4.5, "dim"),
            (("dim",), True, "dim"),
        ],
        ids=[
            "n-fraction", "n-bool", "s-fraction", "s-bool", "count-fraction",
            "count-bool", "seed-fraction", "seed-bool", "dim-fraction", "dim-bool",
        ],
    )
    def test_non_integers_exit_2(
        self, manifest_path, tmp_path, capsys, path, value, key
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), path, value)))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {key}: expected an integer" in err and "Traceback" not in err

    def test_ascii_number_strings_read_as_numbers(self, manifest_path, tmp_path):
        data = _mutated(_load(manifest_path), ("n",), "1")
        data["dim"] = "4"
        data["sample"] = {"count": "2", "seed": "3", "box": ["-0.5", "5e-1"]}
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--only", "axiom.5"]) == 0

    def test_a_dim_other_than_2n_plus_s_exits_2(self, manifest_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), ("dim",), 5)))
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == "error: dim 5 does not equal 2n+s = 4\n"

    def test_integral_floats_are_integers(self, manifest_path, tmp_path):
        data = _mutated(_load(manifest_path), ("n",), 1.0)
        data["sample"] = {"count": 2.0, "seed": 3.0, "box": [0, 1]}
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--only", "axiom.5"]) == 0


class TestAsciiNumbers:
    """A number written as text has ASCII digits only, and no "_" or spaces,
    as in an expression; int() and float() would take all three."""

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("n",), "\uff12", "n"),  # fullwidth 2
            (("n",), " 1", "n"),
            (("c",), "\u0661", "c"),  # Arabic-Indic 1
            (("sample",), {"count": "\u0663"}, "sample.count"),
            (("soliton", "lambda"), "-1_0", "soliton.lambda"),
        ],
        ids=[
            "n-fullwidth", "n-space", "c-arabic-indic", "count-arabic-indic",
            "lambda-underscore",
        ],
    )
    def test_manifest_number_text(self, manifest_path, tmp_path, capsys, path, value, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), path, value)))
        [err] = _input_errors([[str(bad)]], tmp_path, capsys)
        assert err.startswith(f"error: {key}: expected ")

    def test_tolerance_flag(self, manifest_path, tmp_path, capsys):
        routes = _both_routes(
            manifest_path, tmp_path, "tolerances", {"id.13": "1_0"}, ["--tol", "id.13=1_0"]
        )
        errors = _input_errors(routes, tmp_path, capsys)
        want = "error: tolerances[id.13]: expected a finite number, got '1_0'\n"
        assert errors[0] == errors[1] == want

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--points", "\u0663"], {"count": "\u0663"}),
            (["--seed", "1_0"], {"seed": "1_0"}),
            (["--box", "0", " 1"], {"box": ["0", " 1"]}),
            (
                ["example2", "\u0662", "\u0663", "1.0", "1.0"],
                "error: n: expected an integer, got '\u0662'\n",
            ),
            (
                ["example2", "1", "2", "1_0", "1.0"],
                "error: beta: expected a finite number, got '1_0'\n",
            ),
            (
                ["twisted", "--factors", "1", "--s", "\u0661", "--sigma", "exp(x3)"],
                "error: --s: expected an integer, got '\u0661'\n",
            ),
        ],
        ids=["points", "seed", "box", "example2-n-s", "example2-beta", "twisted-s"],
    )
    def test_flag_number_text(self, manifest_path, tmp_path, capsys, argv, want):
        # a flag's number is read by its manifest key's reader, so a sample
        # flag's error is that of the same text in the manifest's sample
        # policy, and an emitter's names its argument: one line, no usage banner
        if isinstance(want, dict):
            routes = _both_routes(manifest_path, tmp_path, "sample", want, argv)
            errors = _input_errors(routes, tmp_path, capsys)
            [key] = want
            assert errors[0] == errors[1] and errors[0].startswith(f"error: sample.{key}: ")
            return
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()

    def test_factor_text(self, tmp_path, capsys):
        out = tmp_path / "tw.json"
        argv = ["twisted", "--factors", "1_0,2", "--s", "1", "--sigma", "exp(x5)"]
        assert main([*argv, "--out", str(out)]) == 2
        want = "error: --factors: expected a finite number, got '1_0'\n"
        assert capsys.readouterr().err == want
        assert not out.exists()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _runs(draw):
    """Points and, for each of a few ids, (id, residual a point, tolerance, audit)."""
    points = draw(st.lists(st.lists(_FLOATS, max_size=4), max_size=4))
    column = st.lists(_FLOATS, min_size=len(points), max_size=len(points))
    checks = [
        (cid, np.array(draw(column), dtype=float), draw(_FLOATS), draw(st.booleans()))
        for cid in sorted(draw(st.sets(st.text(max_size=12), max_size=4)))
    ]
    return points, checks


def _dict_layout(head, points, checks, tail):
    """The report as the dict that ``json.dumps(report, indent=2)`` writes."""

    def fmt(x):
        return float(f"{x:.15g}")

    records = []
    summary = {"pass": 0, "fail": 0, "flagged": 0}
    for cid, column, tol, audit in checks:
        for p, r in zip(points, column.tolist()):
            passed = r <= tol
            records.append(
                {
                    "id": cid, "point": [fmt(x) for x in p], "residual": fmt(r),
                    "tolerance": fmt(tol), "pass": passed, "audit": audit,
                }
            )
            if audit:
                summary["flagged"] += not passed
            else:
                summary["pass" if passed else "fail"] += 1
    return {**head, "checks": records, "summary": summary, **tail}


def _report(head, points, checks, tail):
    """The writer's pieces, as a list, and its summary."""
    pieces, summary = cli._report_json(head, points, checks, tail)
    return list(pieces), summary


class TestReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        st.text(max_size=10),
        _runs(),
        st.one_of(st.none(), st.text(max_size=30)),
    )
    def test_matches_json_dumps(self, tool, run, generated_at):
        points, checks = run
        head = {"tool": tool, "manifest_digest": "ab" * 32}
        tail = {} if generated_at is None else {"generated_at": generated_at}
        pieces, summary = _report(head, points, checks, tail)
        report = _dict_layout(head, points, checks, tail)
        assert "".join(pieces) == json.dumps(report, indent=2)
        assert summary == report["summary"]

    def test_special_values(self):
        head = {"tool": "wfk", "manifest_digest": "0"}
        points = [[-0.0, 0.0, float("nan"), 1e-300], []]
        column = np.array([float("inf"), -0.0])
        runs = [
            (points, [("ïd.Ω\n\"x\"", column, -float("inf"), True)]),
            (points, [("a", np.array([float("nan"), 1.0]), 1.0, False)]),
            (points, []),  # no ids
            ([], [("a", np.empty(0), 1e-8, False)]),  # no points
        ]
        # the writer formats each distinct residual once: repeats, both zeros,
        # two NaNs and both infinities in one column and across columns
        column = np.array([0.0, -0.0, 0.5, float("nan"), 0.5, float("nan"), -0.0, 0.0])
        tail = np.array([float("inf"), -float("inf"), 0.5, -0.0, 1e-300, -1e-300, 0.0, 0.5])
        points = [[float(k)] for k in range(len(column))]
        runs.append((points, [("a", column, 0.5, False), ("b", tail, 0.0, True)]))
        for points, checks in runs:
            pieces, summary = _report(head, points, checks, {})
            report = _dict_layout(head, points, checks, {})
            assert "".join(pieces) == json.dumps(report, indent=2)
            assert summary == report["summary"]

    @pytest.mark.parametrize(
        "points, checks",
        [
            (np.empty((0, 3)), [("a", np.empty(0), 1e-8, False), ("b", np.empty(0), 1.0, True)]),
            (np.zeros((2, 3)), []),
        ],
        ids=["no-points", "no-ids"],
    )
    def test_a_run_without_records_writes_an_empty_list(self, points, checks):
        pieces, summary = _report({"tool": "wfk"}, points, checks, {})
        text = "".join(pieces)
        assert '\n  "checks": [],\n' in text
        assert json.loads(text) == {"tool": "wfk", "checks": [], "summary": summary}
        assert summary == {"pass": 0, "fail": 0, "flagged": 0}

    def test_a_piece_holds_at_most_one_ids_records(self):
        """The report is written as it is formatted: a head piece, one piece
        of records an id, and a tail piece; no piece holds the whole text."""
        points = np.random.default_rng(0).uniform(-1, 1, (30, 8))
        column = np.linspace(0.0, 1e-6, 30)
        checks = [(cid, column, 5e-7, cid == "c") for cid in ("a", "b", "c")]
        pieces, _ = _report({"tool": "wfk"}, points, checks, {})
        report = _dict_layout({"tool": "wfk"}, points, checks, {})
        assert len(pieces) == len(checks) + 2
        for piece, (cid, *_) in zip(pieces[1:-1], checks):
            records = json.loads("[" + piece.lstrip(",") + "]")
            assert records == [rec for rec in report["checks"] if rec["id"] == cid]
        assert max(len(pieces[0]), len(pieces[-1])) < min(map(len, pieces[1:-1]))


def _verdicts(report):
    """The report's records counted by verdict."""
    counts = {"pass": 0, "fail": 0, "flagged": 0}
    for rec in report["checks"]:
        if rec["audit"]:
            counts["flagged"] += not rec["pass"]
        else:
            counts["pass" if rec["pass"] else "fail"] += 1
    return counts


class TestSummary:
    @pytest.mark.parametrize(
        "emit, tols, flagged",
        [
            (
                ["twisted", "--factors", "1.0,2.0", "--s", "2",
                 "--sigma", "exp(x5+x6)*(2+x1^2+x2*x3)"],
                {"kenmotsu.12": 1e3, "axiom.5": 1e-30},  # one looser, one tighter
                0,
            ),
            (["example2", "1", "2", "1.0", "1.0"], {}, 3),  # lemma2.42 at 3 points
            (["example2", "1", "2", "1.0", "1.0"], {"lemma2.42": 10.0}, 0),
        ],
        ids=["tw-tol", "e2", "e2-tol"],
    )
    def test_summary_counts_the_records(self, tmp_path, emit, tols, flagged):
        path, out = str(tmp_path / "m.json"), str(tmp_path / "r.json")
        assert main([*emit, "--out", path]) == 0
        tol_args = [arg for cid, tol in tols.items() for arg in ("--tol", f"{cid}={tol}")]
        code = main(["check", path, "--points", "3", *tol_args, "--out", out])
        report = _load(out)
        assert report["summary"] == _verdicts(report)
        assert code == (1 if report["summary"]["fail"] else 0)
        assert report["summary"]["flagged"] == flagged
        for rec in report["checks"]:
            assert rec["tolerance"] == tols.get(rec["id"], CATALOGUE[rec["id"]].tolerance)


def _key_paths(node, path=()):
    """Every key path of a JSON value, its root included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _key_paths(child, path + (key,))


_FUZZ_BLOCKS = {
    "sample": {"count": 1, "seed": 0, "box": [-0.5, 0.5]},
    "tolerances": {"axiom.5": 1e-8},
}


@pytest.fixture(scope="module")
def fuzz_manifests(tmp_path_factory):
    """The dim-3 example2 (with its soliton block) and twisted manifests, with
    a sample policy and a tolerance override."""
    work = tmp_path_factory.mktemp("fuzz")
    emits = {
        "e2": ["example2", "1", "1", "1.0", "1.0"],
        "tw": ["twisted", "--factors", "1.0", "--s", "1", "--sigma", "exp(x3)*(2+x1^2)"],
    }
    manifests = {}
    for name, argv in emits.items():
        assert main([*argv, "--out", str(work / f"{name}.json")]) == 0
        manifests[name] = {**_load(work / f"{name}.json"), **_FUZZ_BLOCKS}
    return work, manifests


# every key path of those manifests, and of the keys they may carry besides
_FUZZ_PATHS = sorted(
    _key_paths(
        {
            "version": 0, "n": 0, "s": 0, "beta": 0, "c": 0, "dim": 0, "sigma": 0,
            "checks": 0, "metric": [[0], [0, 0], [0, 0, 0]], "f": [[0] * 3] * 3,
            "Q": [[0] * 3] * 3, "xi": [[0] * 3], "eta": [[0] * 3],
            "soliton": {"lambda": 0, "mu": 0, "V": [0] * 3, "v": 0},
            **_FUZZ_BLOCKS,
        }
    ),
    key=repr,
)
_FUZZ_VALUES = st.one_of(
    st.sampled_from([1e308, -1e308, 1e-320, -0.0, _HUGE_INT, -_HUGE_INT]),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 2), max_size=2),
    st.sampled_from(
        ["1/(x1-x1)", "log(x1)", "x1^400", "exp(exp(exp(x1)))", "((x1+1)", "x1)"]
    ),
)


class TestFuzz:
    """Any manifest an edit or three away from a valid one gets exit 0, 1 or 2."""

    # a huge value of the metric, f, Q, xi, eta, soliton.V, soliton.lambda or
    # soliton.mu, and a sigma that is not positive at a sample point, are input
    # errors found before numpy can warn (see TestInputBounds); a jet that
    # overflows is an ExprDomainError without a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["e2", "tw"]),
        st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), _FUZZ_VALUES), min_size=1, max_size=3),
    )
    @example("e2", [(("beta",), 1e160)])
    @example("e2", [(("metric", 0, 0), _HUGE_INT)])
    @example("e2", [(("metric", 0, 0), 1e308)])
    @example("e2", [(("f", 0, 1), 1e308)])
    @example("e2", [(("soliton", "V", 2), -1e308), (("soliton", "mu"), 1e308)])
    @example("tw", [(("sigma",), "x1^400")])
    @example("e2", [(("f", 0, 1), "x²")])
    @example("e2", [(("metric", 0, 0), "x" + "1" * 5000)])
    @example("e2", [(("metric", 0, 0), "x1^" + "9" * 300)])
    @example("e2", [(("sample", "box", 0), -1e308)])
    def test_check_never_raises(self, fuzz_manifests, name, edits):
        work, manifests = fuzz_manifests
        data = json.loads(json.dumps(manifests[name]))
        for path, value in edits:
            if not path:
                data = value
                continue
            node = data
            try:
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value  # a new key of an object, or an item of a list
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit removed the path
        manifest, out = work / "manifest.json", work / "report.json"
        manifest.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(
                ["check", str(manifest), "--points", "1", "--reproducible", "--out", str(out)]
            )
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestProgramFaults:
    """Exit 2 means bad input, an ``InputError``, and nothing else: any other
    exception is a fault of the program and leaves ``main`` unchanged, and the
    ``wfk`` command (``cli.entry``) prints its traceback and exits 70."""

    @pytest.mark.parametrize(
        "fault",
        [lambda: np.ones(2) + np.ones(3), lambda: np.linalg.inv(np.zeros((4, 4)))],
        ids=["broadcast", "singular-matrix"],
    )
    def test_a_fault_in_a_check_group_is_not_bad_input(
        self, manifest_path, monkeypatch, capsys, fault
    ):
        monkeypatch.setitem(checks._RUNNERS, "kenmotsu", lambda st: fault())
        with pytest.raises(ValueError) as err:
            main(["check", manifest_path, "--only", "kenmotsu.12", "--reproducible"])
        assert not isinstance(err.value, InputError)
        assert capsys.readouterr() == ("", "")

    def test_the_command_exits_70_on_a_fault(self, manifest_path, tmp_path):
        # exit 1, Python's status for an uncaught exception, would read as a failed check
        code = (
            "import runpy, sys\n"
            "import numpy as np\n"
            "from wfk import checks\n"
            "checks._RUNNERS['kenmotsu'] = lambda st: np.ones(2) + np.ones(3)\n"
            "sys.argv = ['wfk', *sys.argv[1:]]\n"
            "runpy.run_module('wfk.cli', run_name='__main__')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        out = tmp_path / "r.json"
        argv = ["check", manifest_path, "--only", "kenmotsu.12", "--out", str(out)]
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert run.returncode == 70
        assert run.stderr.startswith("Traceback (most recent call last):\n")
        assert run.stderr.endswith("ValueError: operands could not be broadcast together "
                                   "with shapes (2,) (3,) \n")
        assert run.stdout == "" and not out.exists()

    def test_the_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        with open(pathlib.Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"] == {"wfk": "wfk.cli:entry"}
