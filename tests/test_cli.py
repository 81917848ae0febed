import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfk import cli
from wfk.checks import CATALOGUE
from wfk.cli import main


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

    def test_unknown_tolerance_id(self, manifest_path, capsys):
        assert main(["check", manifest_path, "--tol", "nope=1e-6"]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
    def test_bad_tolerance_flag(self, manifest_path, capsys, value):
        assert main(["check", manifest_path, "--tol", f"axiom.5={value}"]) == 2
        assert "axiom.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["nan", float("nan"), float("inf"), -1, 0, "abc", True]
    )
    def test_bad_manifest_tolerance(self, manifest_path, tmp_path, capsys, value):
        data = _load(manifest_path)
        data["tolerances"] = {"axiom.5": value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        assert "axiom.5" in capsys.readouterr().err

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

    @pytest.mark.parametrize("beta", [None, "1+0*x1"], ids=["none", "expression"])
    @pytest.mark.parametrize("potential", ["V", "v"])
    def test_soliton_groups_need_a_constant_beta(
        self, manifest_path, tmp_path, capsys, beta, potential
    ):
        data = _load(manifest_path)
        data["beta"] = beta
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

    def test_unknown_only_id(self, manifest_path, capsys):
        assert main(["check", manifest_path, "--only", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

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


class TestListChecks:
    def test_catalogue_is_complete(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.strip().splitlines()}
        assert listed == set(CATALOGUE)
        assert len(listed) == 41


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
        ],
        ids=[
            "c-abc", "c-nan", "beta-inf", "lambda-nan", "mu-missing",
            "box-nan", "box-width", "seed-negative", "count-inf", "n-inf",
            "deep-parens", "long-sum",
        ],
    )
    def test_bad_number_exits_2(self, manifest_path, tmp_path, capsys, path, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(_load(manifest_path), path, value)))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

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

        monkeypatch.setattr(cli, "_parse_matrix", never)
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
        ],
        ids=[
            "n-fraction", "n-bool", "s-fraction", "s-bool", "count-fraction",
            "count-bool", "seed-fraction", "seed-bool",
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

    def test_integral_floats_are_integers(self, manifest_path, tmp_path):
        data = _mutated(_load(manifest_path), ("n",), 1.0)
        data["sample"] = {"count": 2.0, "seed": 3.0, "box": [0, 1]}
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--only", "axiom.5"]) == 0


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_RECORDS = st.tuples(
    st.text(max_size=12),
    st.lists(_FLOATS, max_size=4),
    _FLOATS,
    _FLOATS,
    st.booleans(),
    st.booleans(),
).map(lambda r: dict(zip(("id", "point", "residual", "tolerance", "pass", "audit"), r)))


class TestReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        st.text(max_size=10),
        st.lists(_RECORDS, max_size=4),
        st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
        st.one_of(st.none(), st.text(max_size=30)),
    )
    def test_matches_json_dumps(self, tool, records, counts, generated_at):
        report = {
            "tool": tool,
            "manifest_digest": "ab" * 32,
            "checks": records,
            "summary": dict(zip(("pass", "fail", "flagged"), counts)),
        }
        if generated_at is not None:
            report["generated_at"] = generated_at
        assert cli._report_json(report) == json.dumps(report, indent=2)

    def test_special_values(self):
        record = {
            "id": "ïd.Ω\n\"x\"", "point": [-0.0, 0.0, float("nan"), 1e-300],
            "residual": float("inf"), "tolerance": -float("inf"),
            "pass": False, "audit": True,
        }
        for checks in ([], [record, dict(record, point=[])]):
            report = {"tool": "wfk", "manifest_digest": "0", "checks": checks,
                      "summary": {"pass": 0, "fail": 1, "flagged": 0}}
            assert cli._report_json(report) == json.dumps(report, indent=2)
