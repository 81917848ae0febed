import json

import pytest

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
