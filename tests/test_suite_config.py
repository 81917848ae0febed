"""The suite's own configuration: a failing test fails alone.

pyproject.toml turns every warning into an error.  When a hypothesis test
fails, hypothesis's pytest plugin imports libcst (where it is installed) to
propose an explicit example, and libcst's use of ``mypy_extensions.TypedDict``
warns.  As an error, that warning is an INTERNALERROR that ends the whole run,
so every test after the failing one goes unreported.
"""
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in run.stdout, out
