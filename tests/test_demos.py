"""Every demo and every python block of README runs: exit 0 and nothing on
stderr, so a numpy warning fails it; a demo's numbers are formatted, not
printed as numpy reprs."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert "np.float64(" not in run.stdout


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize(
    "code", README_BLOCKS, ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)]
)
def test_readme_python_block_runs_cleanly(code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
