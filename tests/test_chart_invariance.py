"""The same manifold in two charts gets the same verdicts.

Every statement the checks test is tensorial, and a manifest may be written
in any chart.  So each fixture manifest is pulled back along a shear
x = Phi(y) (``pullback.py``), and ``run_check_ids`` at points y of the
pullback and at Phi(y) of the original must pass or fail every applicable
id alike.  This is a metamorphic test (Chen, Cheung & Yiu, "Metamorphic
testing: a new approach for generating next test cases", HKUST-CS98-01,
1998).
"""
import contextlib
import functools
import io
import json

import numpy as np
import pytest

pytest.importorskip("sympy")

from pullback import SHEARS, chart_points, pullback  # noqa: E402

from wfk.checks import CATALOGUE, CheckContext, applicable_ids, run_check_ids  # noqa: E402
from wfk.cli import main, manifold_from_manifest  # noqa: E402

# ids whose verdict may depend on the chart, with the reason
EXEMPT = {
    "twisted.iii": (
        "it compares index blocks of the Christoffel symbols with those of the "
        "leaf metric, so it reads the builder's chart (fiber x1..x2n, t last, "
        "block-diagonal metric); in that chart it holds for every metric of "
        "that shape, and it stays only because a benchmark check list names it"
    ),
}

FIXTURES = {
    "example2_d4": ("example2", "1", "2", "1.0", "1.0"),
    "example2_d7": ("example2", "2", "3", "1.0", "1.0"),
    "tw_d8_screen": (
        "twisted", "--factors", "1.0,2.0,3.0", "--s", "2",
        "--sigma", "exp(x7+x8)*(2+x1^2+x2*x3)",
    ),
    # f, xi and eta that vary, as in CI's `varying` manifest
    "varying": ("example2", "2", "3", "1.0", "1.0"),
    # a leaf with the round metric of the 2-sphere, stereographic chart
    "curved_leaf": (
        "twisted", "--factors", "1", "--s", "1", "--sigma", "exp(x3)*2/(1+x1^2+x2^2)",
    ),
}


@functools.lru_cache(maxsize=None)
def _manifest(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(FIXTURES[name])) == 0
    data = json.loads(buf.getvalue())
    if name == "varying":
        data["f"][0][1] = "0.1*x3"
        data["xi"][0][0] = "0.1*x1"
        data["eta"][1][1] = "0.2*x2*x6"
        del data["soliton"]
    return json.dumps(data)


def _verdicts(data: dict, points) -> dict:
    """{id: pass/fail at each point} over the applicable ids of ``data``."""
    m, soliton = manifold_from_manifest(data)[:2]
    ctx = CheckContext(m, soliton)
    table = run_check_ids(ctx, applicable_ids(ctx), points)
    return {cid: res <= CATALOGUE[cid].tolerance for cid, res in table.items()}


@pytest.mark.parametrize("shear", sorted(SHEARS))
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_verdicts_do_not_depend_on_the_chart(fixture, shear):
    data = json.loads(_manifest(fixture))
    y = np.random.default_rng(3).uniform(-0.4, 0.4, (10, data["dim"]))
    pulled = _verdicts(pullback(data, SHEARS[shear]), y)
    original = _verdicts(data, chart_points(SHEARS[shear], y))
    assert pulled.keys() == original.keys()
    flipped = {
        cid: (original[cid].tolist(), pulled[cid].tolist())
        for cid in original
        if cid not in EXEMPT and not np.array_equal(original[cid], pulled[cid])
    }
    assert not flipped, f"verdicts (original chart, pullback) that differ: {flipped}"


def test_the_exemptions_are_catalogue_ids():
    assert set(EXEMPT) <= set(CATALOGUE)
