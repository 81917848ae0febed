"""Valid models that `wfk check` fails today, pinned at the points where they fail.

Each model is a `wfk example2` manifest with its soliton block, so the paper
says that every non-audit id holds on it.  At the default box and seed 42, the
ten points `default_rng(42).uniform(-0.5, 0.5, (10, dim))` include these
rows, where ids fail because a residual is a max-abs over chart components
and the metric reaches e^{2|beta| x} (ROADMAP item 14b).  The rows are written
out as coordinates, so that a change of sampler cannot hide a failure.  Each
pin is a strict xfail: once the residuals measure in the metric's frame, the
model passes and the pin must be turned into a plain test.
"""
import json

import numpy as np
import pytest

from wfk.checks import CATALOGUE, CheckContext, applicable_ids, run_check_ids
from wfk.cli import main

from conftest import model

# (n, s, beta, c): the rows of the 10 default points at which ids fail, and those ids
PINS = {
    (1, 1, 22.93, 4.36): (
        [
            [0.27395604855596334, -0.06112156024794768, 0.35859791991138246],
            [0.1973680290593639, -0.40582265211235047, 0.4756223516367559],
            [-0.049614062104432866, -0.12920197576741876, 0.4267649888486018],
            [0.32763117199258207, 0.13166439912206485, 0.25808774008537383],
            [-0.14547403187013164, 0.47069802439490327, 0.3931211213221977],
        ],
        ("axiom.6", "dphi", "id.16", "id.18", "id.26", "id.27", "id.44", "kenmotsu.12",
         "soliton.32", "soliton.33", "thm4.28"),
    ),
    (2, 2, 8.60, 0): (
        [
            [0.32763117199258207, 0.13166439912206485, 0.25808774008537383,
             -0.14547403187013164, 0.47069802439490327, 0.3931211213221977],
        ],
        ("id.26", "id.27", "id.44"),
    ),
    (1, 2, -19.09, 0): (
        [
            [0.14386512008066454, 0.32276161327083, -0.05658580117266887, -0.2727612782152231],
            [0.27838349707376187, -0.3053612921480324, -0.03327899627296582,
             -0.4561962342127712],
            [-0.17417464186184806, -0.12954029396513111, -0.03044418872419208,
             -0.3105286409157143],
        ],
        ("id.18", "id.26", "id.27", "id.44", "soliton.32", "thm4.28"),
    ),
    (1, 2, 19.09, 0): (
        [
            [0.27395604855596334, -0.06112156024794768, 0.35859791991138246,
             0.1973680290593639],
            [-0.40582265211235047, 0.4756223516367559, 0.26113970199035297,
             0.2860643052769538],
            [0.0545847870158348, -0.4361827438958247, 0.32763117199258207,
             0.13166439912206485],
            [-0.34571050793245217, 0.18304895324245463, 0.24476215590781714,
             0.46750973243421],
        ],
        ("dphi", "id.18", "id.26", "id.27", "id.44", "soliton.32", "soliton.33", "thm4.28"),
    ),
}


def _failures(params, tmp_path):
    """The non-audit ids of the emitted model beyond their tolerance at the
    pinned points, each with the rows at which it fails."""
    out = tmp_path / "model.json"
    assert main(["example2", *map(str, params), "--out", str(out)]) == 0
    ctx = CheckContext(model(json.loads(out.read_text())))
    table = run_check_ids(ctx, applicable_ids(ctx), np.array(PINS[params][0]))
    rows = {
        cid: np.flatnonzero(~(res <= CATALOGUE[cid].tolerance))
        for cid, res in table.items() if not CATALOGUE[cid].audit
    }
    return {cid: at for cid, at in rows.items() if at.size}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14b")
@pytest.mark.parametrize("params", list(PINS), ids=lambda p: "_".join(map(str, p)))
def test_a_valid_model_passes_at_its_pinned_points(params, tmp_path):
    assert _failures(params, tmp_path) == {}


@pytest.mark.parametrize("params", list(PINS), ids=lambda p: "_".join(map(str, p)))
def test_the_pins_fail_as_recorded(params, tmp_path):
    # the recorded ids fail, and every pinned point fails one of them
    failures = _failures(params, tmp_path)
    assert sorted(failures) == sorted(PINS[params][1])
    points = len(PINS[params][0])
    assert set(np.concatenate(list(failures.values())).tolist()) == set(range(points))
