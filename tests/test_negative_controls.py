"""Negative controls: a one-entry mutation of a valid model fails the id.

Each control perturbs one manifest entry of the dim-4 example2 model
(n=1, s=2, beta=1, c=1, with the soliton `wfk example2` emits, or its
gradient variant with potential v = x3 + x4) by a size eps.  The id must
pass on the model, fail at every point at eps = 1e-3, and its residual must
scale with eps, so that the residual measures the perturbation and not
rounding.
"""
import copy

import numpy as np
import pytest

from wfk.checks import CATALOGUE, CheckContext, run_check_ids
from wfk.cli import manifold_from_manifest
from wfk.kenmotsu import build_example2

from conftest import seeded_points

EPS = 1e-3


def _base(gradient: bool = False) -> dict:
    data = build_example2(1, 2, 1.0, 1.0)
    # lambda = s beta - s (1+c) beta^2 = -2 and mu = -lambda, as `wfk example2` writes
    potential = {"v": "x3+x4"} if gradient else {"V": [0, 0, 1, 1]}
    data["soliton"] = {"lambda": -2.0, "mu": 2.0, **potential}
    return data


def _scaled(path):
    """Multiply the entry at ``path`` (1-based row and column) by 1 + eps."""
    def edit(data, eps):
        key, i, j = path
        row = data[key][i - 1]
        row[j - 1] = f"({row[j - 1]})*(1+{eps!r})"
    return edit


def _shifted(path, term):
    """Add eps times ``term`` to the entry at ``path`` (1-based)."""
    def edit(data, eps):
        key, i, j = path
        row = data[key][i - 1]
        row[j - 1] = f"({row[j - 1]})+{eps!r}*{term}"
    return edit


def _potential(data, eps):
    data["soliton"]["v"] = f"{data['soliton']['v']}+{eps!r}*x1^2"


# (check id, edit, gradient variant)
CONTROLS = [
    ("axiom.6", _scaled(("metric", 1, 1)), False),
    ("kenmotsu.12", _scaled(("metric", 1, 1)), False),
    ("thm4.28", _scaled(("metric", 1, 1)), False),
    ("soliton.32", _scaled(("metric", 1, 1)), False),
    ("soliton.33", _scaled(("metric", 3, 3)), False),
    ("axiom.5", _scaled(("f", 1, 2)), False),
    ("axiom.f3", _scaled(("f", 1, 2)), False),
    ("axiom.Qf", _scaled(("Q", 1, 1)), False),
    ("axiom.etaQ", _scaled(("Q", 3, 3)), False),
    ("n1", _shifted(("f", 1, 2), "x3"), False),
    ("dphi", _shifted(("f", 1, 2), "x3"), False),
    ("axiom.etaf", _shifted(("eta", 1, 2), "x2"), False),
    ("deta", _shifted(("eta", 1, 2), "x1"), False),
    ("grad.75", _potential, True),
]


def _residuals(cid, edit, gradient, eps):
    data = copy.deepcopy(_base(gradient))
    if eps:
        edit(data, eps)
    m, soliton = manifold_from_manifest(data)[:2]
    points = seeded_points(m.dim, count=4, seed=3)
    return run_check_ids(CheckContext(m, soliton), [cid], points)[cid]


@pytest.mark.parametrize("cid, edit, gradient", CONTROLS, ids=[c[0] for c in CONTROLS])
def test_mutation_fails_and_scales(cid, edit, gradient):
    tol = CATALOGUE[cid].tolerance
    assert np.all(_residuals(cid, edit, gradient, 0.0) <= tol)
    at_eps = _residuals(cid, edit, gradient, EPS)
    assert np.all(at_eps > tol), at_eps
    ratio = _residuals(cid, edit, gradient, 2 * EPS) / at_eps
    assert np.all((1.5 <= ratio) & (ratio <= 2.5)), ratio
