"""Negative controls: a one-entry mutation of a valid model fails the id.

Each control perturbs one manifest entry of a valid base model by a size
eps: the dim-4 example2 model (n=1, s=2, beta=1, c=1, with the soliton
`wfk example2` emits), its gradient variant with potential v = x3 + x4, or
the dim-3 twisted product with sigma = exp(x3) (2 + x1^2).  The id must
pass on the model, fail at every point at eps = 1e-3, and its residual must
scale with eps, so that the residual measures the perturbation and not
rounding.  Every catalogue id has a control or an entry in ``UNREACHABLE``.
"""
import numpy as np
import pytest

from wfk.checks import CATALOGUE, CheckContext, run_check_ids
from wfk.cli import manifold_from_manifest
from wfk.kenmotsu import build_example2, build_twisted_product

from conftest import seeded_points

EPS = 1e-3


def _example2(potential=None) -> dict:
    data = build_example2(1, 2, 1.0, 1.0)
    # lambda = s beta - s (1+c) beta^2 = -2 and mu = -lambda, as `wfk example2` writes
    data["soliton"] = {"lambda": -2.0, "mu": 2.0, **(potential or {"V": [0, 0, 1, 1]})}
    return data


def _gradient() -> dict:
    return _example2({"v": "x3+x4"})


def _twisted() -> dict:
    return build_twisted_product([1.0], 1, "exp(x3)*(2+x1^2)")


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


def _beta(data, eps):
    """Write beta as beta (1 + eps)."""
    data["beta"] = f"{data['beta']!r}*(1+{eps!r})"


def _potential(data, eps):
    data["soliton"]["v"] = f"{data['soliton']['v']}+{eps!r}*x1^2"


def _field(data, eps):
    """Give V (= xibar, no x1 component) the component eps 10 x1 x3 along x1."""
    data["soliton"]["V"][0] = f"{eps!r}*10*x1*x3"


def _field3(data, eps):
    """Write V's third component, 1, as 1 + eps x1."""
    data["soliton"]["V"][2] = f"1+{eps!r}*x1"


def _lambda(data, eps):
    """Write lambda as lambda (1 + eps), so that lambda + mu is no longer 0."""
    data["soliton"]["lambda"] *= 1 + eps


def _sigma(data, eps):
    """Write the twisted product's sigma as sigma (1 + eps x3)."""
    data["sigma"] = f"({data['sigma']})*(1+{eps!r}*x3)"


# (check id, edit, base model)
CONTROLS = [
    ("axiom.6", _scaled(("metric", 1, 1)), _example2),
    ("kenmotsu.12", _scaled(("metric", 1, 1)), _example2),
    ("thm4.28", _scaled(("metric", 1, 1)), _example2),
    ("soliton.32", _scaled(("metric", 1, 1)), _example2),
    ("soliton.33", _scaled(("metric", 3, 3)), _example2),
    ("axiom.5", _scaled(("f", 1, 2)), _example2),
    ("axiom.f3", _scaled(("f", 1, 2)), _example2),
    ("axiom.Qf", _scaled(("Q", 1, 1)), _example2),
    ("axiom.etaQ", _scaled(("Q", 3, 3)), _example2),
    ("n1", _shifted(("f", 1, 2), "x3"), _example2),
    ("dphi", _shifted(("f", 1, 2), "x3"), _example2),
    ("axiom.etaf", _shifted(("eta", 1, 2), "x2"), _example2),
    ("deta", _shifted(("eta", 1, 2), "x1"), _example2),
    # xi_1 gains eps x3 d/dx1; every eta^i vanishes on d/dx1, so eta^i(xi_j) stays
    # delta_ij, but g(xi_1, .) no longer equals eta^1; the edit vanishes at the origin
    *((cid, _shifted(("xi", 1, 1), "x3"), _example2) for cid in (
        "id.13", "axiom.fxi", "axiom.Qxi", "axiom.dual",
    )),
    ("lemma2.35", _field, _example2),
    ("contact.65", _field3, _example2),
    ("prop5", _lambda, _example2),
    ("star.def", _shifted(("Q", 1, 3), "1"), _example2),
    ("grad.75", _potential, _gradient),
    *((cid, _beta, _example2) for cid in (
        "id.14", "id.15", "id.16", "id.18", "id.19", "id.20", "id.21", "id.22", "id.23",
        "id.26", "id.27", "id.44", "thm4.29", "lemma2.34",
    )),
    # only sigma is edited: the fiber's f, Q, xi, eta and g stay a valid structure
    ("twisted.i", _sigma, _twisted),
    ("twisted.ii", _sigma, _twisted),
]

# The ids no control reaches yet, each with the reason (items of ROADMAP.md)
UNREACHABLE = {
    "twisted.iii": "cannot fail in the twisted builder's chart (item 3)",
    "cor2": "its fit gate folds a failure into a residual of 0 (item 7)",
    "lemma2.42": "flags on every model with c != 0 (item 22)",
}


def _residuals(cid, edit, base, eps):
    data = base()
    if eps:
        edit(data, eps)
    m = manifold_from_manifest(data)[0]
    points = seeded_points(m.dim, count=4, seed=3)
    return run_check_ids(CheckContext(m), [cid], points)[cid]


@pytest.mark.parametrize("cid, edit, base", CONTROLS, ids=[c[0] for c in CONTROLS])
def test_mutation_fails_and_scales(cid, edit, base):
    tol = CATALOGUE[cid].tolerance
    assert np.all(_residuals(cid, edit, base, 0.0) <= tol)
    at_eps = _residuals(cid, edit, base, EPS)
    assert np.all(at_eps > tol), at_eps
    ratio = _residuals(cid, edit, base, 2 * EPS) / at_eps
    assert np.all((1.5 <= ratio) & (ratio <= 2.5)), ratio


def test_every_id_has_a_control_or_a_reason():
    controlled = {c[0] for c in CONTROLS}
    assert not controlled & UNREACHABLE.keys()
    assert controlled | UNREACHABLE.keys() == CATALOGUE.keys()
