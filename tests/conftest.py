import dataclasses
import functools

import numpy as np
import pytest

from wfk.checks import CheckContext
from wfk.cli import manifold_from_manifest
from wfk.expr import const, parse_expression
from wfk.geometry import MetricField
from wfk.kenmotsu import build_example2
from wfk.star_soliton import SolitonData

GRID = [
    (n, s, beta, c)
    for n in (1, 2)
    for s in (1, 2, 3)
    for beta in (-1.0, 0.5, 1.0)
    for c in (0.0, 1.0)
]


@functools.lru_cache(maxsize=None)
def example_manifold(n=1, s=2, beta=1.0, c=1.0):
    """Shared cached instance of the explicit chart model."""
    return model(build_example2(n, s, beta, c))


def model(data):
    """The WeakFManifold of a builder's manifest, as `wfk check` reads it."""
    return manifold_from_manifest(data)[0]


def group_residuals(group, st):
    """The residuals of a check group at a structure, ``{id: residual}``,
    measured as `wfk check` measures them."""
    return CheckContext(st.m).group_reports(group, st)


def exprs(raw, dim):
    """Numbers and expression text, nested in lists, as the same nesting of
    tuples of expressions over a chart of dimension ``dim``."""
    if isinstance(raw, (list, tuple, np.ndarray)):
        return tuple(exprs(e, dim) for e in raw)
    return parse_expression(raw, dim) if isinstance(raw, str) else const(raw, dim)


def with_soliton(m, lam, mu, **potential):
    """``m`` carrying the soliton (lam, mu) with the potential V or v."""
    return dataclasses.replace(m, soliton=SolitonData(lam=lam, mu=mu, **potential))


def diagonal_metric(entries):
    """The metric field diag(entries), over a chart of their number."""
    rows = [[0.0] * i + [e] for i, e in enumerate(entries)]
    return MetricField.from_entries(exprs(rows, len(rows)), len(rows))


def seeded_points(dim, count=5, seed=42, box=(-0.5, 0.5)):
    rng = np.random.default_rng(seed)
    return [rng.uniform(box[0], box[1], dim) for _ in range(count)]


@pytest.fixture
def e2():
    """The 4-dimensional reference instance (n=1, s=2, beta=1, c=1)."""
    return example_manifold()


@pytest.fixture
def origin():
    return np.zeros(4)
