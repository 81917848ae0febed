import functools

import numpy as np
import pytest

from wfk.cli import manifold_from_manifest
from wfk.geometry import MetricField
from wfk.kenmotsu import build_example2

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


def diagonal_metric(entries):
    """The metric field diag(entries), over a chart of their number."""
    rows = [[0.0] * i + [e] for i, e in enumerate(entries)]
    return MetricField.from_entries(rows, len(rows))


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
