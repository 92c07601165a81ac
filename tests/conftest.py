import numpy as np
import pytest

from quditwitness import DensityMatrix
from quditwitness.linalg import ginibre


def random_density(rng: np.random.Generator, dim_a: int, dim_b: int) -> DensityMatrix:
    """Random full-rank mixed state (Ginibre construction)."""
    g = ginibre(dim_a * dim_b, rng)
    mat = g @ g.conj().T
    return DensityMatrix(dim_a, dim_b, mat / mat.trace())


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs the map in-process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
