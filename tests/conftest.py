import numpy as np
import pytest

from prodenv.simulate import TechnologySpec


def random_admissible_b(rng, d=2, base_diag=(0.8, 1.6), off=(0.05, 0.45)):
    """Random symmetric coefficient matrix satisfying the convexity signs."""
    b = -rng.uniform(*off, size=(d, d))
    b = (b + b.T) / 2.0
    b[np.diag_indices(d)] = rng.uniform(*base_diag, size=d)
    return b


def nested_diewert(rng, d=2, d_e=3):
    """Random strictly nested family (diagonal increments between types)."""
    b = random_admissible_b(rng, d)
    mats = [b]
    for _ in range(d_e - 1):
        mats.append(mats[-1] + np.diag(rng.uniform(0.3, 0.9, size=d)))
    return TechnologySpec.diewert_family(mats)


def unit(v):
    """v scaled onto the unit sphere."""
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _unit(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def unit_rays_2d(angles):
    return [np.array([np.cos(a), np.sin(a)]) for a in np.atleast_1d(angles)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def triple():
    return TechnologySpec.nonmonotone_supply_triple()
