import os
from pathlib import Path

import pytest

from rankcodes import FieldTower, LinearCode, linalg


@pytest.fixture(scope="session")
def f4():
    return FieldTower(2, 2)


@pytest.fixture(scope="session")
def f8():
    return FieldTower(2, 3)


@pytest.fixture(scope="session")
def f16():
    return FieldTower(2, 4)


@pytest.fixture(scope="session")
def f9():
    return FieldTower(3, 2)


def random_full_rank(tower, n, k, seed, label="random-code"):
    """Seeded random [n, k] code (rejection sampling until full rank)."""
    rng = linalg.rng_stream(seed, label)
    while True:
        G = [[int(v) for v in rng.integers(0, tower.order, size=n)] for _ in range(k)]
        if linalg.rank(G, n, tower) == k:
            return LinearCode(tower, n, G)


def src_env():
    """Environment for a child interpreter that imports this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
