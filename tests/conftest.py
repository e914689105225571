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


def closed_space_table_reference(code, r):
    """d_1 .. d_r by the plain ascending scan: every F_q RREF basis of each
    dimension from 1 up, dim(C ∩ V) = d − rank(V·Hᵀ), leaving a dimension at
    the first space that meets the code in dimension r."""
    table = []
    for d in range(1, code.n + 1):
        best = 0
        for basis in linalg.subspace_bases(code.n, d, range(code.tower.p)):
            best = max(best, d - code.syndrome_rank(basis))
            if best >= r:
                break
        table.extend([d] * (min(best, r) - len(table)))
        if len(table) == r:
            return table
    raise AssertionError("the full space always meets the code")


def src_env():
    """Environment for a child interpreter that imports this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
