import os
from pathlib import Path

import pytest

from rankcodes import FieldTower, LinearCode, linalg, rankmetric


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


def closure_basis_reference(tower, rows, ncols):
    """RREF basis over F_{q^m} of D* = D + D^[1] + ... + D^[m−1]: the m
    Frobenius powers of every row, eliminated over the extension field."""
    stacked = [rankmetric.vector_frobenius(tower, row, i) for i in range(tower.m) for row in rows]
    return linalg.rref_nonzero(stacked, ncols, tower)


def galois_closure_reference(tower, rows, ncols):
    """Canonical F_q basis of D* ∩ F_q^n from the trace vectors Tr(β·w),
    w in the extension basis of D* and β in the polynomial basis, which
    span the fixed space of a Frobenius-stable space."""
    ext = closure_basis_reference(tower, rows, ncols)
    traces = [rankmetric.vector_trace(tower, tower.scale(tower.from_coeffs(e), w))
              for w in ext for e in linalg.identity(tower.m)]
    reduced = linalg.rref_nonzero(traces, ncols, tower)
    assert len(reduced) == len(ext), "fixed-space extraction lost dimensions"
    return reduced


def min_closure_reference(code, r):
    """(message basis, weight) by the plain scan: every r-dimensional
    subcode in the order of linalg.subspace_bases, weighed by its Frobenius
    stack, keeping the first strict minimum and stopping at weight r."""
    tower, best = code.tower, None
    for basis in linalg.subspace_bases(code.k, r, range(tower.order)):
        w = len(closure_basis_reference(tower, [code.codeword(x) for x in basis], code.n))
        if best is None or w < best[1]:
            best = basis, w
            if w == r:
                break
    return best


def src_env():
    """Environment for a child interpreter that imports this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
