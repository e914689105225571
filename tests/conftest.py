import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Tuple

import pytest
from hypothesis import assume, strategies as st

from rankcodes import FieldTower, HypothesisError, LinearCode, grw_table_exact, linalg, rankmetric
from rankcodes.codes import Reduction


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


_SANDWICH_TOWERS = [FieldTower(2, 2), FieldTower(2, 3), FieldTower(3, 2)]


@st.composite
def random_reduction(draw):
    """A reduction with 3 or 4 blocks of length 1 or 2 over F_4, F_8 or F_9,
    of total dimension 1..4 (a block may have dimension 0): random full-rank
    diagonal blocks and random blocks above them.  Over F_9 the length stops
    at 6, where the closed oracle's price stays within the default budget."""
    t = draw(st.sampled_from(_SANDWICH_TOWERS))
    lengths = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(3, 4)))]
    assume(sum(lengths) <= (8 if t.p == 2 else 6))
    dims = []
    for n_i in lengths:
        dims.append(draw(st.integers(0, min(n_i, 4 - sum(dims)))))
    assume(sum(dims) > 0)
    entry = st.integers(0, t.order - 1)
    rows = []
    for i, k_i in enumerate(dims):
        blocks = [[[draw(entry) for _ in range(lengths[j])] for _ in range(k_i)]
                  for j in range(i, len(lengths))]
        assume(linalg.rank(blocks[0], lengths[i], t) == k_i)
        left = [0] * sum(lengths[:i])
        rows += [left + [x for blk in blocks for x in blk[r]] for r in range(k_i)]
    return Reduction(t, lengths, dims, rows)


def closed_space_table_reference(code):
    """d_1 .. d_k by the plain ascending scan: every F_q RREF basis of each
    dimension from 1 up, dim(C ∩ V) = d − rank(V·Hᵀ), leaving a dimension at
    the first space that meets the code in dimension k."""
    k, table = code.k, []
    for d in range(1, code.n + 1):
        best = 0
        for basis in linalg.subspace_bases(code.n, d, range(code.tower.p)):
            best = max(best, code.intersection_dim(basis))
            if best >= k:
                break
        table.extend([d] * (min(best, k) - len(table)))
        if len(table) == k:
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


def leakage_joint_reference(code, B_rows):
    """Mutual information of message and observation, in packets, by the
    plain per-atom loop: c·Gᵀ and c·Bᵀ by two vector–matrix products for
    every c in F_{q^m}^n, dict counts, and one Fraction per joint entry."""
    tower, n, k, mu = code.tower, code.n, code.k, len(B_rows)
    Gt = linalg.transpose(list(code.G), n)
    Bt = linalg.transpose(list(B_rows), n)
    joint, s_count, w_count = {}, {}, {}
    for c in itertools.product(range(tower.order), repeat=n):
        s = tuple(linalg.vec_mat(list(c), Gt, k, tower))
        w = tuple(linalg.vec_mat(list(c), Bt, mu, tower))
        joint[(s, w)] = joint.get((s, w), 0) + 1
        s_count[s] = s_count.get(s, 0) + 1
        w_count[w] = w_count.get(w, 0) + 1
    atoms = tower.order**n
    info = Fraction(0)
    for (s, w), cnt in joint.items():
        num = _exponent(cnt, tower.p) + _exponent(atoms, tower.p)
        den = _exponent(s_count[s], tower.p) + _exponent(w_count[w], tower.p)
        info += Fraction(cnt, atoms) * Fraction(num - den, tower.m)
    return info


def _exponent(value, q):
    e = 0
    while value % q == 0:
        value //= q
        e += 1
    assert value == 1, "a count is not a power of q"
    return e


@dataclass
class StrongerSecurityResult:
    bound: int
    composition: Tuple[int, ...]
    strict_blocks: Tuple[int, ...]
    zero_leakage: bool


def stronger_security_bound(R, V, composition, tables=None):
    """The per-composition theorem behind ``wiretap.composition_search``:
    a certified upper bound on dim(C ∩ V) for one composition
    r = (r_1, ..., r_l).

    The projection of V on block i must fit under the r_i-th weight of
    main component i (0 for r_i = 0); blocks where it fits strictly are
    subtracted from sum r_i.  Anything outside those hypotheses is refused
    with HypothesisError.  ``tables`` are the main components' weight
    tables, computed when not given.
    """
    if tables is None:
        tables = [grw_table_exact(R.main_component(i))[0] for i in range(R.l)]
    if len(composition) != R.l:
        raise ValueError("composition length differs from the block count")
    dims = [linalg.rank([row[R.col_offset(i):R.col_offset(i) + R.lengths[i]] for row in V.basis],
                        R.lengths[i], R.tower) for i in range(R.l)]
    strict = []
    for i, r_i in enumerate(composition):
        if not 0 <= r_i <= R.dims[i]:
            raise HypothesisError(f"r_{i+1}={r_i} outside 0..{R.dims[i]}")
        cap = 0 if r_i == 0 else tables[i][r_i - 1]
        if dims[i] > cap:
            raise HypothesisError(
                f"projection {i+1} has dimension {dims[i]} > d_(R,{r_i}) = {cap}")
        if dims[i] < cap:
            strict.append(i)
    zero = all(dims[i] < tables[i][0] for i in range(R.l) if R.dims[i]) and \
        all(dims[i] == 0 for i in range(R.l) if not R.dims[i])
    return StrongerSecurityResult(sum(composition) - len(strict), tuple(composition),
                                  tuple(strict), zero)


def src_env():
    """Environment for a child interpreter that imports this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
