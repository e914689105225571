import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rankcodes import FieldTower, LinearCode, linalg

from conftest import src_env

F2 = FieldTower(2, 1)


def test_rref_examples(f4):
    ident = linalg.identity(3)
    R, piv = linalg.rref(ident, 3, f4)
    assert R == ident and piv == [0, 1, 2]
    Z = linalg.zeros(2, 3)
    R, piv = linalg.rref(Z, 3, f4)
    assert R == Z and piv == []
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]  # third row = sum of first two
    _, piv = linalg.rref(rows, 3, F2)
    assert len(piv) == 2


def test_rref_unique_for_row_space(f9):
    rows = [[3, 1, 0], [4, 0, 1]]
    mixed = [[f9.add(a, b) for a, b in zip(rows[0], rows[1])], rows[1]]
    assert linalg.rref_nonzero(rows, 3, f9) == linalg.rref_nonzero(mixed, 3, f9)


def test_kernel_examples(f4):
    assert linalg.kernel(linalg.identity(3), 3, f4) == []
    assert len(linalg.kernel(linalg.zeros(1, 4), 4, f4)) == 4
    ker = linalg.kernel([[1, 1, 1]], 3, F2)
    assert len(ker) == 2
    # oracle: enumerate F_2^3 and keep the orthogonal vectors
    brute = [list(v) for v in itertools.product(range(2), repeat=3) if sum(v) % 2 == 0 and any(v)]
    assert linalg.rref_nonzero(ker, 3, F2) == linalg.rref_nonzero(brute, 3, F2)
    for v in ker:
        assert linalg.vec_mat(v, linalg.transpose([[1, 1, 1]], 3), 1, F2) == [0]


def test_subspace_enumeration_counts():
    assert linalg.gaussian_binomial(3, 1, 2) == 7
    assert linalg.gaussian_binomial(4, 2, 2) == 35
    assert sum(1 for _ in linalg.subspace_bases(3, 0, range(2))) == 1
    assert sum(1 for _ in linalg.subspace_bases(3, 1, range(2))) == 7
    assert sum(1 for _ in linalg.subspace_bases(4, 2, range(2))) == 35
    bases = [tuple(map(tuple, b)) for b in linalg.subspace_bases(4, 2, range(3))]
    assert len(bases) == len(set(bases)) == linalg.gaussian_binomial(4, 2, 3)


def test_subspace_bases_are_canonical_rref(f9):
    for basis in linalg.subspace_bases(4, 2, range(3)):
        reduced = linalg.rref_nonzero(basis, 4, f9)
        assert reduced == basis


def test_rng_streams_deterministic_and_split():
    a = linalg.rng_stream(7, "x").integers(0, 1000, size=5)
    b = linalg.rng_stream(7, "x").integers(0, 1000, size=5)
    c = linalg.rng_stream(7, "y").integers(0, 1000, size=5)
    assert a == b and a != c


# (seed, label, [(low, high, size), ...] drawn in turn from one stream, the
# draws), recorded from numpy's Generator(Philox(key)).integers: bounds
# below 2^32 (Lemire on 32-bit draws, 2^31 + 11 and 3*2^30 rejecting
# often), 2^32 (one plain 32-bit draw), 2^40 and 3*2^62 (64-bit draws),
# odd sizes whose spare 32-bit half carries into the next call, 2-D sizes,
# nonzero low and a range of 1 (no draw)
_PINNED_DRAWS = [
    (7, "x", [(0, 2, 9), (0, 2, 4)],
     [[0, 0, 1, 0, 1, 0, 1, 1, 1], [0, 1, 1, 0]]),
    (11, "pin", [(0, 3, 7), (0, 7, 5)],
     [[0, 1, 2, 2, 1, 2, 2], [0, 1, 4, 6, 6]]),
    (5, "b", [(0, 2**16, 3), (0, 3**10, 5)],
     [[47069, 51901, 41817], [10011, 41049, 45450, 45847, 16851]]),
    (1, "rej", [(0, 2**31 + 11, 5), (0, 3 * 2**30, 5)],
     [[188742558, 32210511, 306571667, 1303844591, 316462481],
      [1867564486, 1484833398, 2048583495, 593380036, 290989741]]),
    (4, "plain", [(0, 7, 1), (0, 2**32, 3), (0, 7, 2)],
     [[6], [231828157, 3294930067, 1110113236], [4, 1]]),
    (6, "wide", [(0, 3, 3), (0, 2**40, 3), (-2**62, 2**63, 3), (0, 3, 2)],
     [[1, 1, 0], [382644017865, 796001728382, 498086808836],
      [-39492692892219435, 6625398047849687311, -3898462198725601922], [1, 1]]),
    (1, "offdiag:0:1", [(0, 16, (2, 3)), (0, 16, (3, 1))],
     [[[7, 12, 5], [14, 11, 1]], [[5], [13], [6]]]),
    (3001, "accept-oracle",
     [(0, 2, None), (2, 4, None), (2, 6, None), (1, 3, None), (0, 1, 4), (5, 9, 3)],
     [1, 3, 4, 2, [0, 0, 0, 0], [5, 6, 8]]),
]


@pytest.mark.parametrize("seed,label,calls,expect", _PINNED_DRAWS)
def test_rng_stream_pinned_draws(seed, label, calls, expect):
    rng = linalg.rng_stream(seed, label)
    assert [rng.integers(low, high, size=size) for low, high, size in calls] == expect


_SPANS = [1, 2, 3, 7, 2**16, 3**10, 2**31 + 11, 3 * 2**30, 2**32, 2**40, 3 * 2**62]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**40),
       label=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
       calls=st.lists(st.tuples(st.integers(-2**62, 2**62), st.sampled_from(_SPANS),
                                st.sampled_from([None, 1, 2, 3, 5, (2, 3), (3, 1)])),
                      min_size=1, max_size=8))
def test_rng_stream_matches_numpy_philox(seed, label, calls):
    np = pytest.importorskip("numpy")
    import hashlib

    key = int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:16], "little")
    ref = np.random.Generator(np.random.Philox(key=key))
    rng = linalg.rng_stream(seed, label)
    for low, span, size in calls:
        low = min(low, 2**63 - span)  # numpy's default dtype is int64
        want = np.asarray(ref.integers(low, low + span, size=size)).tolist()
        assert rng.integers(low, low + span, size=size) == want


_IMPORT_BOUNDARY = """
import sys
import rankcodes
print(sorted(m for m in sys.modules if m.startswith("rankcodes.")))
import rankcodes.field
print(sorted(m for m in sys.modules if m.startswith("rankcodes.")))
import rankcodes.cli
print(sorted(m for m in ("rankcodes.grw", "rankcodes.equivalence", "rankcodes.wiretap")
             if m in sys.modules))
from rankcodes import FieldTower, codes
f4 = FieldTower(2, 2)
R = codes.reducible([codes.gabidulin(f4, 2, 1), codes.gabidulin(f4, 2, 1)], seed=1)
codes.random_block_transform(R, 2)
print("numpy" in sys.modules)
"""


def test_import_boundaries():
    res = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY],
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "['rankcodes.errors', 'rankcodes.field']", "[]",
                                       "False"]


def test_package_names_resolve_to_defining_modules():
    import rankcodes

    assert len(set(rankcodes.__all__)) == len(rankcodes.__all__)
    for name in rankcodes.__all__:
        obj = getattr(rankcodes, name)
        assert obj.__module__.startswith("rankcodes.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert rankcodes.grw is sys.modules["rankcodes.grw"]
    with pytest.raises(AttributeError):
        rankcodes.no_such_name
    with pytest.raises(ImportError):
        from rankcodes import no_such_name  # noqa: F401


@st.composite
def random_matrix(draw):
    t = _TOWERS[draw(st.sampled_from([0, 1, 2]))]
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    M = [[draw(st.integers(0, t.order - 1)) for _ in range(cols)] for _ in range(rows)]
    return t, M, rows, cols


_TOWERS = [FieldTower(2, 2), FieldTower(3, 2), FieldTower(2, 3)]


@settings(max_examples=80, deadline=None)
@given(random_matrix())
def test_rank_equals_rank_of_transpose(data):
    t, M, rows, cols = data
    assert linalg.rank(M, cols, t) == linalg.rank(linalg.transpose(M, cols), rows, t)


@st.composite
def matrix_pair(draw):
    t = _TOWERS[draw(st.sampled_from([0, 1, 2]))]
    cols = draw(st.integers(1, 4))
    def mat():
        rows = draw(st.integers(1, 4))
        return [[draw(st.integers(0, t.order - 1)) for _ in range(cols)] for _ in range(rows)]
    return t, mat(), mat(), cols


@settings(max_examples=60, deadline=None)
@given(matrix_pair())
def test_dimension_formula(data):
    """The code's parity-check intersection against the Grassmann formula
    dim(U ∩ W) = rank U + rank W - rank(U + W)."""
    t, U, W, cols = data
    grassmann = (linalg.rank(U, cols, t) + linalg.rank(W, cols, t)
                 - linalg.rank(U + W, cols, t))
    code = LinearCode(t, cols, linalg.rref_nonzero(U, cols, t))
    assert code.intersection_dim(W) == grassmann


def test_matmul_and_solve_right(f9):
    A = [[2, 3], [4, 5]]
    B = [[1, 0, 2], [0, 1, 3]]
    C = linalg.matmul(A, B, f9)
    assert len(C) == 2 and len(C[0]) == 3
    x = linalg.solve_right(B, 3, [5, 7], f9)
    assert linalg.vec_mat(x, linalg.transpose(B, 3), 2, f9) == [5, 7]
    assert linalg.solve_right([[1, 0], [1, 0]], 2, [1, 0], f9) is None


# F_2, F_3, F_4, F_8 and F_9, each with the most rows whose coefficient
# tuples number at most 729, so every span is listed in full
_EXTEND_TOWERS = [(FieldTower(2, 1), 4), (FieldTower(3, 1), 4), (FieldTower(2, 2), 4),
                  (FieldTower(2, 3), 3), (FieldTower(3, 2), 3)]


@st.composite
def rows_to_insert(draw):
    """Rows picked with repeats from a pool that holds the zero row and rows
    drawn over F_q or over F_{q^m}, plus the number of them inserted by the
    first of two calls."""
    t, most = draw(st.sampled_from(_EXTEND_TOWERS))
    n = draw(st.integers(1, 5))
    pool = [[0] * n] + [draw(st.lists(st.integers(0, (t.p if draw(st.booleans()) else t.order) - 1),
                                      min_size=n, max_size=n))
                        for _ in range(draw(st.integers(1, 4)))]
    rows = [list(pool[i]) for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=most))]
    return t, n, rows, draw(st.integers(0, len(rows)))


def _span(t, rows, n):
    """Every vector of the row space, as the products x·rows over all
    coefficient tuples x."""
    return {tuple(linalg.vec_mat(x, rows, n, t))
            for x in itertools.product(range(t.order), repeat=len(rows))}


@settings(max_examples=80, deadline=None)
@given(rows_to_insert())
def test_extend_rows_matches_rank(case):
    """The echelon of two insertions, rank and rref against spans listed in
    full: the echelon has one row per dimension of the span and spans it,
    order^rank is the size of the span, and rref is a reduced row echelon
    form of the same space with its zero rows last.  The inserted rows are
    not changed."""
    t, n, rows, split = case
    given_rows = linalg.copy_rows(rows)
    span = _span(t, rows, n)
    echelon = linalg.extend_rows(t, linalg.extend_rows(t, [], rows[:split]), rows[split:])
    assert t.order ** len(echelon) == len(span)
    assert _span(t, [row for _, row, _ in echelon], n) == span
    assert t.order ** linalg.rank(rows, n, t) == len(span)

    R, pivots = linalg.rref(rows, n, t)
    assert len(R) == len(rows) and t.order ** len(pivots) == len(span)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert [row[c] for row in R] == [int(j == i) for j in range(len(R))]
    assert all(any(row) for row in R[:len(pivots)]) and not any(map(any, R[len(pivots):]))
    assert _span(t, R, n) == span
    assert rows == given_rows
