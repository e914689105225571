from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankcodes import (FieldTower, GaloisClosedSpace, LinearCode, galois_closure, linalg,
                       matrix_rep, rank_weight, vector_trace)
from rankcodes import rankmetric

from conftest import (closure_basis_reference, galois_closure_reference,
                      min_closure_reference, random_full_rank)


def test_matrix_rep_examples(f4):
    assert matrix_rep(f4, [0, 0, 0]) == [[0, 0, 0], [0, 0, 0]]
    # c = (alpha_1, 0): e_1 in column 1
    assert matrix_rep(f4, [f4.alphas[0], 0]) == [[1, 0], [0, 0]]
    y = f4.from_coeffs((0, 1))
    assert matrix_rep(f4, [1, y]) == [[1, 0], [0, 1]]


def test_matrix_rep_reconstructs(f8):
    for vec in [[3, 5, 0], [7, 7, 1]]:
        M = matrix_rep(f8, vec)
        for j, c in enumerate(vec):
            acc = 0
            for i, alpha in enumerate(f8.alphas):
                acc = f8.add(acc, f8.mul(M[i][j], alpha))
            assert acc == c


def test_rank_weight_examples(f4):
    assert rank_weight(f4, [0, 0, 0]) == 0
    beta = 3
    assert rank_weight(f4, [beta, beta, beta]) == 1
    y = f4.from_coeffs((0, 1))
    assert rank_weight(f4, [1, y]) == 2


def test_galois_closure_examples(f4):
    assert galois_closure(f4, [], 2).dim == 0
    v = [1, 1, 0]
    cl = galois_closure(f4, [v], 3)
    assert cl.dim == 1 and list(cl.basis[0]) == v
    y = f4.from_coeffs((0, 1))
    cl2 = galois_closure(f4, [[1, y]], 2)
    assert cl2.dim == 2  # rank weight 2 forces the full ambient space
    assert [list(r) for r in cl2.basis] == linalg.identity(2)


def test_vector_trace_examples(f4, f8):
    assert vector_trace(f4, [0, 0]) == [0, 0]
    assert vector_trace(f8, [1, 1, 0]) == [1, 1, 0]  # m mod p = 1 for m=3, p=2
    y = f4.from_coeffs((0, 1))
    assert vector_trace(f4, [y, 1]) == [1, 0]


def test_weight_equals_closure_dim_sampled(f8, f9):
    for tower, seed in [(f8, 1), (f9, 2)]:
        rng = linalg.rng_stream(seed, "wt-closure")
        for _ in range(25):
            vec = [int(v) for v in rng.integers(0, tower.order, size=4)]
            assert rank_weight(tower, vec) == rankmetric.closure_dim(tower, [vec], 4) \
                == linalg.rank(matrix_rep(tower, vec), 4, tower)


def test_weight_invariance_under_scaling_and_column_ops(f8):
    rng = linalg.rng_stream(5, "invariance")
    for _ in range(15):
        vec = [int(v) for v in rng.integers(0, 8, size=3)]
        w = rank_weight(f8, vec)
        for beta in range(1, 8):
            assert rank_weight(f8, f8.scale(beta, vec)) == w
        while True:
            P = [[int(v) for v in rng.integers(0, 2, size=3)] for _ in range(3)]
            if linalg.rank(P, 3, f8) == 3:
                break
        assert rank_weight(f8, linalg.vec_mat(vec, linalg.transpose(P, 3), 3, f8)) == w


def test_closure_idempotent_and_monotone(f4):
    rng = linalg.rng_stream(9, "closure")
    for _ in range(10):
        D = [[int(v) for v in rng.integers(0, 4, size=3)] for _ in range(1)]
        E = D + [[int(v) for v in rng.integers(0, 4, size=3)]]
        clD = galois_closure(f4, D, 3)
        clE = galois_closure(f4, E, 3)
        again = galois_closure(f4, [list(r) for r in clD.basis], 3)
        assert again.basis == clD.basis
        # clD lies in clE: adding its basis leaves the rank of clE unchanged
        assert linalg.rank(clE.basis + clD.basis, 3, f4) == clE.dim


def test_closure_subadditive_with_equality_on_direct_sums(f4):
    y = f4.from_coeffs((0, 1))
    rng = linalg.rng_stream(3, "subadd")
    for _ in range(10):
        D = [[int(v) for v in rng.integers(0, 4, size=4)]]
        E = [[int(v) for v in rng.integers(0, 4, size=4)]]
        dim_sum = rankmetric.closure_dim(f4, D + E, 4)
        assert dim_sum <= rankmetric.closure_dim(f4, D, 4) + rankmetric.closure_dim(f4, E, 4)
    # cartesian-style direct sum: supports split, closures add exactly
    D = [[1, y, 0, 0]]
    E = [[0, 0, y, 1]]
    assert rankmetric.closure_dim(f4, D + E, 4) == \
        rankmetric.closure_dim(f4, D, 4) + rankmetric.closure_dim(f4, E, 4)


def test_closure_dim_equals_code_weight(f4):
    code = random_full_rank(f4, 4, 2, seed=21)
    stacked = [rankmetric.vector_frobenius(f4, row, i) for row in code.G for i in range(2)]
    assert rankmetric.closure_dim(f4, code.G, 4) == linalg.rank(stacked, 4, f4)


def test_galois_closed_space_validation(f4):
    with pytest.raises(ValueError):
        GaloisClosedSpace.from_fq_rows(f4, [[2, 0]], 2)  # entry outside F_q
    sp = GaloisClosedSpace.from_fq_rows(f4, [[1, 1], [1, 1]], 2)
    assert sp.dim == 1
    assert sp.basis == ((1, 1),)


# -- the slice kernel and the rank-support walk against the Frobenius stack ------

_KERNEL_TOWERS = [FieldTower(2, 2), FieldTower(2, 3), FieldTower(3, 2), FieldTower(2, 4),
                  FieldTower(5, 2), FieldTower(3, 3), FieldTower(2, 6)]


def _rows(draw, t, n, count):
    """count rows of length n, each drawn over F_q or over F_{q^m}, so that
    supports smaller than the ambient space are common."""
    return [draw(st.lists(st.integers(0, (t.p if draw(st.booleans()) else t.order) - 1),
                          min_size=n, max_size=n)) for _ in range(count)]


@st.composite
def rows_over_tower(draw):
    t = draw(st.sampled_from(_KERNEL_TOWERS))
    n = draw(st.integers(1, 7))
    return t, n, _rows(draw, t, n, draw(st.integers(0, 4)))


@settings(max_examples=60, deadline=None)
@given(rows_over_tower())
def test_closure_kernel_matches_frobenius_stack(case):
    """closure_dim, LinearCode.closure_dim and galois_closure, all read from
    the coordinate slices, equal the extension-field Frobenius stack."""
    t, n, rows = case
    ext = closure_basis_reference(t, rows, n)
    assert rankmetric.closure_dim(t, rows, n) == len(ext)
    assert [list(r) for r in galois_closure(t, rows, n).basis] == galois_closure_reference(t, rows, n)
    basis = linalg.rref_nonzero(rows, n, t)
    if basis:
        assert LinearCode(t, n, basis).closure_dim == len(ext)


# (tower, largest k, largest n): every k and r whose plain scan stays
# small; over F_32 and F_64 a packed image of n = 7 holds 35 and 42 bits
_WALK_TOWERS = [(FieldTower(2, 2), 4, 6), (FieldTower(2, 3), 3, 6), (FieldTower(3, 2), 3, 6),
                (FieldTower(2, 4), 3, 6), (FieldTower(2, 5), 2, 7), (FieldTower(2, 6), 2, 7),
                (FieldTower(5, 2), 2, 5), (FieldTower(3, 3), 2, 5)]


@st.composite
def subcode_scan_code(draw):
    """A random code whose generator is the drawn rows themselves, not
    their RREF, so that the walk's first rows can already have full
    support."""
    t, kmax, nmax = draw(st.sampled_from(_WALK_TOWERS))
    n = draw(st.integers(1, nmax))
    k = draw(st.integers(1, min(n, kmax)))
    rows = _rows(draw, t, n, k)
    assume(linalg.rank(rows, n, t) == k)
    return LinearCode(t, n, rows)


@settings(max_examples=40, deadline=None)
@given(subcode_scan_code())
def test_subcode_walk_matches_reference(code):
    """For every r, min_closure returns the plain scan's weight and first
    minimising message basis, from at most [k r]_{q^m} leaves."""
    leaves = []
    real = linalg.rank_leaves

    def counted(tower, M, r, *args):
        for rank in real(tower, M, r, *args):
            leaves.append(r)
            yield rank

    with mock.patch.object(linalg, "rank_leaves", counted):
        for r in range(1, code.k + 1):
            leaves.clear()
            assert rankmetric.min_closure(code, r) == min_closure_reference(code, r)
            assert 0 < len(leaves) <= linalg.gaussian_binomial(code.k, r, code.tower.order)


# F_4 .. F_64, F_9 and F_27 with tables, and F_{2^17} above the table cap
_MULTIPLE_TOWERS = [FieldTower(2, m) for m in range(2, 7)] + [FieldTower(3, 2), FieldTower(3, 3),
                                                              FieldTower(2, 17)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_walk_multiples_match_slices(data):
    """Every precomputed multiple v·x of the subcode walk splits into the
    rows of matrix_rep(tower.scale(v, x)): it is the int whose w-bit field
    (i·n + j)·w holds digit i of entry j, w = 1 over F_2 and
    bit_length(2p − 2) + 1 for odd p, and each of its packed slices
    decodes to one row."""
    t = data.draw(st.sampled_from(_MULTIPLE_TOWERS))
    n = data.draw(st.integers(1, 7))
    x = data.draw(st.lists(st.integers(0, t.order - 1), min_size=n, max_size=n))
    pack, add, item, _ = rankmetric._walk_kernel(t, n)
    multiples = linalg._multiples(t, x, t.order, pack, add)
    assert len(multiples) == t.order
    values = (range(t.order) if t.order <= 64 else
              data.draw(st.lists(st.integers(0, t.order - 1), min_size=1, max_size=16)))
    w = 1 if t.p == 2 else (2 * t.p - 2).bit_length() + 1
    for v in values:
        rows = matrix_rep(t, t.scale(v, x))
        assert multiples[v] == sum(b << (i * n + j) * w for i, row in enumerate(rows)
                                   for j, b in enumerate(row))
        slices = item(multiples[v])
        assert [[s >> j * w & (1 << w) - 1 for j in range(n)] for s in slices] == rows


_DIGIT_TOWERS = [FieldTower(3, 2), FieldTower(5, 2), FieldTower(3, 3), FieldTower(7, 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_digit_kernel_matches_rank(data):
    """The odd-p walk kernel against plain arithmetic: its add is digit-wise
    addition mod p, its extend on packed slices gives linalg.rank of the
    digit rows while that rank is below the cap (and at least the cap
    otherwise), and the packed closure_dim is the rank of the stacked
    matrix_rep slices."""
    t = data.draw(st.sampled_from(_DIGIT_TOWERS))
    p, n = t.p, data.draw(st.integers(1, 7))
    w = (2 * p - 2).bit_length() + 1
    pack, add, item, extend = rankmetric._walk_kernel(t, n)
    vec = st.lists(st.integers(0, t.order - 1), min_size=n, max_size=n)
    a, b = data.draw(vec), data.draw(vec)
    digits = [[s >> j * w & (1 << w) - 1 for j in range(n)] for s in item(add(pack(a), pack(b)))]
    assert digits == [[(x + y) % p for x, y in zip(ra, rb)]
                      for ra, rb in zip(matrix_rep(t, a), matrix_rep(t, b))]

    # slice rows: F_p combinations of a few base rows, so that many depend
    digit_row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    base = data.draw(st.lists(digit_row, min_size=1, max_size=4))
    rows = [[sum(c * r[j] for c, r in zip(coeffs, base)) % p for j in range(n)]
            for coeffs in data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=len(base),
                                                      max_size=len(base)), max_size=8))]
    split = data.draw(st.integers(0, len(rows)))
    cap = data.draw(st.integers(1, n + 1))
    packed = [sum(d << j * w for j, d in enumerate(row)) for row in rows]
    length = len(extend(extend([], packed[:split], n + 1), packed[split:], cap))
    rank = linalg.rank(rows, n, t)
    assert length == rank if rank < cap else length >= cap

    vectors = data.draw(st.lists(vec, max_size=4))
    stacked = [s for row in vectors for s in matrix_rep(t, row)]
    assert rankmetric.closure_dim(t, vectors, n) == linalg.rank(stacked, n, t)


def test_walk_builds_multiples_only_for_free_columns(f16):
    """A walk builds the multiples of a generator row only when the row is a
    free column of some template: none for r = k or k = 1, and at most
    k·q^m in all."""
    built = []
    real = linalg._multiples

    def recorded(tower, row, order, *args):
        built.append(order)
        return real(tower, row, order, *args)

    big = FieldTower(2, 17)
    with mock.patch.object(linalg, "_multiples", recorded):
        for code in [random_full_rank(big, 3, 2, seed=0, label="no-multiples"),
                     LinearCode(big, 3, [[1, 2, 4]])]:
            assert rankmetric.min_closure(code, code.k)[1] == code.closure_dim
        assert built == []
        code = random_full_rank(f16, 4, 3, seed=0, label="free-columns")
        rankmetric.min_closure(code, 1)
        assert built == [16, 16]
