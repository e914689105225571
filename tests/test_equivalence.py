import itertools
import subprocess
import sys

import pytest

from rankcodes import (FieldTower, HypothesisError, LinearCode,
                       RankEquivalenceMap, build_c_opt, cartesian,
                       exact_product_test, gabidulin, grw_table_exact, linalg,
                       plotkin_variant, product_characterization, rank_weight,
                       reducible, reduction_equivalence_invariants, to_c_opt)
from rankcodes.codes import random_block_transform, transform_reduction
from rankcodes.equivalence import dual_alpha_basis

from conftest import random_full_rank, src_env


def _random_fq_invertible(tower, n, seed):
    rng = linalg.rng_stream(seed, "fq-invertible")
    while True:
        P = [[int(v) for v in rng.integers(0, tower.p, size=n)] for _ in range(n)]
        if linalg.rank(P, n, tower) == n:
            return P


# -- the map type ------------------------------------------------------------

def test_apply_identity_and_scaling(f4):
    ident = linalg.identity(3)
    mp = RankEquivalenceMap(f4, tuple(map(tuple, ident)), tuple(map(tuple, ident)), 1)
    assert mp.apply([1, 2, 3]) == [1, 2, 3]
    scaled = RankEquivalenceMap(f4, tuple(map(tuple, ident)), tuple(map(tuple, ident)), 3)
    for vec in itertools.product(range(4), repeat=3):
        assert rank_weight(f4, scaled.apply(list(vec))) == rank_weight(f4, list(vec))


def test_apply_permutation_preserves_weight(f4):
    ident = linalg.identity(3)
    perm = [ident[2], ident[0], ident[1]]
    mp = RankEquivalenceMap(f4, tuple(map(tuple, ident)), tuple(map(tuple, perm)), 1)
    rng = linalg.rng_stream(6, "perm")
    for _ in range(10):
        vec = [int(v) for v in rng.integers(0, 4, size=3)]
        out = mp.apply(vec)
        assert sorted(out) == sorted(vec)
        assert rank_weight(f4, out) == rank_weight(f4, vec)


def test_apply_membership_and_inverse(f4):
    sub = ((1, 0, 1), (0, 1, 0))
    mp = RankEquivalenceMap(f4, sub, ((1, 0), (0, 1)), beta=2)
    with pytest.raises(ValueError):
        mp.apply([1, 0, 0])  # outside the source space
    v = [3, 2, 3]  # 3*(1,0,1) + 2*(0,1,0)
    assert mp.inverse().apply(mp.apply(v)) == v


def test_composition_is_a_map_and_preserves_weight(f4):
    first = RankEquivalenceMap(f4, ((1, 0, 1), (0, 1, 0)), ((1, 0), (0, 1)), beta=2)
    second = RankEquivalenceMap(f4, ((1, 0), (0, 1)), ((0, 1, 1), (1, 0, 0)), beta=3)
    comp = second.compose(first)
    assert isinstance(comp, RankEquivalenceMap)
    assert comp.beta == f4.mul(2, 3)
    rng = linalg.rng_stream(13, "compose")
    for _ in range(15):
        coeffs = [int(v) for v in rng.integers(0, 4, size=2)]
        vec = linalg.vec_mat(coeffs, [list(r) for r in first.src_basis], 3, f4)
        assert comp.apply(vec) == second.apply(first.apply(vec))
        assert rank_weight(f4, comp.apply(vec)) == rank_weight(f4, vec)


def test_map_validation(f4):
    ident = tuple(map(tuple, linalg.identity(2)))
    with pytest.raises(ValueError):
        RankEquivalenceMap(f4, ident, ident, beta=0)
    with pytest.raises(ValueError):
        RankEquivalenceMap(f4, ((1, 2),), ((1, 0),), 1)  # entry outside F_q
    with pytest.raises(ValueError):
        RankEquivalenceMap(f4, ((1, 0), (1, 0)), ident, 1)  # dependent basis


# -- dual basis identities --------------------------------------------------------

def test_dual_alpha_basis_identities(f4, f8, f9):
    for tower in (f4, f8, f9):
        beta = dual_alpha_basis(tower)
        # independence over F_q via the coordinate matrix
        assert rank_weight(tower, list(beta)) == tower.m


# -- the construction onto the canonical optimal code -----------------------------

def test_to_c_opt_idempotent(f4):
    copt = build_c_opt(f4, 2).code()
    res = to_c_opt(copt)
    assert res.certified
    assert res.map.apply_code(copt).equals(res.c_opt.code())


_FORGED_CERTIFICATES = """
from rankcodes import FieldTower, LinearCode, build_c_opt, cartesian, linalg
from rankcodes import equivalence as eq, wiretap as wt

f4 = FieldTower(2, 2)
copt = build_c_opt(f4, 2)
eq.build_c_opt = lambda tower, k: cartesian([LinearCode(tower, 2, [[1, 0]])] * k)
wt.composition_search = lambda *args, **kwargs: wt.CompositionSearchResult(True, 0, (0, 0))
for check in (lambda: eq.to_c_opt(copt.code()),
              lambda: wt.leakage_report_for_reduction(copt, linalg.identity(4))):
    try:
        check()
    except AssertionError as exc:
        print("debug" if __debug__ else "optimized", "raised:", exc)
"""


def test_certificate_checks_survive_optimize():
    # a wrong canonical code and a certified bound below the leakage must
    # still raise when python -O strips assert statements
    res = subprocess.run([sys.executable, "-O", "-c", _FORGED_CERTIFICATES],
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "optimized raised: image of the generator must be the canonical code",
        "optimized raised: leakage 2 exceeds the certified bound 0",
    ]


def test_to_c_opt_recovers_from_scrambling(f4):
    for k in (1, 2):
        copt = build_c_opt(f4, k).code()
        P = _random_fq_invertible(f4, copt.n, seed=31 + k)
        scrambled = LinearCode(f4, copt.n, linalg.matmul(copt.G, P, f4))
        res = to_c_opt(scrambled)
        assert res.certified
        assert res.map.apply_code(scrambled).equals(build_c_opt(f4, k).code())


def test_to_c_opt_weight_preservation_scan(f4):
    copt = build_c_opt(f4, 2).code()
    P = _random_fq_invertible(f4, copt.n, seed=40)
    scrambled = LinearCode(f4, copt.n, linalg.matmul(copt.G, P, f4))
    res = to_c_opt(scrambled)
    # q^{mk} = 256 <= 10^4: full scan
    for x in scrambled.messages():
        c = scrambled.codeword(x)
        assert rank_weight(f4, list(c)) == rank_weight(f4, res.map.apply(list(c)))


def test_to_c_opt_recovers_from_full_equivalence(f4):
    # scramble with a base-field coordinate change AND a nonzero scalar:
    # still all-weights-maximal, still recovered exactly
    copt = build_c_opt(f4, 2).code()
    P = _random_fq_invertible(f4, copt.n, seed=55)
    beta = 3
    rows = [[f4.mul(beta, x) for x in row] for row in linalg.matmul(copt.G, P, f4)]
    moved = LinearCode(f4, copt.n, rows)
    res = to_c_opt(moved)
    assert res.certified
    assert res.map.apply_code(moved).equals(build_c_opt(f4, 2).code())


def test_to_c_opt_ternary_field(f9):
    copt = build_c_opt(f9, 2).code()
    table, _ = grw_table_exact(copt)
    assert table == [2, 4]
    P = _random_fq_invertible(f9, copt.n, seed=66)
    scrambled = LinearCode(f9, copt.n, linalg.matmul(copt.G, P, f9))
    res = to_c_opt(scrambled)
    assert res.certified


def test_to_c_opt_refuses_wrong_table(f16):
    gab = gabidulin(f16, 4, 2)  # weights (3, 4), not (4, 8)
    with pytest.raises(HypothesisError):
        to_c_opt(gab)


def test_to_c_opt_nonidentity_alpha_basis():
    tower = FieldTower(2, 2, basis=[[1, 1], [0, 1]])
    copt = build_c_opt(tower, 2).code()
    res = to_c_opt(copt)
    assert res.certified


# -- product characterizations ------------------------------------------------------

def test_product_characterization_cartesian(f4):
    R = cartesian([gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)])
    parts = [R.row_component(i) for i in range(R.l)]
    res = product_characterization(parts)
    assert res.equivalent and res.deficiency == 0
    assert res.witness is not None
    # weight preservation of the witness on the code
    code = R.code()
    rng = linalg.rng_stream(2, "charprod")
    for _ in range(20):
        x = [int(v) for v in rng.integers(0, 4, size=code.k)]
        c = list(code.codeword(x))
        assert rank_weight(f4, c) == rank_weight(f4, res.witness.apply(c))


def test_product_characterization_plotkin_example(f8):
    # the scaled-coupling construction beats the product of its inputs, yet
    # its row-component closures still split, so that decomposition reads
    # as a product; a skewed decomposition with overlapping closures does not
    y = f8.from_coeffs((0, 1, 0))
    c1 = LinearCode(f8, 3, [[1, 0, 0]])
    c2 = LinearCode(f8, 3, [[0, y, f8.frobenius(y, 1)]])
    R = plotkin_variant(c1, c2, "alpha", alpha=y)
    parts = [R.row_component(i) for i in range(2)]
    res = product_characterization(parts)
    assert res.equivalent
    # the witness product is NOT the product of the inputs: its distance is 2
    from rankcodes import grw_exact_subcodes
    assert grw_exact_subcodes(res.product.code(), 1) == 2
    assert grw_exact_subcodes(cartesian([c1, c2]).code(), 1) == 1
    g = R.generator()
    skew = [LinearCode(f8, 6, [g[0]]),
            LinearCode(f8, 6, [[f8.add(a, b) for a, b in zip(g[0], g[1])]])]
    res2 = product_characterization(skew)
    assert not res2.equivalent
    assert res2.deficiency == sum(res2.closure_dims) - res2.total_closure_dim == 1
    assert res2.witness is None


def test_product_characterization_validates_direct_sum(f4):
    c = gabidulin(f4, 2, 1)
    with pytest.raises(ValueError):
        product_characterization([c, c])


# -- exact product test ----------------------------------------------------------------

def test_exact_product_blockdiag(f4):
    R = cartesian([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)])
    assert exact_product_test(R)


def test_exact_product_rows_inside_component(f4):
    c1 = gabidulin(f4, 2, 1)
    c2 = gabidulin(f4, 2, 1)
    inside = {(0, 1): [list(c2.G[0])]}  # coupling row inside the main component
    R = reducible([c1, c2], off_blocks=inside)
    assert exact_product_test(R)
    assert not R.is_cartesian()


def test_exact_product_rows_outside_component(f4):
    c1 = gabidulin(f4, 2, 1)
    c2 = gabidulin(f4, 2, 1)
    dualrow = c2.dual().G[0]  # independent from C_2, so membership fails
    R = reducible([c1, c2], off_blocks={(0, 1): [list(dualrow)]})
    assert not exact_product_test(R)


# -- reduction equivalence invariants ------------------------------------------------

def _identity_matrix(n):
    return linalg.identity(n)


def test_reduction_equivalence_identity(f4):
    R = reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)], seed=3)
    rep = reduction_equivalence_invariants(R, R, _identity_matrix(R.n))
    assert rep.applicable and rep.triangular
    assert all(rep.mains_equivalent) and all(rep.rows_equivalent)


def test_reduction_equivalence_blockdiag_map(f4):
    R = reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)], seed=5)
    A = linalg.zeros(4, 4)
    P1 = _random_fq_invertible(f4, 2, seed=8)
    P2 = _random_fq_invertible(f4, 2, seed=9)
    for i in range(2):
        for j in range(2):
            A[i][j] = P1[i][j]
            A[2 + i][2 + j] = P2[i][j]
    G2 = linalg.matmul(R.generator(), A, f4)
    from rankcodes.codes import Reduction
    R2 = Reduction.from_generator(f4, R.lengths, R.dims, G2)
    rep = reduction_equivalence_invariants(R, R2, A)
    assert rep.applicable and rep.triangular
    assert all(rep.mains_equivalent) and all(rep.rows_equivalent)


def test_reduction_equivalence_refuses_degenerate_main(f4):
    degenerate = LinearCode(f4, 2, [[1, 1]])  # closure dim 1 < 2
    R = reducible([degenerate, gabidulin(f4, 2, 1)], fill="zero")
    rep = reduction_equivalence_invariants(R, R, _identity_matrix(R.n))
    assert not rep.applicable
    assert rep.degenerate_mains == [0]


def test_reduction_equivalence_requires_row_match(f4):
    R = reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)], seed=1)
    other = reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)], seed=2)
    with pytest.raises(HypothesisError):
        reduction_equivalence_invariants(R, other, _identity_matrix(R.n))
