import itertools
import subprocess
import sys

import pytest

from rankcodes import (HypothesisError, LinearCode,
                       RankEquivalenceMap, Reduction, build_c_opt, cartesian,
                       exact_product_test, format_code_file, gabidulin,
                       grw_table_exact, linalg, plotkin_variant,
                       product_characterization, rank_weight, to_c_opt)
from rankcodes.equivalence import dual_alpha_basis
from rankcodes.rankmetric import min_closure

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
    # the inverse swaps the paired bases and inverts the scalar
    inverse = RankEquivalenceMap(f4, mp.dst_basis, mp.src_basis, f4.inv(mp.beta))
    assert inverse.apply(mp.apply(v)) == v


def test_composition_is_a_map_and_preserves_weight(f4):
    # a composite of rank equivalences is again one in paired-basis form:
    # it sends each F_q source vector to the combined scalar times an F_q
    # vector, which the map's own validation checks
    first = RankEquivalenceMap(f4, ((1, 0, 1), (0, 1, 0)), ((1, 0), (0, 1)), beta=2)
    second = RankEquivalenceMap(f4, ((1, 0), (0, 1)), ((0, 1, 1), (1, 0, 0)), beta=3)
    beta = f4.mul(2, 3)
    dst = tuple(tuple(f4.scale(f4.inv(beta), second.apply(first.apply(list(v)))))
                for v in first.src_basis)
    comp = RankEquivalenceMap(f4, first.src_basis, dst, beta)
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
from rankcodes import FieldTower, LinearCode, build_c_opt, cartesian
from rankcodes import equivalence as eq, wiretap as wt
from rankcodes.cli import main

copt = build_c_opt(FieldTower(2, 2), 2)
eq.build_c_opt = lambda tower, k: cartesian([LinearCode(tower, 2, [[1, 0]])] * k)
wt.composition_search = lambda *args, **kwargs: wt.CompositionSearchResult(True, 0, (0, 0))
try:
    eq.to_c_opt(copt.code())
except AssertionError as exc:
    print("debug" if __debug__ else "optimized", "raised:", exc)
for argv in (["equiv", "to-opt", "--input", "opt.code"],
             ["wiretap", "certify", "--input", "opt.code", "--wiretap", "full.wiretap"]):
    print(" ".join(argv[:2]), "exit", main(argv))
"""


def test_certificate_checks_survive_optimize(f4, tmp_path):
    # a wrong canonical code and a certified bound below the leakage must
    # still raise when python -O strips assert statements, and the CLI
    # reports either one as a failed self-check: exit 3, no traceback
    (tmp_path / "opt.code").write_text(format_code_file(build_c_opt(f4, 2)))
    taps = ["row " + " ".join("1,0" if i == j else "0,0" for j in range(4)) for i in range(4)]
    (tmp_path / "full.wiretap").write_text("\n".join(["wiretap mu=4"] + taps) + "\n")
    res = subprocess.run([sys.executable, "-O", "-c", _FORGED_CERTIFICATES], cwd=tmp_path,
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "optimized raised: image of the generator must be the canonical code",
        "equiv to-opt exit 3",
        "wiretap certify exit 3",
    ]
    assert res.stderr.splitlines() == [
        "error: image of the generator must be the canonical code",
        "error: leakage 2 exceeds the certified bound 0",
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
    for c in scrambled.codewords():
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
    assert min_closure(res.product.code(), 1)[1] == 2
    assert min_closure(cartesian([c1, c2]).code(), 1)[1] == 1
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
    # coupling row inside the main component
    R = Reduction(f4, [2, 2], [1, 1], [c1.G[0] + c2.G[0], (0, 0) + c2.G[0]])
    assert exact_product_test(R)
    assert not R.is_cartesian()


def test_exact_product_rows_outside_component(f4):
    c1 = gabidulin(f4, 2, 1)
    c2 = gabidulin(f4, 2, 1)
    dualrow = c2.dual().G[0]  # independent from C_2, so membership fails
    R = Reduction(f4, [2, 2], [1, 1], [c1.G[0] + dualrow, (0, 0) + c2.G[0]])
    assert not exact_product_test(R)
