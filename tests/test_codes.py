import itertools
import subprocess
import sys

import pytest
from hypothesis import example, given, settings

from rankcodes import (BudgetError, CodeFileError, FieldTower, LinearCode,
                       Reduction, build_c_opt, build_mrd_reducible, cartesian,
                       dual_reduction, exact_reduction_for_d1, format_code_file,
                       gabidulin, grw_table_exact, linalg,
                       mrd_plan, parse_code_file, plotkin_variant,
                       reducible, transform_reduction, transposed_gabidulin)
from rankcodes.codes import random_block_transform
from rankcodes.rankmetric import min_closure

from conftest import random_full_rank, random_reduction, src_env

F4 = FieldTower(2, 2)


# -- gabidulin ----------------------------------------------------------

def test_gabidulin_full_and_trivial(f4):
    full = gabidulin(f4, 2, 2)
    assert full.k == 2
    assert min_closure(full, 1)[1] == 1  # Singleton with k=n
    t1 = FieldTower(2, 1)
    one = gabidulin(t1, 1, 1, points=[1])
    assert one.G == ((1,),)


def test_gabidulin_grw_table(f16):
    code = gabidulin(f16, 4, 2)
    table, _ = grw_table_exact(code)
    assert table == [3, 4]  # n - k + r


def test_gabidulin_validation(f4):
    with pytest.raises(ValueError):
        gabidulin(f4, 3, 1)  # n > m
    with pytest.raises(ValueError):
        gabidulin(f4, 2, 1, points=[1, 1])  # dependent points


# -- cartesian / reducible ---------------------------------------------

def test_cartesian_single_factor_is_same_code(f4):
    c = random_full_rank(f4, 3, 2, seed=4)
    R = cartesian([c])
    assert R.code().equals(c)


def test_cartesian_of_full_spaces_is_full(f4):
    full = gabidulin(f4, 2, 2)
    R = cartesian([full, full])
    assert R.code().k == 4 == R.n


def test_cartesian_gives_c_opt_instance(f4):
    one_dim = LinearCode(f4, 2, [list(f4.alphas)])
    R = cartesian([one_dim, one_dim])
    assert R.code().equals(build_c_opt(f4, 2).code())


def test_reducible_zero_fill_is_cartesian(f4):
    mains = [random_full_rank(f4, 2, 1, seed=5), random_full_rank(f4, 3, 2, seed=6)]
    R = cartesian(mains)
    assert R.is_cartesian()
    assert R.code().equals(cartesian(mains).code())


def test_reducible_seeded_determinism(f8):
    mains = [gabidulin(f8, 3, 2), gabidulin(f8, 2, 1)]
    R1 = reducible(mains, seed=42)
    R2 = reducible(mains, seed=42)
    R3 = reducible(mains, seed=43)
    assert R1.generator() == R2.generator()
    assert R1.generator() != R3.generator()
    assert not R1.is_cartesian()


def test_reduction_components(f4):
    mains = [gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)]
    R = reducible(mains, seed=1)
    assert R.main_component(0).equals(mains[0])
    assert R.main_component(1).equals(mains[1])
    row0 = R.row_component(0)
    assert row0.n == 4 and row0.k == 1
    assert all(x == 0 for x in R.row_component(1).G[0][:2])
    col1 = R.column_component(1)
    assert col1.n == 2 and col1.k >= mains[1].k
    with pytest.raises(ValueError):
        Reduction(f4, [2, 2], [1, 1], [[0, 0, 0, 0], [0, 0, 1, 0]])  # rank-deficient diagonal


def test_reduction_names_the_row_left_of_its_block(f4):
    """The zero pattern is checked once, in the constructor, and the error
    names the generator row that breaks it; a code file reports that
    row's line from the error's row index."""
    rows = [[1, 0, 0, 0], [0, 1, 2, 0], [1, 0, 0, 1]]
    with pytest.raises(ValueError, match="^generator row 2 violates the zero pattern: "
                                         "nonzero left of diagonal block 2$") as err:
        Reduction(f4, [1, 2, 1], [1, 1, 1], rows)
    assert err.value.row == 2
    text = ("field p=2 m=2 modulus=1,1,1\ncode n=4 k=3\nblocks n=1,2,1 k=1,1,1\n"
            "row 1,0 0,0 0,0 0,0\n# the next row is fine\nrow 0,0 1,0 0,1 0,0\n"
            "row 1,0 0,0 0,0 1,0\n")
    with pytest.raises(CodeFileError, match="^line 7: generator row 2 violates") as err:
        parse_code_file(text)
    assert err.value.lineno == 7


# -- duals ---------------------------------------------------------------

def test_dual_examples(f4):
    full = gabidulin(f4, 2, 2)
    assert full.dual().k == 0
    c = random_full_rank(f4, 4, 2, seed=7)
    assert c.dual().dual().equals(c)
    t1 = FieldTower(2, 1)
    assert LinearCode(t1, 3, [[1, 1, 1]]).dual().k == 2


def test_cached_dual_reads_its_parity_check_from_the_rref(f4, f9):
    """The dual is built once, and its Hᵀ (C's RREF transposed) is the one a
    fresh code on its generator computes from its own kernel."""
    for code in [random_full_rank(f4, 5, 2, seed=1), random_full_rank(f9, 4, 3, seed=2),
                 LinearCode(f4, 3, []), gabidulin(f4, 2, 2)]:
        dual = code.dual()
        assert code.dual() is dual and dual.dual() is code
        fresh = LinearCode(code.tower, code.n, dual.G)
        assert dual.parity_t() == fresh.parity_t()
        assert fresh.dual().equals(code)
        assert all(not any(linalg.vec_mat(g, dual.parity_t(), code.k, code.tower))
                   for g in dual.G)


def test_intersection_dim_examples(f4):
    F2 = FieldTower(2, 1)
    U = [[1, 0, 0], [0, 1, 0]]
    code = LinearCode(f4, 3, U)
    assert code.intersection_dim(U) == 2
    assert code.intersection_dim([[0, 0, 1]]) == 0
    assert code.intersection_dim([]) == 0
    assert LinearCode(F2, 3, U).intersection_dim([[1, 1, 0]]) == 1
    with pytest.raises(ValueError):
        LinearCode(f4, 3, [[1, 0, 0]]).intersection_dim([[1, 0]])


def test_intersection_and_membership_for_zero_and_full_codes(f4):
    V = [[1, 2, 0], [0, 3, 1], [1, 1, 1]]
    zero = LinearCode(f4, 3, [])
    assert zero.intersection_dim(V) == 0
    assert zero.contains_vector([0, 0, 0]) and not zero.contains_vector([0, 1, 0])
    assert zero.dual().equals(LinearCode(f4, 3, linalg.identity(3)))
    full = LinearCode(f4, 3, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    assert full.intersection_dim(V) == linalg.rank(V, 3, f4) == 2
    assert full.contains_vector([3, 2, 1])
    assert full.dual().k == 0


def test_contains_vector(f4):
    code = LinearCode(f4, 3, [[1, 2, 0], [0, 1, 1]])
    assert code.contains_vector(code.codeword([3, 1]))
    assert not code.contains_vector([0, 0, 1])
    for bad in ([1, 2], [1, 2, 0, 0]):
        with pytest.raises(ValueError):
            code.contains_vector(bad)


def _reversed_dual(R):
    """C^⊥ of a reduction with its columns in reversed block order."""
    order = [R.col_offset(i) + t for i in reversed(range(R.l)) for t in range(R.lengths[i])]
    return LinearCode(R.tower, R.n, [[row[c] for c in order] for row in R.code().dual().G])


def test_structured_dual(f8):
    mains = [gabidulin(f8, 3, 1), gabidulin(f8, 2, 1), gabidulin(f8, 3, 2)]
    R = reducible(mains, seed=11)
    D = dual_reduction(R)
    assert isinstance(D, Reduction)
    assert D.lengths == (3, 2, 3) and D.dims == (1, 1, 2)
    assert D.code().equals(_reversed_dual(R))
    for i in range(3):
        assert D.main_component(2 - i).equals(mains[i].dual())


# -- the n > m MRD family -------------------------------------------------

def test_mrd_plan_m2_n4_k2(f4):
    p = mrd_plan(f4, 4, 2)
    assert (p.l, p.t, p.kprime, p.s) == (2, 0, 1, 0)
    assert p.components == ((2, 1), (2, 1))
    assert p.case == 1 and p.branch == 1
    assert p.d1_exact == 2 and p.mrd and p.verdict == "mrd"


def test_mrd_plan_m2_n3_k1(f4):
    p = mrd_plan(f4, 3, 1)
    assert (p.l, p.t, p.kprime, p.s, p.b, p.tprime) == (2, 1, 1, 1, 0, 1)
    assert p.case == 2
    assert p.components == ((2, 1), (1, 0))
    assert p.branch == 1 and p.d1_exact == 2 == p.m - p.a - p.kprime + 1
    assert not p.mrd


def test_mrd_plan_m2_n3_k2(f4):
    p = mrd_plan(f4, 3, 2)
    assert (p.l, p.t, p.kprime, p.s) == (2, 1, 1, 0)
    assert p.case == 3 and p.branch == 1  # t*k' = 1 > m*s = 0
    assert p.d1_exact == 1
    # confirmed with the exact oracle on a seeded build below


def test_mrd_plan_identities_over_grid():
    for m, p in [(2, FieldTower(2, 2)), (3, FieldTower(2, 3))]:
        for n in range(m + 1, 7):
            for k in range(1, n + 1):
                plan = mrd_plan(p, n, k)
                assert plan.l * plan.m - plan.t == n
                assert plan.l * plan.kprime - plan.s == k
                assert 0 < plan.tprime <= plan.l
                assert sum(L for L, _ in plan.components) == n
                assert sum(d for _, d in plan.components) == k


def test_mrd_plan_rejects(f4):
    with pytest.raises(ValueError):
        mrd_plan(f4, 2, 1)  # n <= m
    with pytest.raises(ValueError):
        mrd_plan(f4, 4, 5)


def test_build_mrd_reducible_exact_d1(f4):
    for (n, k), expect in [((4, 2), 2), ((3, 1), 2), ((3, 2), 1)]:
        plan = mrd_plan(f4, n, k)
        R = build_mrd_reducible(f4, plan, seed=13)
        assert min_closure(R.code(), 1)[1] == expect


def test_build_full_space_plan(f4):
    plan = mrd_plan(f4, 4, 4)
    R = build_mrd_reducible(f4, plan, seed=1)
    assert R.code().k == 4
    assert min_closure(R.code(), 1)[1] == 1


def test_build_d1_meets_case_bound_for_100_seeds(f4, f8):
    # the construction's first weight never drops below its case bound,
    # whatever the coupling blocks turn out to be
    for tower, n, k in [(f4, 3, 2), (f4, 4, 2), (f8, 5, 3)]:
        plan = mrd_plan(tower, n, k)
        for seed in range(100):
            R = build_mrd_reducible(tower, plan, seed=seed)
            assert min_closure(R.code(), 1)[1] >= plan.d1_case_bound


# -- c_opt ----------------------------------------------------------------

def test_c_opt_trivial():
    t1 = FieldTower(2, 1)
    assert build_c_opt(t1, 1).code().G == ((1,),)


def test_c_opt_table_and_degeneracy(f4):
    R = build_c_opt(f4, 2)
    table, _ = grw_table_exact(R.code())
    assert table == [2, 4]
    assert table[-1] == R.n  # non-degenerate: d_{R,k} = n


# -- transposed gabidulin -------------------------------------------------

def test_transposed_gabidulin_full_source(f4):
    tg = transposed_gabidulin(f4, 3, 2)
    mats = tg.matrices()
    assert len(mats) == 64 == tg.size
    seen = {tuple(x for row in M for x in row) for M in mats}
    assert len(seen) == 64  # every 2x3 matrix over F_2: the full space
    # exhaustive rank scan: min distance 1 (declared m - k + 1 = 1)
    scanned = min(linalg.rank(M, 3, f4) for M in mats if any(any(r) for r in M))
    assert scanned == 1 == tg.min_rank_distance


def test_transposed_gabidulin_k1(f4):
    tg = transposed_gabidulin(f4, 3, 1)
    assert tg.min_rank_distance == 2
    mats = tg.matrices()
    assert len(mats) == 8
    ranks = [linalg.rank(M, 3, f4) for M in mats if any(any(r) for r in M)]
    assert min(ranks) == 2  # transposition preserves rank


def test_transposed_gabidulin_budget(f4):
    tg = transposed_gabidulin(f4, 3, 2)
    with pytest.raises(BudgetError):
        tg.matrices(budget=10)


# -- plotkin variants ------------------------------------------------------

@pytest.fixture(scope="module")
def plotkin_codes(f8):
    y = f8.from_coeffs((0, 1, 0))
    c2 = LinearCode(f8, 3, [[0, y, f8.frobenius(y, 1)]])
    c1 = LinearCode(f8, 3, [[1, 0, 0]])
    c1_alpha = LinearCode(f8, 3, [[y, 0, 0]])
    return y, c1, c1_alpha, c2


def test_plotkin_alpha_example(f8, plotkin_codes):
    y, c1, _, c2 = plotkin_codes
    assert min_closure(cartesian([c1, c2]).code(), 1)[1] == 1
    R = plotkin_variant(c1, c2, "alpha", alpha=y)
    assert R.n == 6 and R.k == 2
    assert min_closure(R.code(), 1)[1] == 2


def test_plotkin_frobenius_example(f8, plotkin_codes):
    _, _, c1_alpha, c2 = plotkin_codes
    R = plotkin_variant(c1_alpha, c2, "frobenius", frob_power=1)
    assert min_closure(R.code(), 1)[1] == 2


def test_plotkin_uv_is_cartesian_for_rank(f8, plotkin_codes):
    from rankcodes import product_characterization
    _, c1, _, c2 = plotkin_codes
    R = plotkin_variant(c1, c2, "uv")
    parts = [R.row_component(i) for i in range(2)]
    assert product_characterization(parts).equivalent


def test_plotkin_rejects_base_field_alpha(f8, plotkin_codes):
    _, c1, _, c2 = plotkin_codes
    with pytest.raises(ValueError):
        plotkin_variant(c1, c2, "alpha", alpha=1)
    with pytest.raises(ValueError):
        plotkin_variant(c1, c2, "frobenius", frob_power=0)
    with pytest.raises(ValueError):
        plotkin_variant(c1, c2, "nope")


# -- reduction rewrites -----------------------------------------------------

def test_exact_reduction_for_d1_cartesian_unchanged(f4):
    mains = [gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)]
    R = cartesian(mains)
    out = exact_reduction_for_d1(R)
    assert out.code().equals(R.code())
    d1 = min_closure(R.code(), 1)[1]
    assert min(min_closure(out.row_component(i), 1)[1] for i in range(out.l)) == d1


def test_exact_reduction_for_d1_random(f8):
    mains = [gabidulin(f8, 3, 2), gabidulin(f8, 2, 1)]
    for seed in range(6):
        R = reducible(mains, seed=seed)
        out = exact_reduction_for_d1(R)
        assert out.code().equals(R.code())
        assert out.lengths == R.lengths and out.dims == R.dims
        d1 = min_closure(R.code(), 1)[1]
        assert min(min_closure(out.row_component(i), 1)[1] for i in range(out.l)) == d1


def test_exact_reduction_for_d1_one_block_or_no_rows(f4):
    one = cartesian([gabidulin(f4, 2, 1)])
    empty = cartesian([gabidulin(f4, 2, 0), gabidulin(f4, 2, 0)])
    for R in (one, empty):
        assert exact_reduction_for_d1(R, budget=0) is R  # nothing is enumerated


def test_exact_reduction_for_d1_zero_middle_block(f4):
    """A minimum-weight message nonzero in groups 0 and 2 but zero in group
    1: only row 0 changes, by the group-2 part of the message, and the
    codeword lands in row component 0."""
    R = reducible([gabidulin(f4, 1, 1), gabidulin(f4, 2, 1), gabidulin(f4, 1, 1)], seed=22)
    x = min_closure(R.code(), 1)[0][0]
    assert x[0] and not x[1] and x[2]
    out = exact_reduction_for_d1(R)
    G = R.generator()
    assert out.generator() == [f4.axpy(G[0], f4.mul(f4.inv(x[0]), x[2]), G[2])] + G[1:]
    assert out.code().equals(R.code())
    assert out.row_component(0).contains_vector(R.code().codeword(x))


def test_exact_reduction_for_d1_odd_characteristic():
    """Over F_27 the tail is added with coefficients x_tail/x_tau, not
    their negatives, so the minimum-weight codeword is in a row component
    and the row components attain d_1."""
    t = FieldTower(3, 3)
    R = reducible([gabidulin(t, 3, 2), gabidulin(t, 3, 1)], seed=0)
    x, d1 = min_closure(R.code(), 1)
    out = exact_reduction_for_d1(R)
    assert out.code().equals(R.code())
    assert any(out.row_component(i).contains_vector(R.code().codeword(x[0])) for i in range(2))
    assert min(min_closure(out.row_component(i), 1)[1] for i in range(2)) == d1 == 2


_FORGED = """
from rankcodes import FieldTower, codes, gabidulin, mrd_plan

f8 = FieldTower(2, 3)
real = codes.reducible
codes.reducible = lambda mains, **kw: real(mains[:-1], **kw)  # one component short
try:
    codes.build_mrd_reducible(f8, mrd_plan(f8, 5, 2), seed=1)
except AssertionError as exc:
    print("debug" if __debug__ else "optimized", "raised:", exc)
codes.reducible = real
mains = [gabidulin(f8, 3, 2), gabidulin(f8, 2, 1)]
R, other = real(mains, seed=0), codes.cartesian(mains)
codes.Reduction = lambda *args: other  # the rewrite builds a different code
try:
    codes.exact_reduction_for_d1(R)
except AssertionError as exc:
    print("debug" if __debug__ else "optimized", "raised:", exc)
"""


def test_reduction_self_checks_survive_optimize():
    # under -O a bare assert would vanish and the forged results would be printed
    res = subprocess.run([sys.executable, "-O", "-c", _FORGED],
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "optimized raised: built an [3, 1] code from an [5, 2] plan",
        "optimized raised: the rewritten reduction generates a different code"]


def test_transform_reduction_identity_and_invariants(f4):
    mains = [gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)]
    R = reducible(mains, seed=2)
    same = transform_reduction(R, {})
    assert same.generator() == R.generator()
    A = random_block_transform(R, seed=77)
    out = transform_reduction(R, A)
    assert out.code().equals(R.code())
    for i in range(R.l):
        assert out.main_component(i).equals(R.main_component(i))
        assert out.column_component(i).equals(R.column_component(i))
    with pytest.raises(ValueError):
        transform_reduction(R, {(0, 0): [[0]]})  # singular diagonal


def test_transform_reduction_with_a_zero_dimension_block(f8):
    R = reducible([gabidulin(f8, 2, 1), gabidulin(f8, 2, 0), gabidulin(f8, 3, 2)], seed=5)
    out = transform_reduction(R, random_block_transform(R, seed=8))
    assert out.dims == (1, 0, 2) and out.generator() != R.generator()
    assert out.code().equals(R.code())
    for i in range(R.l):
        assert out.main_component(i).equals(R.main_component(i))
        assert out.column_component(i).equals(R.column_component(i))


def test_transform_preserves_bound_tables(f4):
    from rankcodes import grw_bounds_reducible
    mains = [gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)]
    R = reducible(mains, seed=3)
    out = transform_reduction(R, random_block_transform(R, seed=4))
    rep1 = grw_bounds_reducible(R)
    rep2 = grw_bounds_reducible(out)
    assert [e.lower for e in rep1.entries] == [e.lower for e in rep2.entries]


def test_three_block_reduction_machinery(f8):
    mains = [gabidulin(f8, 2, 1), gabidulin(f8, 2, 2), gabidulin(f8, 3, 1)]
    for seed in range(3):
        R = reducible(mains, seed=seed)
        out = exact_reduction_for_d1(R)
        assert out.code().equals(R.code())
        d1 = min_closure(R.code(), 1)[1]
        assert min(min_closure(out.row_component(i), 1)[1] for i in range(3)) == d1
    R = reducible(mains, seed=9)
    D = dual_reduction(R)
    assert D.code().equals(_reversed_dual(R))
    for i in range(3):
        assert D.main_component(2 - i).equals(mains[i].dual())


def test_dual_reduction_with_full_dimension_block(f4):
    R = reducible([gabidulin(f4, 2, 2), gabidulin(f4, 2, 1)], seed=3)
    D = dual_reduction(R)
    assert D.dims == (1, 0)  # n_i − k_i rows, blocks reversed
    assert D.code().equals(_reversed_dual(R))


def test_constructed_codes_duality_invariants(f4, f8):
    plan = mrd_plan(f8, 5, 3)
    built = [
        gabidulin(f4, 2, 1),
        gabidulin(f8, 3, 2),
        build_c_opt(f4, 2).code(),
        build_mrd_reducible(f8, plan, seed=2).code(),
        reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)], seed=3).code(),
    ]
    for code in built:
        assert linalg.rank(code.G, code.n, code.tower) == code.k
        dual = code.dual()
        assert dual.k == code.n - code.k
        assert dual.dual().equals(code)


# -- file format -------------------------------------------------------------

def test_code_file_roundtrip_plain(f9):
    code = random_full_rank(f9, 4, 2, seed=15)
    text = format_code_file(code)
    back = parse_code_file(text)
    assert isinstance(back, LinearCode)
    assert back.equals(code) and back.G == code.G


def test_code_file_roundtrip_reduction(f8):
    R = reducible([gabidulin(f8, 3, 2), gabidulin(f8, 2, 1)], seed=8)
    text = format_code_file(R)
    back = parse_code_file(text)
    assert isinstance(back, Reduction)
    assert back.lengths == R.lengths and back.dims == R.dims
    assert back.generator() == R.generator()
    assert format_code_file(back) == text


@settings(max_examples=40, deadline=None)
@given(random_reduction())
@example(reducible([gabidulin(F4, 1, 0), gabidulin(F4, 2, 1), gabidulin(F4, 2, 0)], seed=1))
def test_code_file_round_trips_random_reductions(R):
    back = parse_code_file(format_code_file(R))
    assert isinstance(back, Reduction)
    assert (back.lengths, back.dims, back.generator()) == (R.lengths, R.dims, R.generator())


def test_code_file_comments_and_errors(f4):
    good = (
        "# a comment\n"
        "field p=2 m=2 modulus=1,1,1\n"
        "code n=2 k=1   # trailing comment\n"
        "row 1,0 0,1\n"
    )
    code = parse_code_file(good)
    assert code.k == 1 and code.n == 2

    cases = [
        ("field p=2 m=2\ncode n=2 k=1\nrow 1,0 0,1\n", "field"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=2 k=1\nrow 1,0\n", "row has 1"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=2 k=1\nrow 1,2 0,1\n", "reduced"),
        ("field p=2 m=2 modulus=1,2,1\ncode n=2 k=1\nrow 1,0 0,1\n", "reduced"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=2 k=1\nrow 0,0 0,0\n", "rank"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=2 k=2\nrow 1,0 0,0\n", "expected 2 rows"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=2 k=1\nrow 1,0 0,0\nrow 0,0 1,0\n", "trailing"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=4 k=2\nblocks n=2,2 k=1,1\n"
         "row 1,0 0,0 0,0 0,0\nrow 1,0 0,0 1,0 0,0\n", "zero pattern"),
        ("field p=2 m=2 modulus=1,1,1\ncode n=4 k=2\nblocks n=2,3 k=1,1\n"
         "row 1,0 0,0 0,0 0,0\nrow 0,0 0,0 1,0 0,0\n", "sum to"),
    ]
    for text, fragment in cases:
        with pytest.raises(CodeFileError) as err:
            parse_code_file(text)
        assert fragment in str(err.value), f"{fragment!r} not in {err.value}"
        assert err.value.lineno >= 1
