"""Acceptance suite: every criterion is exact arithmetic, no tolerances.

Each test prints one PASS/FAIL line (visible with -s or on failure); the
stated runtime limits are asserted where the criterion carries one.
"""

import functools
import itertools
import time

import pytest

from rankcodes import (FieldTower, LinearCode, build_c_opt, build_mrd_reducible,
                       cartesian, composition_search, gabidulin,
                       grw_bounds_reducible, grw_estimates_mrd,
                       grw_table_exact, leakage_exact, linalg, mrd_plan,
                       mrd_rank, plotkin_variant, product_characterization,
                       reducible, singleton_check, to_c_opt)
from rankcodes.codes import dual_reduction, random_block_transform, transform_reduction, exact_reduction_for_d1
from rankcodes import grw as grw_mod
from rankcodes.grw import mrd_rank_from_table
from rankcodes.rankmetric import GaloisClosedSpace, min_closure
from rankcodes.wiretap import leakage_joint_enumeration

from conftest import random_full_rank, stronger_security_bound

F2 = FieldTower(2, 1)
F4 = FieldTower(2, 2)
F8 = FieldTower(2, 3)
F16 = FieldTower(2, 4)
F9 = FieldTower(3, 2)
F27 = FieldTower(3, 3)


def _report(tag):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {tag}: FAIL")
                raise
            print(f"ACCEPTANCE {tag}: PASS")
        return wrapper
    return deco


# -- 1: Gabidulin weight tables ------------------------------------------------

@_report("1 gabidulin-grw")
def test_criterion_1_gabidulin_tables():
    for k in (1, 2, 3):
        start = time.monotonic()
        code = gabidulin(F16, 4, k)
        table, _ = grw_table_exact(code)
        assert table == [4 - k + r for r in range(1, k + 1)]
        assert time.monotonic() - start < 60


# -- 2: the all-weights-maximal family ------------------------------------------

@_report("2 c-opt")
def test_criterion_2_c_opt():
    start = time.monotonic()
    for k in (1, 2, 3):
        copt = build_c_opt(F4, k).code()
        table, _ = grw_table_exact(copt)
        assert table == [2 * r for r in range(1, k + 1)]
        assert table[-1] == copt.n  # not rank degenerate
        rng = linalg.rng_stream(100 + k, "accept-scramble")
        n = copt.n
        while True:
            P = [[int(v) for v in rng.integers(0, 2, size=n)] for _ in range(n)]
            if linalg.rank(P, n, F4) == n:
                break
        scrambled = LinearCode(F4, n, linalg.matmul(copt.G, P, F4))
        res = to_c_opt(scrambled)
        assert res.certified
        assert res.map.apply_code(scrambled).equals(build_c_opt(F4, k).code())
    assert time.monotonic() - start < 120


# -- 3: the two oracles agree ----------------------------------------------------

@_report("3 oracle-equivalence")
def test_criterion_3_oracle_equivalence():
    towers = {(2, 2): F4, (2, 3): F8, (3, 2): F9, (3, 3): F27}
    count = 0
    for seed in range(50):
        rng = linalg.rng_stream(3000 + seed, "accept-oracle")
        p = (2, 3)[int(rng.integers(0, 2))]
        m = int(rng.integers(2, 4))
        tower = towers[(p, m)]
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(n, 3) + 1))
        code = random_full_rank(tower, n, k, seed=seed, label="accept-oracle-code")
        sub, _ = grw_table_exact(code, method="subcodes")
        clo, _ = grw_table_exact(code, method="closed")
        assert sub == clo, f"oracles disagree on seed {seed}: {sub} vs {clo}"
        count += 1
    assert count == 50


# -- 4 & 10: reducible corpus --------------------------------------------------------


def _criterion4_corpus():
    """50 seeded reducible codes with l = 2 and blocks of length <= 3."""
    corpus = []
    for seed in range(50):
        rng = linalg.rng_stream(4000 + seed, "accept-corpus")
        tower = F4 if int(rng.integers(0, 2)) == 0 else F8
        kind = seed % 3  # 0: cartesian, 1: generic random fill, 2: MRD components
        if kind == 2:
            n1 = int(rng.integers(1, tower.m + 1))
            n2 = int(rng.integers(1, tower.m + 1))
            k1 = int(rng.integers(1, n1 + 1))
            k2 = int(rng.integers(1, n2 + 1))
            if k1 > k2:
                (n1, k1), (n2, k2) = (n2, k2), (n1, k1)
            mains = [gabidulin(tower, n1, k1), gabidulin(tower, n2, k2)]
            corpus.append(("mrd", reducible(mains, seed=seed)))
        else:
            mains = []
            for label in ("a", "b"):
                n_i = int(rng.integers(1, 4))
                k_i = int(rng.integers(1, n_i + 1))
                mains.append(random_full_rank(tower, n_i, k_i, seed=seed,
                                              label=f"accept-corpus-{label}"))
            if kind == 0:
                corpus.append(("cartesian", cartesian(mains)))
            else:
                corpus.append(("generic", reducible(mains, seed=seed)))
    return corpus


@pytest.fixture(scope="module")
def corpus4():
    return _criterion4_corpus()


@_report("4 grw-bounds-sandwich")
def test_criterion_4_bounds_sandwich(corpus4):
    assert len(corpus4) == 50
    for kind, R in corpus4:
        exact, _ = grw_table_exact(R.code())
        rep = grw_bounds_reducible(R)
        for entry, d in zip(rep.entries, exact):
            assert entry.lower <= d <= entry.upper
            if kind == "cartesian":
                assert entry.lower == entry.upper == entry.exact == d
        if kind == "mrd":
            k1, k2 = R.dims
            n1, n2 = R.lengths
            for r in range(1, R.k + 1):
                entry = rep.entries[r - 1]
                if k1 < r <= k2:  # coupled block forced: bounds meet
                    assert entry.lower == entry.upper == exact[r - 1] == n2 - k2 + r
                elif k2 < r:      # both blocks forced: Singleton-exact
                    assert entry.lower == entry.upper == exact[r - 1] == R.n - R.k + r


def _direct_table(code):
    """The table of ``code`` by an oracle run on the code itself, never
    through its dual: the subcode walk where it is priced lower, the
    closed-space walk otherwise."""
    if grw_mod._subcode_cost(code.k, code.tower.order) <= grw_mod._closed_cost(code):
        return [min_closure(code, r)[1] for r in range(1, code.k + 1)]
    return grw_mod._closed_space_table(code)


@_report("10 duality-mrd-rank")
def test_criterion_10_duality(corpus4):
    for _, R in corpus4:
        code = R.code()
        exact, dual = _direct_table(code), code.dual()
        dual_exact = _direct_table(dual)
        assert grw_table_exact(code)[0] == exact
        d1_dual = dual_exact[0] if dual.k else code.n + 1
        assert mrd_rank(code) == mrd_rank_from_table(exact, code.n, code.k) == code.k - d1_dual + 2
        # the reversed dual's interval holds C^⊥'s table
        entries = grw_bounds_reducible(dual_reduction(R)).entries
        assert [e.r for e in entries] == list(range(1, dual.k + 1))
        for e, d in zip(entries, dual_exact):
            assert e.lower <= d <= e.upper
        # Wei duality: {d_r(C)} and {n+1-d_r(C-perp)} split 1..n
        assert sorted(exact + [code.n + 1 - d for d in dual_exact]) == list(range(1, code.n + 1))


# -- 5 & 6: the n > m family ----------------------------------------------------------


def _family_grid():
    for tower in (F4, F8):
        m = tower.m
        for n in range(m + 1, 7):
            for k in range(1, n + 1):
                plan = mrd_plan(tower, n, k)
                if plan.hypotheses_ok:
                    yield tower, plan


@_report("5 mrd-family-d1")
def test_criterion_5_mrd_family():
    checked = 0
    for tower, plan in _family_grid():
        m, n, k = plan.m, plan.n, plan.k
        R = build_mrd_reducible(tower, plan, seed=5000 + 10 * n + k)
        d1 = min_closure(R.code(), 1)[1] if k else None
        if plan.branch == 1:
            assert d1 == (m * (n - k)) // n + 1 == plan.d1_exact
            if (m * k) % n == 0:
                assert singleton_check(m, n, k, d1, d1)[0] is True
        else:
            assert plan.branch == 2
            assert d1 >= (m * (n - k)) // n
        checked += 1
    assert checked >= 30


@_report("6 estimate-tables")
def test_criterion_6_estimates():
    for tower, plan in _family_grid():
        mains = [gabidulin(tower, L, d) for L, d in plan.components]
        R = cartesian(mains)
        exact, _ = grw_table_exact(R.code())
        assert grw_estimates_mrd(plan) == exact, \
            f"estimates differ from exact for m={plan.m} n={plan.n} k={plan.k}"


# -- 7 & 8: leakage identity and the worst-case guarantee -------------------------------


def _leakage_grid():
    """Every F_4-linear code with n <= 3, 1 <= k <= min(n, 2)."""
    for n in (1, 2, 3):
        for k in range(1, min(n, 2) + 1):
            for gen in linalg.subspace_bases(n, k, range(F4.order)):
                yield LinearCode(F4, n, gen)


def _all_observation_bases(n):
    for d in range(n + 1):
        yield from linalg.subspace_bases(n, d, range(2))


@_report("7 leakage-identity")
def test_criterion_7_leakage_identity():
    start = time.monotonic()
    codes = discrepancies = 0
    for code in _leakage_grid():
        codes += 1
        for B in _all_observation_bases(code.n):
            joint = leakage_joint_enumeration(code, B)
            exact = leakage_exact(code, B).leakage
            if joint != exact:
                discrepancies += 1
    assert codes == 1 + 5 + 1 + 21 + 21
    assert discrepancies == 0
    assert time.monotonic() - start < 600


@_report("8 worst-case-guarantee")
def test_criterion_8_worst_case():
    for code in _leakage_grid():
        table, _ = grw_table_exact(code)
        d1 = table[0]
        for B in _all_observation_bases(code.n):
            if len(B) < d1:
                assert leakage_exact(code, B).leakage == 0
        for r in range(1, code.k + 1):
            attained = any(
                leakage_exact(code, B).leakage >= r
                for B in linalg.subspace_bases(code.n, table[r - 1], range(2)))
            assert attained, f"no observation of dim {table[r-1]} leaks {r} packets"


# -- 9: stronger security beats the worst case -------------------------------------------

@_report("9 stronger-security")
def test_criterion_9_stronger_security():
    copt = build_c_opt(F4, 2)
    B = [[1, 0, 0, 0], [0, 0, 1, 0]]  # product of (m-1)-dim blocks
    V = GaloisClosedSpace.from_fq_rows(F4, B, 4)
    table, _ = grw_table_exact(copt.code())
    assert V.dim == 2 * (F4.m - 1) >= table[0]
    leak = leakage_exact(copt.code(), B).leakage
    assert stronger_security_bound(copt, V, [1, 1]).bound == 0 == leak
    # what `wiretap certify` prints: the best composition reaches the same bound
    res = composition_search(copt, V)
    assert res.applicable and res.bound == 0 and res.composition == (1, 1)


# -- 11: Plotkin variants -----------------------------------------------------------------

@_report("11 plotkin-examples")
def test_criterion_11_plotkin():
    y = F8.from_coeffs((0, 1, 0))
    c2 = LinearCode(F8, 3, [[0, y, F8.frobenius(y, 1)]])
    c1_scaled = LinearCode(F8, 3, [[1, 0, 0]])
    c1_frob = LinearCode(F8, 3, [[y, 0, 0]])
    assert min_closure(cartesian([c1_scaled, c2]).code(), 1)[1] == 1
    assert min_closure(cartesian([c1_frob, c2]).code(), 1)[1] == 1
    example2 = plotkin_variant(c1_scaled, c2, "alpha", alpha=y)
    assert min_closure(example2.code(), 1)[1] == 2
    example3 = plotkin_variant(c1_frob, c2, "frobenius", frob_power=1)
    assert min_closure(example3.code(), 1)[1] == 2
    # (u, u+v) instances always split as products
    for seed in range(5):
        a = random_full_rank(F8, 3, 1, seed=seed, label="accept-plotkin-a")
        b = random_full_rank(F8, 3, 2, seed=seed, label="accept-plotkin-b")
        R = plotkin_variant(a, b, "uv")
        parts = [R.row_component(i) for i in range(2)]
        assert product_characterization(parts).equivalent


# -- 12: reduction rewrites ----------------------------------------------------------------

@_report("12 reduction-rewrites")
def test_criterion_12_reductions():
    # 100 seeded transform pairs: main and column components invariant
    for seed in range(100):
        rng = linalg.rng_stream(12000 + seed, "accept-transform")
        tower = F4 if int(rng.integers(0, 2)) == 0 else F8
        mains = []
        for label in ("a", "b"):
            n_i = int(rng.integers(1, 3))
            k_i = int(rng.integers(1, n_i + 1))
            mains.append(random_full_rank(tower, n_i, k_i, seed=seed,
                                          label=f"accept-transform-{label}"))
        R = reducible(mains, seed=seed)
        out = transform_reduction(R, random_block_transform(R, seed=seed))
        assert out.code().equals(R.code())
        for i in range(R.l):
            assert out.main_component(i).equals(R.main_component(i))
            assert out.column_component(i).equals(R.column_component(i))
    # 50 seeded reducible codes: the rewritten reduction attains d_1 exactly
    for seed in range(50):
        rng = linalg.rng_stream(12500 + seed, "accept-exactd1")
        tower = F4 if int(rng.integers(0, 2)) == 0 else F8
        mains = []
        for label in ("a", "b"):
            n_i = int(rng.integers(1, 4))
            k_i = int(rng.integers(1, n_i + 1))
            mains.append(random_full_rank(tower, n_i, k_i, seed=seed,
                                          label=f"accept-exactd1-{label}"))
        R = reducible(mains, seed=seed)
        rewritten = exact_reduction_for_d1(R)
        assert rewritten.code().equals(R.code())
        d1 = min_closure(R.code(), 1)[1]
        attained = min(min_closure(rewritten.row_component(i), 1)[1]
                       for i in range(rewritten.l))
        assert attained == d1
