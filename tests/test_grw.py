import itertools
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rankcodes import (BudgetError, FieldTower, HypothesisError, LinearCode,
                       build_c_opt, cartesian, composition_search, gabidulin, grw_bounds_reducible, grw_estimates_mrd,
                       grw_report_exact, grw_table_exact, is_degenerate,
                       linalg, mrd_plan, mrd_rank, mrd_rank_bounds,
                       reducible, singleton_check)
from rankcodes.codes import dual_reduction
from rankcodes.errors import InvariantError
from rankcodes.grw import degeneracy_report, minplus, mrd_rank_from_table, singleton_max_d1
from rankcodes.rankmetric import GaloisClosedSpace, closure_dim, min_closure
from rankcodes import codes as codes_mod, grw as grw_mod

from conftest import closed_space_table_reference, random_full_rank, random_reduction, src_env


# -- oracles -----------------------------------------------------------------

def test_subcode_oracle_examples(f16, f4):
    code = gabidulin(f16, 4, 2)
    assert grw_table_exact(code, method="subcodes")[0] == [3, closure_dim(f16, code.G, 4)]
    line = LinearCode(f4, 3, [[1, 1, 0]])
    assert grw_table_exact(line, method="subcodes")[0] == [1]


def test_closed_space_oracle_examples(f4):
    line = LinearCode(f4, 2, [[1, 1]])
    assert grw_table_exact(line, method="closed")[0] == [1]
    full = gabidulin(f4, 2, 2)
    assert grw_table_exact(full, method="closed")[0] == [1, 2]
    copt = build_c_opt(f4, 2).code()
    assert grw_table_exact(copt, method="closed")[0] == [2, 4]


def test_oracles_agree_on_seeded_codes(f4, f9):
    for tower, seeds in [(f4, range(6)), (f9, range(4))]:
        for seed in seeds:
            code = random_full_rank(tower, 4, 2, seed=seed, label="oracle-agree")
            t_sub, _ = grw_table_exact(code, method="subcodes")
            t_clo, _ = grw_table_exact(code, method="closed")
            assert t_sub == t_clo


def test_oracle_budget_error(f16):
    code = gabidulin(f16, 4, 2)  # k = n − k: both sides price [2 1]_16 + [2 2]_16 = 18
    with pytest.raises(BudgetError):
        grw_table_exact(code, budget=10, method="subcodes")


@pytest.fixture
def enumerated(monkeypatch):
    """Dimensions of the candidates a test enumerates: the leaves the
    rank-tree walk reaches, for the subcode and the closed-space oracle."""
    dims = []
    real = linalg.rank_leaves

    def counted(tower, M, d, *args):
        for rank in real(tower, M, d, *args):
            dims.append(d)
            yield rank

    monkeypatch.setattr(linalg, "rank_leaves", counted)
    return dims


def test_subcode_table_priced_before_enumeration(f16, enumerated):
    # k = n − k, so C^⊥ prices the same: [3 1]_16 = [3 2]_16 = 273, [3 3]_16 = 1
    code = random_full_rank(f16, 6, 3, seed=0, label="priced-before")
    assert min_closure(code, 1)[1] == 2
    assert 0 < len(enumerated) <= 273
    enumerated.clear()
    with pytest.raises(BudgetError) as err:
        grw_table_exact(code, budget=300, method="subcodes")
    assert err.value.count == 547 and not enumerated


def test_closed_scan_priced_before_enumeration(f16, enumerated):
    code = gabidulin(f16, 4, 3)
    cost = grw_mod._closed_cost(code)  # dim C* = 4: every nonzero subspace of F_2^4
    assert cost == 15 + 35 + 15 + 1
    with pytest.raises(BudgetError) as err:
        grw_table_exact(code, budget=cost - 1, method="closed")
    assert err.value.count == cost and not enumerated
    assert grw_table_exact(code, budget=cost, method="closed")[0] == [2, 3, 4]
    assert 0 < len(enumerated) <= cost
    assert set(enumerated) == {1}  # MRD: the miss at n − k = 1 decides the table


def test_component_tables_share_one_budget(f16, enumerated):
    R = cartesian([gabidulin(f16, 4, 2)] * 2)  # every component: [2 1]_16 + [2 2]_16 = 18
    with pytest.raises(BudgetError) as err:
        grw_bounds_reducible(R, budget=18)  # two main and two row components
    assert err.value.count == 4 * 18 and not enumerated
    with pytest.raises(BudgetError) as err:
        composition_search(R, GaloisClosedSpace.from_fq_rows(f16, [], 8), budget=18)
    assert err.value.count == 2 * 18 and not enumerated
    assert grw_bounds_reducible(R, budget=4 * 18).table() == [3, 4, 7, 8]


def test_walks_reach_pinned_leaf_counts(enumerated):
    """The exact work of both walks on fixed codes, as leaves reached per
    table on C: the closed walk on Gabidulin codes, the subcode walk over
    r = 1..k on seeded MRD builds."""
    for (p, m, n, k), leaves in [((2, 4, 4, 3), 15), ((2, 6, 6, 3), 1395), ((2, 6, 6, 4), 651),
                                 ((2, 7, 7, 3), 11811), ((3, 5, 5, 3), 1210),
                                 ((2, 11, 6, 3), 1395)]:
        enumerated.clear()
        grw_mod._closed_space_table(gabidulin(FieldTower(p, m), n, k))
        assert len(enumerated) == leaves, (p, m, n, k)
    for (p, m, n, k), leaves in [((2, 3, 7, 4), 686), ((3, 3, 6, 3), 1515),
                                 ((2, 6, 8, 3), 6223), ((2, 4, 8, 3), 547),
                                 ((3, 2, 6, 3), 183), ((5, 2, 4, 2), 27), ((3, 3, 7, 3), 1515)]:
        t = FieldTower(p, m)
        code = codes_mod.build_mrd_reducible(t, mrd_plan(t, n, k), seed=1).code()
        enumerated.clear()
        for r in range(1, k + 1):
            min_closure(code, r)
        assert len(enumerated) == leaves, (p, m, n, k)


def test_closed_walk_pins_its_field_work(monkeypatch):
    """The field work of two closed-walk tables, which no machine changes:
    the calls of FieldTower.axpy and of linalg.extend_rows.  Rows are
    reduced once per prefix of the leaf level and a leaf costs one packed
    addition, so a walk that inserted each leaf's syndrome by elimination
    again (11,811 and 1,395 leaves) would make far more calls."""
    calls = {"axpy": 0, "extend_rows": 0}
    for owner, name in [(FieldTower, "axpy"), (linalg, "extend_rows")]:
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    for (p, m, n, k), tag, axpy, extend in [((2, 7, 7, 3), "oracle-closed-space-dual", 8129, 951),
                                            ((2, 6, 6, 3), "oracle-closed-space", 1529, 242)]:
        code = gabidulin(FieldTower(p, m), n, k)
        calls.update(axpy=0, extend_rows=0)
        assert grw_table_exact(code)[1] == tag
        assert calls == {"axpy": axpy, "extend_rows": extend}, (p, m, n, k)


def test_dual_routes_reach_pinned_leaf_counts(enumerated):
    """The leaves of the tables that run on C^⊥, with the tag that says so:
    each Gabidulin code of the closed_scan benchmark whose plan takes the
    dual, and the one seed-1 MRD build there whose k exceeds n − k."""
    for (p, m, n, k), tag, leaves in [
            ((2, 4, 4, 3), "oracle-subcode-dual", 1),
            ((2, 6, 6, 4), "oracle-subcode-dual", 66),
            ((2, 7, 7, 3), "oracle-closed-space-dual", 11811),
            ((3, 5, 5, 3), "oracle-subcode-dual", 245)]:
        enumerated.clear()
        table, got = grw_table_exact(gabidulin(FieldTower(p, m), n, k))
        assert (table, got, len(enumerated)) == (list(range(n - k + 1, n + 1)), tag, leaves)
    t = FieldTower(2, 3)
    code = codes_mod.build_mrd_reducible(t, mrd_plan(t, 7, 4), seed=1).code()
    enumerated.clear()
    assert grw_table_exact(code, method="subcodes")[1] == "oracle-subcode-dual"
    assert len(enumerated) == 147


_CLOSED_TOWERS = [FieldTower(2, 2), FieldTower(2, 3), FieldTower(3, 2), FieldTower(2, 4)]


@st.composite
def closed_scan_code(draw):
    """A random code over F_4, F_8, F_9 or F_16: the row space of 1..n random
    rows, each drawn over F_q or over F_{q^m}, so degenerate codes
    (dim C* < n) and small d_1 are common.  Lengths stop at 7 over F_2 and
    at 5 over F_3, where the reference scan of every closed space stays
    under a second."""
    t = draw(st.sampled_from(_CLOSED_TOWERS))
    n = draw(st.integers(1, 7 if t.p == 2 else 5))
    k = draw(st.integers(1, n))
    rows = [draw(st.lists(st.integers(0, (t.p if draw(st.booleans()) else t.order) - 1),
                          min_size=n, max_size=n)) for _ in range(k)]
    return LinearCode(t, n, linalg.rref_nonzero(rows, n, t))


@settings(max_examples=40, deadline=None)
@given(closed_scan_code())
def test_closed_scan_matches_reference(code):
    """The envelope and syndrome tree give the ascending scan's table, and
    the walk reaches no more leaves than its price."""
    leaves = []
    real = linalg.rank_leaves

    def counted(tower, M, d, *args):
        for rank in real(tower, M, d, *args):
            leaves.append(d)
            yield rank

    with mock.patch.object(linalg, "rank_leaves", counted):
        assert grw_mod._closed_space_table(code) == closed_space_table_reference(code)
        assert len(leaves) <= grw_mod._closed_cost(code)


@settings(max_examples=30, deadline=None)
@given(closed_scan_code(), st.booleans())
def test_closed_walk_leaves_match_plain_scan(code, dual):
    """The closed walk's leaf level against a plain scan, on C or on C^⊥:
    for every d, exhausting the walk gives the least rank(V·Hᵀ) over the
    d-dimensional F_q RREF bases V, the basis it records is one in pivot
    order that attains that rank, and it reaches at most [n d]_q leaves."""
    side = code.dual() if dual else code
    t, n, Ht = side.tower, side.n, side.parity_t()
    width, syndromes = n - side.k, {}

    def rank_of(basis):
        for v in map(tuple, basis):
            if v not in syndromes:
                syndromes[v] = linalg.vec_mat(v, Ht, width, t)
        return linalg.rank([syndromes[tuple(v)] for v in basis], width, t)

    kernel = grw_mod._syndrome_kernel(side)
    for d in range(1, n + 1):
        least = []
        ranks = list(linalg.rank_leaves(t, Ht, d, t.p, kernel, least))
        expected = min(map(rank_of, linalg.subspace_bases(n, d, range(t.p))))
        assert least[1] == min(ranks) == expected, d
        basis = least[0]
        assert len(basis) == d and linalg.rref_nonzero(basis, n, t) == basis
        assert rank_of(basis) == expected
        assert len(ranks) <= linalg.gaussian_binomial(n, d, t.p)


def test_wei_complement_needs_k_members():
    assert grw_mod._wei_complement([2, 3], 3, 1) == [3]  # Gabidulin [3,2] from its dual
    assert grw_mod._wei_complement([], 3, 3) == [1, 2, 3]
    for dual_table, n, k in [([2, 3], 3, 2), ([1, 1], 4, 2), ([5], 4, 3), ([2, 3], 4, 1)]:
        with pytest.raises(InvariantError, match="Wei complement"):
            grw_mod._wei_complement(dual_table, n, k)


def test_plan_prices_both_sides(f16):
    """The side with the lower price runs, and a tie keeps C; the dual's
    closure is read only when its closed walk can still win."""
    code = gabidulin(f16, 4, 3)
    with mock.patch.object(codes_mod.LinearCode, "dual", side_effect=AssertionError):
        assert grw_mod._plan(code, "auto") == grw_mod._Plan("subcodes", True, 1)
    # closed prices tie at 66; C has one parity check against the dual's three
    assert grw_mod._plan(code, "closed") == grw_mod._Plan("closed", False, 66)
    assert grw_mod._plan(code.dual(), "closed") == grw_mod._Plan("closed", True, 66)
    assert grw_mod._plan(gabidulin(f16, 4, 2), "subcodes") == grw_mod._Plan("subcodes", False, 18)
    with mock.patch.object(grw_mod.rankmetric, "closure_dim", side_effect=AssertionError):
        grw_mod._plan(code, "auto")  # the dual floor, 15, already loses to 1


def test_oracle_validation(f4):
    code = gabidulin(f4, 2, 1)
    for c in (code, LinearCode(f4, 2, [])):  # k = 1 and k = 0
        with pytest.raises(ValueError, match="unknown oracle method"):
            grw_table_exact(c, method="bogus")


# -- min-plus bounds -----------------------------------------------------------

def test_minplus_hand_example():
    # two blocks with k_i = 1 and tables (2), (2)
    assert minplus([[2], [2]], 2) == [0, 2, 4]


def test_minplus_rejects_tables_short_of_k():
    with pytest.raises(ValueError):
        minplus([[2], [2]], 3)


def test_bounds_cartesian_equality(f4):
    mains = [gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)]
    R = cartesian(mains)
    rep = grw_bounds_reducible(R)
    exact, _ = grw_table_exact(R.code())
    for e, d in zip(rep.entries, exact):
        assert e.lower == e.upper == e.exact == d
        assert e.method == "cartesian-corollary"


def test_bounds_sandwich_and_example1_cases(f8):
    # two MRD components with k_1 <= k_2 and arbitrary coupling block
    c1 = gabidulin(f8, 2, 1)
    c2 = gabidulin(f8, 3, 2)
    for seed in range(5):
        R = reducible([c1, c2], seed=seed)
        rep = grw_bounds_reducible(R)
        exact, _ = grw_table_exact(R.code())
        for e, d in zip(rep.entries, exact):
            assert e.lower <= d <= e.upper
        # k_1 < r <= k_2: both bounds force r_2 > 0 and meet at n_2 - k_2 + r
        assert rep.entries[1].exact == 3 + (2 - 2)  # n_2 - k_2 + r, r = 2
        # k_2 < r <= k: Singleton-optimal
        assert rep.entries[2].exact == R.n - R.k + 3
        assert exact[1] == 3 and exact[2] == 5


@settings(max_examples=40, deadline=None)
@given(random_reduction())
def test_bounds_sandwich_random_reductions(R):
    """Both oracles give the same table, and it lies between the lower and
    upper bounds of every entry; an entry the bounds decide is that weight.
    The same holds for C^⊥ and the reversed dual's bounds, the MRD-rank
    interval holds k − r(C), and each degeneracy flag is its component's."""
    code, dual = R.code(), R.code().dual()
    table, _ = grw_table_exact(code, method="subcodes")
    assert grw_table_exact(code, method="closed")[0] == table
    dual_table = [min_closure(dual, r)[1] for r in range(1, dual.k + 1)]
    for rep, weights in ((grw_bounds_reducible(R), table),
                         (grw_bounds_reducible(dual_reduction(R)), dual_table)):
        assert len(rep.entries) == len(weights)
        for e, d in zip(rep.entries, weights):
            assert e.lower <= d <= e.upper
            assert e.exact in (None, d)
    lo, hi = mrd_rank_bounds(R)
    assert lo <= R.k - mrd_rank(code) <= hi
    flags = degeneracy_report(R)
    assert flags.code_degenerate == is_degenerate(code)
    assert flags.main_degenerate == [is_degenerate(R.main_component(i)) for i in range(R.l)]
    assert flags.column_degenerate == [is_degenerate(R.column_component(j)) for j in range(R.l)]


def _gabidulin_grid(tower, l):
    """Every l-block reduction of Gabidulin mains over ``tower``, with seeds
    0 and 1, leaving out the whole space (no dual codewords)."""
    mains = [gabidulin(tower, n, k) for n in range(1, tower.m + 1) for k in range(n + 1)]
    for combo in itertools.product(mains, repeat=l):
        if any(c.k < c.n for c in combo):
            for seed in (0, 1):
                yield reducible(combo, seed=seed)


def _gabidulin_reductions():
    """Every two-block reduction of Gabidulin mains over F_4, F_8 and F_9
    and every three-block one over F_4: 462 reductions."""
    for tower, l in ((FieldTower(2, 2), 2), (FieldTower(2, 3), 2), (FieldTower(3, 2), 2),
                     (FieldTower(2, 2), 3)):
        yield from _gabidulin_grid(tower, l)


def test_reversed_dual_interval_contains_dual_table():
    """The reversed dual is a reduction of C^⊥ like any other: its bound
    interval holds C^⊥'s table, walked directly on C^⊥."""
    codes = entries = 0
    for R in _gabidulin_reductions():
        dual = R.code().dual()
        rep = grw_bounds_reducible(dual_reduction(R))
        table = [min_closure(dual, r)[1] for r in range(1, dual.k + 1)]
        assert [e.r for e in rep.entries] == list(range(1, dual.k + 1))
        for e, d in zip(rep.entries, table):
            assert e.lower <= d <= e.upper
            assert e.exact in (None, d)
        codes, entries = codes + 1, entries + len(table)
    assert (codes, entries) == (462, 1120)


def test_mrd_rank_bounds_grid():
    """The interval holds k − r(C) on the 462 reductions and on the 360
    two-block ones over F_16, where rank weights reach 4: there a bound
    that adds the first weights of separate blocks of C^⊥ fell below it."""
    count = 0
    for R in itertools.chain(_gabidulin_reductions(), _gabidulin_grid(FieldTower(2, 4), 2)):
        lo, hi = mrd_rank_bounds(R)
        assert lo <= R.k - mrd_rank(R.code()) <= hi
        count += 1
    assert count == 462 + 360


_CROSSED = """
from rankcodes import FieldTower, cartesian, gabidulin, grw

f4 = FieldTower(2, 2)
R = cartesian([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)])
# main tables [5], [5] and row tables [1], [1]: the lower bound passes the upper
grw._exact_tables = lambda codes, budget: [[5], [5], [1], [1]]
try:
    grw.grw_bounds_reducible(R)
except AssertionError as exc:
    print("debug" if __debug__ else "optimized", "raised:", exc)
"""


def test_bounds_crossing_check_survives_optimize():
    # under -O a bare assert would vanish and lower > upper would be reported
    res = subprocess.run([sys.executable, "-O", "-c", _CROSSED],
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("optimized raised: bounds crossed at r=1")


def test_bounds_report_flags(f4):
    plan = mrd_plan(f4, 4, 2)
    R = codes_mod.build_mrd_reducible(f4, plan, seed=13)
    rep = grw_bounds_reducible(R)
    rep.check_invariants(f4.m)
    assert rep.degenerate is False


# -- estimates ------------------------------------------------------------------

def test_estimates_match_exact_on_cartesian_builds(f4, f8):
    for tower, n, k in [(f4, 4, 2), (f4, 3, 1), (f4, 3, 2), (f8, 4, 3), (f8, 5, 2)]:
        plan = mrd_plan(tower, n, k)
        mains = [gabidulin(tower, L, d) for L, d in plan.components]
        R = cartesian(mains)
        exact, _ = grw_table_exact(R.code())
        assert grw_estimates_mrd(plan) == exact


def test_estimates_hand_values(f4):
    plan = mrd_plan(f4, 4, 2)
    est = grw_estimates_mrd(plan)
    assert est[0] == 1 * (2 - 1) + 1 == 2
    assert est[1] == 4
    # r = k is forced to use every component: n - k + r
    assert est[-1] == plan.n - plan.k + plan.k


def test_estimates_vs_minplus_of_singleton_tables(f4, f8):
    # independent route: component tables of MRD components are n_i - k_i + r
    for tower, n, k in [(f4, 4, 3), (f8, 5, 4), (f8, 4, 2)]:
        plan = mrd_plan(tower, n, k)
        tables = [[L - d + r for r in range(1, d + 1)] for L, d in plan.components]
        assert grw_estimates_mrd(plan) == minplus(tables, k)[1:]


def test_estimates_refuse_plans_outside_the_hypotheses():
    plan = mrd_plan(FieldTower(2, 6), 8, 3)
    assert plan.verdict == "not-covered"
    with pytest.raises(HypothesisError, match="not-covered"):
        grw_estimates_mrd(plan)


def _grid_slice():
    """Seed-1 builds of every plan with q = 2, m in {2, 3} and q = 3, m = 2,
    for m < n <= 7 and 1 <= k < n: 58 cells."""
    for tower in (FieldTower(2, 2), FieldTower(2, 3), FieldTower(3, 2)):
        for n in range(tower.m + 1, 8):
            for k in range(1, n):
                plan = mrd_plan(tower, n, k)
                yield plan, codes_mod.build_mrd_reducible(tower, plan, seed=1)


def test_mrd_family_grid_slice():
    """Paper results 1-2 on each cell: the d_1 formula and d1_lower against
    the exact d_1, verdict mrd only on MRD codes, the estimates below the
    table, the bound sandwich, Wei duality and the MRD rank both ways.
    C's table comes from the closed-space walk on C and C^⊥'s from the
    subcode walk on C^⊥, so no side is derived from the other; the table
    the tool prints (which may come through C^⊥) must equal C's."""
    counts = [0, 0, 0, 0]  # cells, d_1 formulas, mrd verdicts, estimated cells
    for plan, R in _grid_slice():
        code, n, k = R.code(), plan.n, plan.k
        table = grw_mod._closed_space_table(code)
        assert grw_table_exact(code)[0] == table
        d1 = table[0]
        assert plan.d1_exact in (None, d1)
        assert plan.d1_lower <= d1
        if plan.verdict == "mrd":
            assert singleton_check(plan.m, n, k, d1, d1)[0] is True
        if plan.hypotheses_ok:
            assert all(e <= d for e, d in zip(grw_estimates_mrd(plan), table))
        for e, d in zip(grw_bounds_reducible(R).entries, table):
            assert e.lower <= d <= e.upper
            assert e.exact in (None, d)
        dual = code.dual()
        dual_table = [min_closure(dual, r)[1] for r in range(1, dual.k + 1)]
        assert sorted(table + [n + 1 - d for d in dual_table]) == list(range(1, n + 1))
        assert mrd_rank(code) == mrd_rank_from_table(table, n, k)
        flags = (True, plan.d1_exact is not None, plan.verdict == "mrd", plan.hypotheses_ok)
        counts = [c + f for c, f in zip(counts, flags)]
    assert counts == [58, 56, 6, 58]


# -- singleton / MRD rank ---------------------------------------------------------

def test_singleton_check_examples(f4, f16):
    full = gabidulin(f4, 2, 2)
    t, _ = grw_table_exact(full)
    assert singleton_check(2, 2, 2, t[0], t[0]) == (True, 0)
    gab = gabidulin(f16, 4, 2)
    t, _ = grw_table_exact(gab)
    assert singleton_check(4, 4, 2, t[0], t[0]) == (True, 0)
    plan = mrd_plan(f4, 4, 2)
    R = codes_mod.build_mrd_reducible(f4, plan, seed=5)
    d1 = min_closure(R.code(), 1)[1]
    assert singleton_check(2, 4, 2, d1, d1) == (True, 0)  # n divides mk
    # interval logic
    assert singleton_check(2, 4, 2, 1, 2) == (None, None)
    assert singleton_check(2, 4, 2, 2, 3) == (True, 0)  # lower hits the cap
    assert singleton_check(2, 4, 2, 1, 1) == (False, 1)


def test_mrd_rank_examples(f4, f16):
    full = gabidulin(f4, 2, 2)
    assert mrd_rank(full) == 1  # dual is zero: d_1 = n + 1
    gab = gabidulin(f16, 4, 2)
    assert mrd_rank(gab) == 1
    copt = build_c_opt(f4, 2).code()
    assert mrd_rank(copt) == 2
    copt3 = build_c_opt(f4, 3).code()
    assert mrd_rank(copt3) == 3


def test_mrd_rank_table_vs_dual_formula(f4, f8):
    for tower, seed in [(f4, 3), (f4, 9), (f8, 2)]:
        code = random_full_rank(tower, 4, 2, seed=seed, label="mrdrank")
        table, _ = grw_table_exact(code)
        assert mrd_rank_from_table(table, code.n, code.k) == mrd_rank(code)


def test_mrd_rank_routes_agree_and_share_the_budget(f4, f8):
    """mrd_rank takes the r = 1 walk on C^⊥ when k >= n − k and C's table
    otherwise here; each agrees with the other route run directly, and the
    cheaper price is the one checked against the budget."""
    for tower, n, k, seed in [(f4, 5, 1, 1), (f4, 5, 2, 2), (f4, 5, 3, 3), (f4, 5, 4, 4),
                              (f8, 4, 1, 5), (f8, 4, 3, 6)]:
        code = random_full_rank(tower, n, k, seed=seed, label="mrdrank-routes")
        walk = k - min_closure(code.dual(), 1)[1] + 2
        table = [min_closure(code, r)[1] for r in range(1, k + 1)]
        assert mrd_rank(code) == walk == mrd_rank_from_table(table, n, k)
        price = min(linalg.gaussian_binomial(n - k, 1, tower.order),
                    grw_mod._plan(code, "auto").price)
        with pytest.raises(BudgetError) as err:
            mrd_rank(code, budget=price - 1)
        assert err.value.count == price


def test_mrd_rank_bounds(f4, f8):
    # cartesian of Gabidulin codes: equality everywhere
    mains = [gabidulin(f8, 3, 2), gabidulin(f8, 2, 1)]
    R = cartesian(mains)
    expect = min(c.k - mrd_rank(c) for c in mains)
    assert mrd_rank_bounds(R) == (expect, expect)
    assert R.k - mrd_rank(R.code()) == expect
    # single block: both ends equal k_1 - r(C_1)
    R1 = cartesian([gabidulin(f4, 2, 1)])
    assert mrd_rank_bounds(R1) == (R1.k - mrd_rank(R1.code()),) * 2
    # coupled example instance: interval contains the exact value
    R2 = reducible(mains, seed=21)
    lo, hi = mrd_rank_bounds(R2)
    assert lo <= R2.k - mrd_rank(R2.code()) <= hi
    # d_1(C^⊥) = 3, above the sum of the first weights of C^⊥'s blocks (2):
    # those weights come from different codewords, so their sum bounds nothing
    f16 = FieldTower(2, 4)
    R3 = reducible([gabidulin(f16, 4, 4), gabidulin(f16, 3, 0)], seed=1)
    assert R3.k - mrd_rank(R3.code()) == 1
    assert mrd_rank_bounds(R3) == (-1, 1)


def test_mrd_rank_bounds_full_dimension_blocks(f4, f8):
    # full-dimension components carry no dual codewords; the bounds must
    # skip them and still collapse to equality on cartesian input
    point = gabidulin(f4, 1, 1, points=[1])
    R = cartesian([point, gabidulin(f4, 2, 2)])  # the whole space F_4^3
    actual = R.k - mrd_rank(R.code())
    assert mrd_rank_bounds(R) == (actual, actual) == (R.n - 1, R.n - 1)
    point8 = gabidulin(f8, 1, 1, points=[1])
    R2 = cartesian([point8, gabidulin(f8, 3, 2)])  # mixed full / non-full
    actual2 = R2.k - mrd_rank(R2.code())
    assert mrd_rank_bounds(R2) == (actual2, actual2)


# -- degeneracy --------------------------------------------------------------------

def test_degeneracy_examples(f4):
    assert not is_degenerate(gabidulin(f4, 2, 2))
    assert is_degenerate(LinearCode(f4, 2, [[1, 1]]))


def test_degeneracy_cartesian_iff(f4):
    good = gabidulin(f4, 2, 1)
    bad = LinearCode(f4, 2, [[1, 1]])
    rep = degeneracy_report(cartesian([good, bad]))
    assert rep.code_degenerate and rep.main_degenerate == [False, True]
    rep2 = degeneracy_report(cartesian([good, good]))
    assert not rep2.code_degenerate


def test_degeneracy_report_zero_dimension_block(f4):
    # a zero main component of positive length is degenerate, and so is the
    # code, which is zero on that block's coordinates
    R = reducible([gabidulin(f4, 2, 0), gabidulin(f4, 2, 2)], seed=0)
    rep = degeneracy_report(R)
    assert rep.code_degenerate and is_degenerate(R.code())
    assert rep.main_degenerate == [True, False]
    assert rep.column_degenerate == [True, False]


# -- block decomposition ----------------------------------------------------------------

def test_decompose_certifies_lower_bound_inequality(f4):
    # the composition bound rests on: every r-dim subcode D splits into
    # block-led pieces whose main-component projections are injective and
    # jointly no heavier than D itself; check it for every small subcode.
    # The pieces are the rows of the RREF of D, grouped by pivot block.
    R = reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 2)], seed=23)
    code = R.code()
    tables = [grw_table_exact(R.main_component(i))[0] for i in range(R.l)]
    lower = minplus(tables, code.k)
    for r in range(1, code.k + 1):
        for basis in linalg.subspace_bases(code.k, r, range(f4.order)):
            D = [list(code.codeword(x)) for x in basis]
            wt = closure_dim(f4, D, code.n)
            reduced, pivots = linalg.rref(D, code.n, f4)
            parts = {}
            for row, piv in zip(reduced, pivots):
                lead = max(i for i in range(R.l) if R.col_offset(i) <= piv)
                parts.setdefault(lead, []).append(row)
            assert sum(len(rows) for rows in parts.values()) == r
            total = 0
            for i, rows in parts.items():
                start = R.col_offset(i)
                proj = [row[start:start + R.lengths[i]] for row in rows]
                assert linalg.rank(proj, R.lengths[i], f4) == len(rows)
                w_i = closure_dim(f4, proj, R.lengths[i])
                assert w_i >= tables[i][len(rows) - 1]  # projected piece is a subcode of C_i
                total += w_i
            assert lower[r] <= total <= wt


# -- report plumbing -------------------------------------------------------------

def test_report_serialization(f16):
    rep = grw_report_exact(gabidulin(f16, 4, 2))
    lines = rep.lines()
    assert lines[0].startswith("r=1 lower=3 upper=3 exact=3 method=oracle-")
    assert lines[-1] == "mrd=true defect=0 mrd_rank=1 degenerate=false"
    assert rep.table() == [3, 4]
    rep.check_invariants(f16.m)


def test_singleton_max_d1_values():
    assert singleton_max_d1(4, 4, 2) == 3
    assert singleton_max_d1(2, 4, 2) == 2
    assert singleton_max_d1(2, 3, 1) == 2
    assert singleton_max_d1(3, 6, 4) == 2


def test_exact_tables_satisfy_sharp_bounds(f4, f8, f9):
    # every exact table obeys the Singleton cap and consecutive steps in [1, m]
    for tower, seeds in [(f4, range(5)), (f8, range(3)), (f9, range(3))]:
        for seed in seeds:
            code = random_full_rank(tower, 4, 3, seed=seed, label="sharp")
            rep = grw_report_exact(code)
            rep.check_invariants(tower.m)


_WEI_TOWERS = [FieldTower(2, 2), FieldTower(2, 3), FieldTower(3, 2)]


@st.composite
def small_code(draw):
    """A random code over F_4, F_8 or F_9 of length at most 5: the row space
    of a random matrix, so every dimension 0..n occurs."""
    t = draw(st.sampled_from(_WEI_TOWERS))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, t.order - 1), min_size=n, max_size=n),
                         max_size=n))
    return LinearCode(t, n, linalg.rref_nonzero(rows, n, t))


@settings(max_examples=40, deadline=None)
@given(small_code())
def test_wei_duality(code):
    """{d_r(C)} and {n + 1 - d_r(C-perp)} split 1..n disjointly, each table
    from the subcode oracle run on its own side."""
    table = [min_closure(code, r)[1] for r in range(1, code.k + 1)]
    dual = code.dual()
    dual_table = [min_closure(dual, r)[1] for r in range(1, dual.k + 1)]
    assert sorted(table + [code.n + 1 - d for d in dual_table]) == list(range(1, code.n + 1))


@settings(max_examples=60, deadline=None)
@given(small_code())
def test_routed_table_matches_direct_oracles(code):
    """Whatever side and oracle the plan picks (k ranges over 0..n, above
    and below n/2), the table equals that of each oracle run on C."""
    by_subcodes = [min_closure(code, r)[1] for r in range(1, code.k + 1)]
    assert grw_mod._closed_space_table(code) == by_subcodes
    for method in ("auto", "subcodes", "closed"):
        assert grw_table_exact(code, method=method)[0] == by_subcodes


@st.composite
def code_and_column_map(draw):
    """A code from :func:`small_code` and a random F_q-invertible n x n
    matrix, drawn as a row permutation of L·U with L unit lower and U upper
    triangular with a nonzero diagonal."""
    code = draw(small_code())
    t, n = code.tower, code.n
    fq = st.integers(0, t.p - 1)
    L = [[1 if i == j else draw(fq) if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[draw(st.integers(1, t.p - 1)) if i == j else draw(fq) if j > i else 0
          for j in range(n)] for i in range(n)]
    LU = linalg.matmul(L, U, t)
    return code, [LU[i] for i in draw(st.permutations(range(n)))]


@settings(max_examples=40, deadline=None)
@given(code_and_column_map())
def test_reports_invariant_under_fq_column_maps(case):
    """An F_q-invertible column map is a rank equivalence: the weight table,
    the MRD verdict, the MRD rank and degeneracy do not change, and both
    reports pass their own invariant checks (Singleton cap, steps in 1..m)."""
    code, P = case
    moved = LinearCode(code.tower, code.n, [linalg.vec_mat(row, P, code.n, code.tower)
                                            for row in code.G])
    assert grw_report_exact(moved).lines() == grw_report_exact(code).lines()
