import itertools
import operator
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rankcodes import (BudgetError, CodeFileError, FieldTower, HypothesisError,
                       LinearCode, build_c_opt, cartesian, composition_search,
                       gabidulin, grw_table_exact, leakage_exact, linalg,
                       reducible)
from rankcodes import wiretap as wt
from rankcodes.errors import InvariantError
from rankcodes.rankmetric import GaloisClosedSpace

from conftest import (leakage_joint_reference, random_full_rank, src_env,
                      stronger_security_bound)


# -- exact leakage --------------------------------------------------------------

def test_leakage_exact_examples(f4):
    code = random_full_rank(f4, 3, 2, seed=5, label="leak")
    assert leakage_exact(code, []).leakage == 0
    assert leakage_exact(code, linalg.identity(3)).leakage == code.k
    with pytest.raises(ValueError):
        leakage_exact(code, [[2, 0, 0]])  # entry outside F_q


def test_leakage_copt_remark(f4):
    # two one-dim observation blocks: huge observed space, zero packets leaked
    copt = build_c_opt(f4, 2)
    B = [[1, 0, 0, 0], [0, 0, 1, 0]]
    rep = leakage_exact(copt.code(), B)
    assert rep.mu == 2 and rep.leakage == 0


def test_leakage_depends_only_on_rowspace(f4):
    code = random_full_rank(f4, 3, 2, seed=6, label="rowspace")
    B = [[1, 0, 1], [0, 1, 1]]
    base = leakage_exact(code, B).leakage
    swapped = [B[1], B[0]]
    summed = [B[0], [f4.add(a, b) for a, b in zip(B[0], B[1])]]
    for other in (swapped, summed):
        assert leakage_exact(code, other).leakage == base


def test_worst_case_r_from_table(f4):
    code = gabidulin(f4, 2, 1)
    table, _ = grw_table_exact(code)
    rep = leakage_exact(code, [[1, 0]], table=table)
    assert rep.worst_case_r == sum(1 for d in table if d <= 1)


# -- joint distribution ------------------------------------------------------------

def test_joint_enumeration_examples(f4):
    code = random_full_rank(f4, 2, 1, seed=9, label="joint")
    assert wt.leakage_joint_enumeration(code, []) == 0
    assert wt.leakage_joint_enumeration(code, linalg.identity(2)) == code.k


def test_joint_enumeration_derived_example(f4):
    y = f4.from_coeffs((0, 1))
    code = LinearCode(f4, 2, [[1, y]])
    # 2^4 codeword values; observation of the first link reveals nothing
    assert wt.leakage_joint_enumeration(code, [[1, 0]]) == 0


def test_joint_enumeration_matches_exact_everywhere(f4):
    code = random_full_rank(f4, 3, 2, seed=12, label="joint-all")
    for d in range(4):
        for B in linalg.subspace_bases(3, d, range(2)):
            val = wt.leakage_joint_enumeration(code, B)
            assert val == leakage_exact(code, B).leakage
            assert val.denominator == 1


F4, F8, F9 = FieldTower(2, 2), FieldTower(2, 3), FieldTower(3, 2)
F25, F27 = FieldTower(5, 2), FieldTower(3, 3)
# (tower, largest n): at most 1,024 atoms, so the per-atom reference stays
# quick; F_25 and F_27 bring p = 5's wider digit fields and m = 3 for odd p
_JOINT_TOWERS = [(F4, 5), (F8, 3), (F9, 3), (F25, 2), (F27, 2)]


@st.composite
def tapped_code(draw):
    """A random [n, k] code, 0 <= k <= n, and mu <= n wiretap rows over F_q,
    which may be dependent."""
    t, nmax = draw(st.sampled_from(_JOINT_TOWERS))
    n = draw(st.integers(1, nmax))

    def rows(count, size):
        return [draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
                for _ in range(count)]

    G = rows(draw(st.integers(0, n)), t.order)
    assume(linalg.rank(G, n, t) == len(G))
    return LinearCode(t, n, G), rows(draw(st.integers(0, n)), t.p)


@settings(max_examples=40, deadline=None)
@given(tapped_code())
@example((LinearCode(F9, 3, []), linalg.identity(3)))
@example((LinearCode(F9, 2, [[1, 5]]), []))
@example((LinearCode(F9, 3, [[1, 5, 7], [0, 1, 4]]), linalg.identity(3)))
@example((LinearCode(F8, 3, [[1, 2, 4]]), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
@example((LinearCode(F4, 4, []), []))
@example((LinearCode(F25, 2, []), []))
# taps that meet the code (leakage 1), so the joint layers collapse
@example((LinearCode(F4, 4, [[1, 1, 0, 0], [0, 2, 1, 3]]), [[1, 1, 0, 0], [0, 0, 1, 1]]))
@example((LinearCode(F25, 2, [[1, 3]]), [[1, 3], [2, 1]]))
@example((LinearCode(F27, 2, [[1, 5], [0, 1]]), [[1, 2], [0, 1]]))  # k = mu = n
@example((LinearCode(F9, 3, []), [[1, 2, 0], [2, 1, 0]]))  # k = 0, dependent taps
def test_joint_enumeration_matches_reference(case):
    """The common counts of the distinct packed images, added digit-wise
    for every p, give the information of the per-atom loop with two
    vector–matrix products per atom."""
    code, B = case
    assert wt.leakage_joint_enumeration(code, B) == leakage_joint_reference(code, B)


def test_joint_enumeration_budget(f8):
    # the price is the q^{mn} atoms, known before the walk, not the images formed
    code = random_full_rank(f8, 4, 2, seed=1, label="joint-budget")
    with pytest.raises(BudgetError, match="^enumerating 4096 atoms exceeds the budget of 10$"):
        wt.leakage_joint_enumeration(code, [], budget=10)


_OFF_BY_ONE = """
from rankcodes import FieldTower, gabidulin, linalg
from rankcodes import wiretap as wt

real = wt.leakage_exact

def off_by_one(code, B_rows, table=None):
    rep = real(code, B_rows, table)
    return rep._replace(leakage=rep.leakage + 1)

wt.leakage_exact = off_by_one
code = gabidulin(FieldTower(2, 2), 2, 1)
try:
    wt.leakage_joint_enumeration(code, linalg.identity(2))
except AssertionError as exc:
    print("debug" if __debug__ else "optimized", "raised:", exc)
"""


def test_joint_enumeration_check_survives_optimize():
    # under -O a bare assert would vanish and the mismatch would pass silently
    res = subprocess.run([sys.executable, "-O", "-c", _OFF_BY_ONE],
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("optimized raised: joint enumeration gave 1, "
                                 "intersection gives 2")


_OR_ADDITION = """
import operator
from rankcodes import FieldTower, gabidulin, linalg
from rankcodes import wiretap as wt

wt._digit_ops = lambda p, fields: (1, operator.or_)
try:
    wt.leakage_joint_enumeration(gabidulin(FieldTower(2, 2), 2, 1), linalg.identity(2))
except AssertionError as exc:
    print("debug" if __debug__ else "optimized", "raised:", exc)
"""


def test_joint_enumeration_checks_common_count(monkeypatch):
    """OR in place of XOR is no group operation: the images are no cosets
    of a kernel, and the layer whose counts differ is refused, in-process
    and under -O."""
    monkeypatch.setattr(wt, "_digit_ops", lambda p, fields: (1, operator.or_))
    with pytest.raises(InvariantError, match="not one common count"):
        wt.leakage_joint_enumeration(gabidulin(F4, 2, 1), linalg.identity(2))
    res = subprocess.run([sys.executable, "-O", "-c", _OR_ADDITION],
                         env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("optimized raised: images of an additive map counted")
    assert res.stdout.rstrip().endswith("not one common count")


# -- stronger security ----------------------------------------------------------------

def test_stronger_security_zero_projections(f4):
    R = cartesian([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)])
    V = GaloisClosedSpace.from_fq_rows(f4, [], 4)
    res = stronger_security_bound(R, V, [0, 0])
    assert res.bound == 0


def test_stronger_security_remark_instance(f4):
    copt = build_c_opt(f4, 2)
    B = [[1, 0, 0, 0], [0, 0, 1, 0]]
    V = GaloisClosedSpace.from_fq_rows(f4, B, 4)
    assert V.dim == 2 * (f4.m - 1)  # k(m-1) = 2 >= d_1 = 2
    res = stronger_security_bound(copt, V, [1, 1])
    assert res.bound == 0 and res.zero_leakage
    assert leakage_exact(copt.code(), B).leakage == 0
    assert _full_blocks(copt, V) == 0


def test_stronger_security_hypothesis_gate(f4):
    copt = build_c_opt(f4, 2)
    V = GaloisClosedSpace.from_fq_rows(f4, linalg.identity(4), 4)
    with pytest.raises(HypothesisError):
        stronger_security_bound(copt, V, [0, 1])  # block projection too big for r=0
    res = stronger_security_bound(copt, V, [1, 1])
    assert res.bound == 2  # no strict blocks


def test_stronger_security_block_supported_space(f8):
    c1 = gabidulin(f8, 3, 1)   # d_1(C_1) = 3
    c2 = gabidulin(f8, 2, 1)
    R = reducible([c1, c2], seed=4)
    V = GaloisClosedSpace.from_fq_rows(f8, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 5)
    res = stronger_security_bound(R, V, [1, 0])
    assert res.bound == 0
    assert leakage_exact(R.code(), [list(r) for r in V.basis]).leakage == 0


def test_composition_search(f4):
    R = cartesian([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)])
    full = GaloisClosedSpace.from_fq_rows(f4, linalg.identity(4), 4)
    zero = GaloisClosedSpace.from_fq_rows(f4, [], 4)
    assert composition_search(R, zero).bound == 0
    assert composition_search(R, full).bound == R.k
    # product observation space: per-block caps add up
    V = GaloisClosedSpace.from_fq_rows(f4, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    res = composition_search(R, V)
    assert res.applicable
    assert res.bound >= leakage_exact(R.code(), [list(r) for r in V.basis]).leakage


def test_composition_search_dominates_exact_everywhere(f4):
    R = reducible([gabidulin(f4, 2, 1), gabidulin(f4, 2, 1)], seed=17)
    code = R.code()
    equality_seen = False
    for d in range(R.n + 1):
        for B in linalg.subspace_bases(R.n, d, range(2)):
            V = GaloisClosedSpace.from_fq_rows(f4, B, R.n)
            res = composition_search(R, V)
            leak = leakage_exact(code, B).leakage
            if res.applicable:
                assert res.bound >= leak
                equality_seen = equality_seen or res.bound == leak
    assert equality_seen


def _full_blocks(R, V):
    """The all-weights-maximal product's corollary: the leakage is at most
    the number of blocks onto which V projects fully."""
    return sum(1 for d in wt.projection_dims(R, V) if d == R.tower.m)


def test_copt_corollary_equals_search_on_product_spaces(f4):
    copt = build_c_opt(f4, 2)
    for d1 in range(3):
        for d2 in range(3):
            rows = []
            for basis1 in linalg.subspace_bases(2, d1, range(2)):
                for basis2 in linalg.subspace_bases(2, d2, range(2)):
                    rows = [r + [0, 0] for r in basis1] + [[0, 0] + r for r in basis2]
                    break
                break
            V = GaloisClosedSpace.from_fq_rows(f4, rows, 4)
            res = composition_search(copt, V)
            assert res.applicable
            assert res.bound == _full_blocks(copt, V)


@st.composite
def tapped_reduction(draw):
    """A seeded reducible code with 2 or 3 blocks of length <= 3 over F_4 or
    F_9, main components of any dimension, and a Galois closed space V
    spanned by random (possibly dependent) F_q rows."""
    t = draw(st.sampled_from([F4, F9]))
    mains = []
    for _ in range(draw(st.integers(2, 3))):
        n_i = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(0, t.order - 1), min_size=n_i, max_size=n_i),
                             max_size=n_i))
        mains.append(LinearCode(t, n_i, linalg.rref_nonzero(rows, n_i, t)))
    R = reducible(mains, seed=draw(st.integers(0, 2**16)))
    taps = draw(st.lists(st.lists(st.integers(0, t.p - 1), min_size=R.n, max_size=R.n),
                         max_size=R.n))
    return R, GaloisClosedSpace.from_fq_rows(t, taps, R.n)


@settings(max_examples=40, deadline=None)
@given(tapped_reduction())
def test_composition_search_is_the_best_composition(case):
    """The per-block search gives the least bound of the per-composition
    theorem over every composition, and is applicable exactly when some
    composition is; its bound holds for the exact leakage."""
    R, V = case
    tables = [grw_table_exact(R.main_component(i))[0] for i in range(R.l)]
    bounds = []
    for comp in itertools.product(*(range(k_i + 1) for k_i in R.dims)):
        try:
            bounds.append(stronger_security_bound(R, V, comp, tables).bound)
        except HypothesisError:
            pass
    res = composition_search(R, V)
    assert res.applicable == bool(bounds)
    if bounds:
        assert res.bound == min(bounds)
        assert res.bound == stronger_security_bound(R, V, res.composition, tables).bound
        assert leakage_exact(R.code(), [list(r) for r in V.basis]).leakage <= res.bound


# -- wiretap file format ------------------------------------------------------------

def test_wiretap_file_roundtrip(f4):
    text = "# two taps\nwiretap mu=2\nrow 1,0 0,0 1,0\n\nrow 0,0 1,0 1,0\n"
    assert wt.parse_wiretap_file(f4, text, 3) == [[1, 0, 1], [0, 1, 1]]


def test_wiretap_file_errors(f4):
    with pytest.raises(CodeFileError):
        wt.parse_wiretap_file(f4, "wiretap mu=1\nrow 0,1 0,0 0,0\n", 3)  # high digit
    with pytest.raises(CodeFileError):
        wt.parse_wiretap_file(f4, "wiretap mu=2\nrow 1,0 0,0 0,0\n", 3)  # count mismatch
    with pytest.raises(CodeFileError):
        wt.parse_wiretap_file(f4, "wiretap mu=1\nrow 1,0 0,0\n", 3)  # arity
