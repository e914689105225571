import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rankcodes import FieldTower, check_irreducible, default_modulus, field

TOWERS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]


@pytest.fixture(scope="module")
def towers():
    return {pm: FieldTower(*pm) for pm in TOWERS}


def test_default_moduli():
    assert default_modulus(2, 2) == (1, 1, 1)       # y^2+y+1
    assert default_modulus(2, 3) == (1, 1, 0, 1)    # y^3+y+1
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)  # y^4+y+1
    assert default_modulus(3, 2) == (1, 0, 1)       # y^2+1


def test_check_irreducible_examples():
    assert check_irreducible(2, (1, 1, 1)) is True
    assert check_irreducible(2, (0, 0, 1)) is False   # y^2 = y*y
    assert check_irreducible(3, (1, 0, 1)) is True    # -1 is a non-residue mod 3
    with pytest.raises(ValueError):
        check_irreducible(2, (1, 0, 0))  # non-monic (leading 0)
    with pytest.raises(ValueError):
        FieldTower(2, 2, (0, 1, 1))  # reducible modulus rejected
    with pytest.raises(ValueError):
        FieldTower(4, 2)  # 4 is not prime
    for modulus in [(3, 1, 0, 1), (-1, 1, 0, 1), (1, 1, 0, 3)]:
        # refused, not read mod p as y^3 + y + 1
        with pytest.raises(ValueError, match="reduced mod p"):
            FieldTower(2, 3, modulus)


def test_frobenius_examples():
    t = FieldTower(2, 3)  # modulus y^3+y+1
    y = t.from_coeffs((0, 1, 0))
    assert t.frobenius(1, 3) == 1
    # oracle: square y by hand -> y^2
    assert t.frobenius(y, 1) == t.from_coeffs((0, 0, 1))
    for x in range(t.order):
        assert t.frobenius(x, t.m) == x


def test_frobenius_iteration_matches_power(towers):
    for t in towers.values():
        for x in range(t.order):
            acc = x
            for i in range(t.m):
                assert t.frobenius(x, i) == acc
                acc = t.frobenius(acc, 1)


def test_frobenius_fq_linearity(towers):
    t = towers[(3, 2)]
    for a, b in itertools.product(range(3), repeat=2):
        for x, y in itertools.product(range(t.order), repeat=2):
            lhs = t.frobenius(t.add(t.mul(a, x), t.mul(b, y)), 1)
            rhs = t.add(t.mul(a, t.frobenius(x, 1)), t.mul(b, t.frobenius(y, 1)))
            assert lhs == rhs


def test_trace_examples():
    t = FieldTower(2, 3)
    assert t.trace(0) == 0
    assert t.trace(1) == (3 % 2)
    t2 = FieldTower(2, 2)
    y = t2.from_coeffs((0, 1))
    # direct expansion: y + y^2 = y + (y+1) = 1 mod y^2+y+1
    assert t2.trace(y) == 1


def test_trace_is_sum_of_conjugates_and_onto(towers):
    for t in towers.values():
        hit_nonzero = False
        for x in range(t.order):
            s = 0
            for i in range(t.m):
                s = t.add(s, t.frobenius(x, i))
            assert s == t.trace(x)
            assert t.in_subfield(s)
            hit_nonzero = hit_nonzero or s != 0
        assert hit_nonzero, "trace must be onto F_q"


@st.composite
def tower_and_elements(draw, count):
    p, m = draw(st.sampled_from(TOWERS))
    t = _TOWER_CACHE.setdefault((p, m), FieldTower(p, m))
    xs = [draw(st.integers(0, t.order - 1)) for _ in range(count)]
    return (t, *xs)


_TOWER_CACHE = {}


@settings(max_examples=150, deadline=None)
@given(tower_and_elements(3))
def test_field_axioms(data):
    t, a, b, c = data
    assert t.mul(a, t.mul(b, c)) == t.mul(t.mul(a, b), c)
    assert t.add(a, t.add(b, c)) == t.add(t.add(a, b), c)
    assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
    assert t.add(a, t.neg(a)) == 0
    if a:
        assert t.mul(a, t.inv(a)) == 1


def test_small_field_exhaustive_inverses():
    for pm in [(2, 2), (3, 2), (2, 3)]:
        t = FieldTower(*pm)
        for a in range(1, t.order):
            assert t.mul(a, t.inv(a)) == 1


def test_scalar_syntax():
    t = FieldTower(2, 3)
    assert t.parse_scalar("0,1,0") == t.from_coeffs((0, 1, 0))
    assert t.format_scalar(t.parse_scalar("1,0,1")) == "1,0,1"
    with pytest.raises(ValueError):
        t.parse_scalar("0,1")  # wrong arity
    with pytest.raises(ValueError):
        t.parse_scalar("0,2,0")  # unreduced digit
    with pytest.raises(ValueError):
        t.parse_scalar("0,-1,0")


def test_tower_equality_and_hash():
    assert FieldTower(2, 2) == FieldTower(2, 2)
    assert hash(FieldTower(2, 2)) == hash(FieldTower(2, 2))
    assert FieldTower(2, 2) != FieldTower(3, 2)
    assert FieldTower(2, 4) != FieldTower(2, 4, (1, 0, 0, 1, 1))  # y^4 + y^3 + 1
    assert FieldTower(3, 3).alphas == (1, 3, 9)


# -- differential tests: tables against polynomial arithmetic and sympy -------------

# F_2 (primitive element 1), F_4, F_25, F_243, F_256, F_2048, F_2187, F_2^14
# and F_59049 (the largest odd-p tower with tables): both characteristics,
# on both sides of 1,024 elements, and for p = 2 the primitive elements y,
# y + 1 (F_256) and y^2 + y + 1 (F_2^14).  The first three are checked
# exhaustively, the others on seeded samples.
DIFF_TOWERS = [(2, 1), (2, 2), (5, 2), (3, 5), (2, 8), (2, 11), (3, 7), (2, 14), (3, 10)]
EXHAUSTIVE = {(2, 1), (2, 2), (5, 2)}


@pytest.fixture(scope="module")
def tabulated_and_polynomial():
    """Each tower twice: with tables, and built under a table cap of 1,
    so that every operation is polynomial arithmetic."""
    tab = {pm: FieldTower(*pm) for pm in DIFF_TOWERS}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_TABLE_CAP", 1)
        poly = {pm: FieldTower(*pm) for pm in DIFF_TOWERS}
    return [(tab[pm], poly[pm]) for pm in DIFF_TOWERS]


def _pairs(t):
    if (t.p, t.m) in EXHAUSTIVE:
        return list(itertools.product(range(t.order), repeat=2))
    rng = random.Random(f"field-diff:{t.p}:{t.m}")
    pairs = [(rng.randrange(t.order), rng.randrange(t.order)) for _ in range(300)]
    return pairs + [(0, 0), (0, 1), (1, 0), (t.order - 1, 0), (0, t.p - 1), (1, t.p - 1)]


def _rows(t):
    """Rows (y, c, x) with zeros in both rows, including c = 0 and c = 1."""
    rng = random.Random(f"field-rows:{t.p}:{t.m}")
    pick = [0, 1, t.p - 1] + [rng.randrange(t.order) for _ in range(5)]
    out = []
    for c in [0, 1, t.p - 1] + [rng.randrange(1, t.order) for _ in range(20)]:
        y = [rng.choice(pick) for _ in range(9)]
        x = [rng.choice(pick) for _ in range(9)]
        out.append((y, c, x))
    return out


def test_tables_match_polynomial_arithmetic(tabulated_and_polynomial):
    for tab, poly in tabulated_and_polynomial:
        for a, b in _pairs(tab):
            for op in ("add", "sub", "mul"):
                assert getattr(tab, op)(a, b) == getattr(poly, op)(a, b), (tab, op, a, b)
        for a in (range(tab.order) if (tab.p, tab.m) in EXHAUSTIVE else {a for a, _ in _pairs(tab)}):
            assert tab.neg(a) == poly.neg(a), (tab, a)
            assert tab.trace(a) == poly.trace(a), (tab, a)
            for i in range(-1, tab.m + 1):
                assert tab.frobenius(a, i) == poly.frobenius(a, i), (tab, a, i)
            if a:
                assert tab.inv(a) == poly.inv(a), (tab, a)
        for y, c, x in _rows(tab):
            expect = [poly.add(a, poly.mul(c, b)) for a, b in zip(y, x)]
            assert tab.axpy(y, c, x) == poly.axpy(y, c, x) == expect, (tab, c)
            assert tab.scale(c, x) == poly.scale(c, x) == [poly.mul(c, b) for b in x], (tab, c)


def test_tables_match_sympy_galoistools(tabulated_and_polynomial):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (gf_add, gf_gcdex, gf_mul, gf_neg, gf_pow_mod,
                                         gf_rem, gf_strip, gf_sub)

    for t, _ in tabulated_and_polynomial:
        p, m = t.p, t.m
        g = [int(c) for c in reversed(t.modulus)]  # leading coefficient first

        def to_gf(x):
            return gf_strip(list(reversed(t.coeffs(x))))

        def from_gf(f):
            return t.from_coeffs(reversed(gf_rem(f, g, p, ZZ)))

        for a, b in _pairs(t):
            fa, fb = to_gf(a), to_gf(b)
            assert t.add(a, b) == from_gf(gf_add(fa, fb, p, ZZ))
            assert t.sub(a, b) == from_gf(gf_sub(fa, fb, p, ZZ))
            assert t.mul(a, b) == from_gf(gf_mul(fa, fb, p, ZZ))
            assert t.neg(a) == from_gf(gf_neg(fa, p, ZZ))
            assert t.frobenius(a, b % m) == from_gf(gf_pow_mod(fa, p ** (b % m), g, p, ZZ))
            if a:
                s, _, h = gf_gcdex(fa, g, p, ZZ)
                assert h == [1] and t.inv(a) == from_gf(s)


def test_irreducibility_matches_sympy():
    """check_irreducible on every monic polynomial of small degree, and
    default_modulus as the first irreducible one in its order, against
    sympy's irreducibility test."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for p, max_deg in ((2, 7), (3, 4), (5, 3), (7, 2)):
        for deg in range(1, max_deg + 1):
            first = None
            for code in range(p**deg):
                poly = tuple(code // p**i % p for i in range(deg)) + (1,)
                want = gf_irreducible_p(list(reversed(poly)), p, ZZ)
                assert check_irreducible(p, poly) == want, (p, poly)
                if want and first is None:
                    first = poly
            assert default_modulus(p, deg) == first, (p, deg)
