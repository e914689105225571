"""Exact arithmetic in prime fields and their extensions.

A :class:`FieldTower` is the pair F_p < F_{p^m} for a prime p and a monic
irreducible modulus of degree m.  Elements of F_{p^m} are encoded as plain
integers: the code ``sum(c_i * p**i)`` stands for the polynomial
``c_0 + c_1*y + ... + c_{m-1}*y^(m-1)`` in ``F_p[y] / (modulus)``.  The
base field sits inside as the codes ``0 .. p-1``.

Everything is exact integer arithmetic; towers are immutable after
construction and safe to share between workers.  Fields are sized for
desk-scale work (the artifact never needs more than a few hundred
elements); beyond the table caps the tower falls back to direct
polynomial arithmetic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from . import linalg

# Full multiplication/addition tables are built below this order;
# exp/log tables below the second cap.  Larger towers still work, just
# slower (direct polynomial arithmetic per call).
_FULL_TABLE_CAP = 1 << 10
_EXP_LOG_CAP = 1 << 16

Poly = Tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_trim(c: Sequence[int]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> Poly:
    """Remainder of a modulo b over F_p.  b must be nonzero."""
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def check_irreducible(p: int, poly: Sequence[int]) -> bool:
    """Decide irreducibility of a monic polynomial over F_p.

    ``poly`` lists coefficients little-endian; the leading coefficient
    must be exactly 1 (non-monic input is rejected).  The scan is brute
    force over all monic divisors of degree up to deg/2, which is plenty
    for desk-scale degrees.
    """
    coeffs = tuple(x % p for x in poly)
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            cand = _digits(code, p, d) + (1,)
            if not _poly_mod(coeffs, cand, p):
                return False
    return True


def default_modulus(p: int, m: int) -> Poly:
    """Smallest irreducible monic degree-m polynomial over F_p.

    "Smallest" orders candidates by the little-endian base-p encoding of
    their non-leading coefficients, so every implementation of this rule
    picks the same modulus (y^2+y+1, y^3+y+1, y^4+y+1, ... for p=2).
    """
    for code in range(p**m):
        cand = _digits(code, p, m) + (1,)
        if check_irreducible(p, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digits(code: int, p: int, m: int) -> Poly:
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


class FieldTower:
    """The extension F_p < F_{p^m} with a fixed F_p-basis alpha_1..alpha_m.

    Parameters
    ----------
    p : prime characteristic (the artifact's base field size q equals p).
    m : extension degree, at least 1.
    modulus : optional monic irreducible degree-m polynomial over F_p,
        little-endian coefficients.  Defaults to :func:`default_modulus`.
    basis : optional m x m matrix over F_p whose row i expresses alpha_{i+1}
        in the polynomial basis 1, y, ..., y^(m-1).  Defaults to the
        identity, i.e. alpha_i = y^(i-1).
    """

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None,
                 basis: Optional[Sequence[Sequence[int]]] = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        self.p = p
        self.q = p
        self.m = m
        self.order = p**m
        if modulus is None:
            modulus = default_modulus(p, m)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have degree {m}")
        modulus = tuple(x % p for x in modulus[:-1]) + (modulus[-1],)
        if not check_irreducible(p, modulus):
            raise ValueError("modulus is reducible")
        self.modulus = modulus

        if basis is None:
            basis = tuple(tuple(1 if j == i else 0 for j in range(m)) for i in range(m))
        else:
            basis = tuple(tuple(x % p for x in row) for row in basis)
            if len(basis) != m or any(len(row) != m for row in basis):
                raise ValueError("basis matrix must be m x m")
        self.basis = basis
        self.alphas = tuple(self.from_coeffs(row) for row in basis)

        # reduction rows: y^(m+j) mod modulus for j = 0..m-2, used by raw
        # polynomial multiplication.
        red = []
        cur = tuple((-c) % p for c in modulus[:m])  # y^m
        for _ in range(max(m - 1, 0)):
            red.append(cur)
            cur = self._shift_reduce(cur)
        self._reduction_rows = tuple(red)

        # Frobenius x -> x^p as an F_p-linear map on coefficient vectors;
        # powers give x -> x^(p^i).
        yp = self._pow_raw(p, p) if m > 1 else 1  # code p encodes y
        frob_rows = []
        acc = 1  # (y^p)^j, starting at j=0
        for _ in range(m):
            frob_rows.append(self.coeffs(acc))
            acc = self._mul_raw(acc, yp)
        mats = [tuple(tuple(1 if j == i else 0 for j in range(m)) for i in range(m))]
        base = tuple(frob_rows)
        for _ in range(m - 1):
            prev = mats[-1]
            mats.append(tuple(self._apply_fp_matrix(prev[i], base) for i in range(m)))
        # mats[i] maps coefficient vectors of x to those of x^(p^i)
        self._frob_mats = tuple(mats)

        self._exp = self._log = None
        self._mul_t = self._inv_t = self._add_t = self._neg_t = None
        self._frob_t = None
        if self.order <= _EXP_LOG_CAP and m > 1:
            self._build_exp_log()
        if self.order <= _FULL_TABLE_CAP:
            self._build_tables()

        tr = []
        for j in range(m):
            x = self.from_coeffs(tuple(1 if t == j else 0 for t in range(m)))
            s = 0
            for i in range(m):
                s = self.add(s, self.frobenius(x, i))
            if s >= p:
                raise AssertionError("trace of a monomial left the base field")
            tr.append(s)
        self._trace_monomials = tuple(tr)

        # F_p is closed under the tower's operations, so rref of [basis | I]
        # inverts the basis over F_p
        aug = [list(row) + e for row, e in zip(basis, linalg.identity(m))]
        reduced, pivots = linalg.rref(aug, 2 * m, self)
        if pivots != list(range(m)):
            raise ValueError("basis matrix is singular over F_p")
        self.basis_inv = tuple(tuple(row[m:]) for row in reduced)
        self._hash = hash((p, m, self.modulus, self.basis))

    # -- scalar codecs -------------------------------------------------

    def coeffs(self, x: int) -> Poly:
        """Coefficient vector of x in the polynomial basis, length m."""
        return _digits(x, self.p, self.m)

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def parse_scalar(self, text: str) -> int:
        """Parse the textual form: m comma-separated base-p digits, little-endian."""
        parts = text.split(",")
        if len(parts) != self.m:
            raise ValueError(f"scalar {text!r} must have exactly {self.m} digits")
        code = 0
        for tok in reversed(parts):
            if not tok.isdigit():
                raise ValueError(f"scalar digit {tok!r} is not a base-{self.p} digit")
            d = int(tok)
            if d >= self.p:
                raise ValueError(f"scalar digit {d} is not reduced mod {self.p}")
            code = code * self.p + d
        return code

    def format_scalar(self, x: int) -> str:
        return ",".join(str(d) for d in self.coeffs(x))

    def elements(self):
        return range(self.order)

    def in_subfield(self, x: int) -> bool:
        return 0 <= x < self.p

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_t is not None:
            return self._add_t[a][b]
        p = self.p
        return self.from_coeffs((x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self._neg_t is not None:
            return self._neg_t[a]
        p = self.p
        return self.from_coeffs((-x) % p for x in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_t is not None:
            return self._mul_t[a][b]
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv_t is not None:
            return self._inv_t[a]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, x: int, i: int = 1) -> int:
        """x raised to the power p^i; the exponent is reduced mod m."""
        i %= self.m
        if self._frob_t is not None:
            return self._frob_t[i][x]
        return self.from_coeffs(self._apply_fp_matrix(self.coeffs(x), self._frob_mats[i]))

    def trace(self, x: int) -> int:
        """Trace down to F_p; the result is a code below p."""
        s = 0
        p = self.p
        for c, t in zip(self.coeffs(x), self._trace_monomials):
            s = (s + c * t) % p
        return s

    # -- internals -----------------------------------------------------

    def _shift_reduce(self, coeffs: Poly) -> Poly:
        """Multiply an m-vector (a poly of degree < m) by y and reduce."""
        p, m = self.p, self.m
        carry = coeffs[m - 1]
        out = [0] + list(coeffs[: m - 1])
        if carry:
            top = tuple((-c) % p for c in self.modulus[:m])
            out = [(o + carry * t) % p for o, t in zip(out, top)]
        return tuple(out)

    def _mul_raw(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:m]
        for j in range(m - 1):
            c = prod[m + j]
            if c:
                row = self._reduction_rows[j]
                out = [(o + c * r) % p for o, r in zip(out, row)]
        return self.from_coeffs(out)

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _apply_fp_matrix(self, vec: Sequence[int], mat: Sequence[Poly]) -> Poly:
        # row vector times matrix over F_p
        p = self.p
        out = [0] * len(mat[0])
        for c, row in zip(vec, mat):
            if c:
                for j, r in enumerate(row):
                    out[j] += c * r
        return tuple(o % p for o in out)

    def _build_exp_log(self):
        order = self.order
        for g in range(2, order):
            seen = 1
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._mul_raw(x, g)
                seen += 1
                if seen > order:
                    raise AssertionError("multiplication is broken")
            if len(exp) == order - 1:
                log = [0] * order
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp = exp + exp  # doubled to skip a mod in mul
                self._log = log
                return
        raise AssertionError("no primitive element found")

    def _build_tables(self):
        order, p, m = self.order, self.p, self.m
        digs = [self.coeffs(x) for x in range(order)]
        add_t = []
        neg_t = [self.from_coeffs((-c) % p for c in digs[x]) for x in range(order)]
        for a in range(order):
            da = digs[a]
            add_t.append([self.from_coeffs((x + y) % p for x, y in zip(da, digs[b]))
                          for b in range(order)])
        self._add_t = add_t
        self._neg_t = neg_t
        if m == 1:
            self._mul_t = [[(a * b) % p for b in range(order)] for a in range(order)]
            self._inv_t = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        else:
            exp, log = self._exp, self._log
            mul_t = [[0] * order]
            for a in range(1, order):
                la = log[a]
                row = [0] * order
                for b in range(1, order):
                    row[b] = exp[la + log[b]]
                mul_t.append(row)
            self._mul_t = mul_t
            self._inv_t = [0] + [exp[(order - 1) - log[a] if log[a] else 0] for a in range(1, order)]
        frob_t = []
        for i in range(m):
            mat = self._frob_mats[i]
            frob_t.append([self.from_coeffs(self._apply_fp_matrix(digs[x], mat)) for x in range(order)])
        self._frob_t = frob_t

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, modulus={list(self.modulus)})"
