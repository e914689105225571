"""Exact arithmetic in prime fields and their extensions.

A :class:`FieldTower` is the pair F_p < F_{p^m} for a prime p and a monic
irreducible modulus of degree m.  Elements of F_{p^m} are encoded as plain
integers: the code ``sum(c_i * p**i)`` stands for the polynomial
``c_0 + c_1*y + ... + c_{m-1}*y^(m-1)`` in ``F_p[y] / (modulus)``.  The
base field sits inside as the codes ``0 .. p-1``.  The F_p-basis that
writes a vector over F_{p^m} as a matrix over F_p is this polynomial
basis, alpha_i = y^(i-1), so digit i of a code is coordinate i; rank
weights do not depend on which basis is used.

Arithmetic has one representation.  A tower of at most ``_TABLE_CAP``
(2^16) elements fixes a primitive element g, writes N = p^m - 1, and keeps

* ``_exp``: g^0 .. g^(N-1) twice over, followed by 2N+1 zeros;
* ``_log``: the discrete log of each nonzero code, and 2N for 0, so that
  any index sum with a zero term lands in the zero tail of ``_exp``;
* for odd p, ``_zech``: the Zech logarithm log(1 + g^j) for j = 0..N-1,
  twice over, with 2N (the zero tail again) where 1 + g^j = 0.

A product is ``exp[log a + log b]`` with no test for zero, x^(p^i) is
``exp[log x * p^i mod N]``, and a sum is the XOR of the codes for p = 2
(their bits are the coefficients) and ``exp[log a + zech[log b - log a]]``
for odd p.  Whole rows go through :meth:`FieldTower.axpy` and
:meth:`FieldTower.scale`, so no other module sees the tables.  Larger
towers have no tables and do polynomial arithmetic on each call.

Everything is exact integer arithmetic; towers are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .errors import InvariantError

# Towers up to this order get log/antilog tables (a few MB at the cap);
# above it every operation is polynomial arithmetic.
_TABLE_CAP = 1 << 16

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
    raise InvariantError("no irreducible polynomial found")  # unreachable


def _digits(code: int, p: int, m: int) -> Poly:
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


class FieldTower:
    """The extension F_p < F_{p^m} with the polynomial F_p-basis
    alpha_i = y^(i-1), i = 1..m, so ``alphas == (1, p, ..., p^(m-1))``.

    Parameters
    ----------
    p : prime characteristic (the artifact's base field size q equals p).
    m : extension degree, at least 1.
    modulus : optional monic irreducible degree-m polynomial over F_p,
        little-endian coefficients.  Defaults to :func:`default_modulus`.
    """

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        self.p = p
        self.m = m
        self.order = p**m
        if modulus is None:
            modulus = default_modulus(p, m)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have degree {m}")
        modulus = tuple(modulus)
        if any(not 0 <= x < p for x in modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not check_irreducible(p, modulus):
            raise ValueError("modulus is reducible")
        self.modulus = modulus
        self.alphas = tuple(p**i for i in range(m))

        self._exp = self._log = self._zech = None
        if self.order <= _TABLE_CAP:
            self._build_tables()

        # Tr(y^j) for each monomial y^j = code p^j; the trace is F_p-linear
        tr = []
        for j in range(m):
            s = 0
            for i in range(m):
                s = self.add(s, self.frobenius(p**j, i))
            if s >= p:
                raise InvariantError("trace of a monomial left the base field")
            tr.append(s)
        self._trace_monomials = tuple(tr)
        self._hash = hash((p, m, self.modulus))

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

    def in_subfield(self, x: int) -> bool:
        return 0 <= x < self.p

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        if log is None:
            p = self.p
            return self.from_coeffs((x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b)))
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        log = self._log
        if log is None:
            p = self.p
            return self.from_coeffs((-x) % p for x in self.coeffs(a))
        return self._exp[log[a] + self._log_minus_one]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            return self._mul_poly(a, b)
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        log = self._log
        if log is None:
            return self.pow(a, self.order - 2)
        return self._exp[self._n - log[a]]

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
        log = self._log
        if log is None:
            return self.pow(x, self.p ** (i % self.m))
        if not x:
            return 0
        return self._exp[log[x] * self._frob_exp[i % self.m] % self._n]

    def trace(self, x: int) -> int:
        """Trace down to F_p; the result is a code below p."""
        s = 0
        p = self.p
        for c, t in zip(self.coeffs(x), self._trace_monomials):
            s = (s + c * t) % p
        return s

    # -- rows ----------------------------------------------------------

    def scale(self, c: int, x: Sequence[int]) -> list:
        """The row c*x, as a new list."""
        log = self._log
        if log is None:
            mul = self._mul_poly
            return [mul(c, b) for b in x]
        exp = self._exp
        lc = log[c]
        return [exp[lc + log[b]] for b in x]

    def axpy(self, y: Sequence[int], c: int, x: Sequence[int]) -> list:
        """The row y + c*x, as a new list; y and x have the same length."""
        log = self._log
        if log is None:
            add, mul = self.add, self._mul_poly
            return [add(a, mul(c, b)) for a, b in zip(y, x)]
        exp = self._exp
        lc = log[c]
        if self.p == 2:
            return [a ^ exp[lc + log[b]] for a, b in zip(y, x)]
        if not c:
            return list(y)
        zech = self._zech
        out = []
        for a, b in zip(y, x):
            if not b:
                out.append(a)
            elif not a:
                out.append(exp[lc + log[b]])
            else:
                la = log[a]
                out.append(exp[la + zech[lc + log[b] - la]])
        return out

    # -- internals -----------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """a*b as the product of the polynomials, reduced mod the modulus."""
        p = self.p
        cb = self.coeffs(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(self.coeffs(a)):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
        return self.from_coeffs(_poly_mod([c % p for c in prod], self.modulus, p))

    def _build_tables(self):
        """The antilog, log and (odd p) Zech tables; see the module docstring."""
        p, order = self.p, self.order
        n = order - 1
        # g is primitive iff g^(n/r) != 1 for every prime r dividing n; the
        # generator is the smallest such code
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        g = next(g for g in range(1, order) if all(self.pow(g, n // r) != 1 for r in primes))
        cycle = [1]
        if p == 2:
            # x*g by Horner over the bits of g: shift, reduce by the
            # modulus (the code with bit m), add by XOR
            red, bits = self.from_coeffs(self.modulus), [int(b) for b in f"{g:b}"]
            for _ in range(n - 1):
                x, acc = cycle[-1], 0
                for bit in bits:
                    acc <<= 1
                    if acc & order:
                        acc ^= red
                    if bit:
                        acc ^= x
                cycle.append(acc)
        else:
            for _ in range(n - 1):
                cycle.append(self._mul_poly(cycle[-1], g))
        log = [2 * n] * order
        for i, v in enumerate(cycle):
            log[v] = i
        self._n = n
        self._exp = cycle + cycle + [0] * (2 * n + 1)
        self._log = log
        self._log_minus_one = log[p - 1]  # the code p - 1 is -1
        self._frob_exp = tuple(p**i % n for i in range(self.m))
        if p != 2:
            # x + 1 changes only the lowest base-p digit of x
            self._zech = [log[x - x % p + (x + 1) % p] for x in cycle] * 2

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, modulus={list(self.modulus)})"
