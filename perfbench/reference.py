"""Independent re-computations that the benchmark checks the program against.

Nothing in this module imports rankcodes.  It holds its own arithmetic in
binary extension fields GF(2^m), F_p vector ranks, F_2 bit-vector spaces, a
parser for the code file format, and the closed-form facts from the paper
that the checks compare with.  Scalars use the program's encoding: the code
``sum(c_i * p**i)`` stands for ``c_0 + c_1*y + ... + c_{m-1}*y^(m-1)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class CheckFailed(Exception):
    """An output of the program disagrees with what it must be."""


class OpError(Exception):
    """The operation did not complete (exception, crash or wrong exit code)."""


def expect(cond: bool, message: str) -> None:
    # An explicit raise, not an assert, so the checks also run under -O.
    if not cond:
        raise CheckFailed(message)


# -- GF(2^m) -----------------------------------------------------------------


class GF2m:
    """GF(2^m) with the modulus given little-endian, e.g. (1, 1, 1) for y^2+y+1."""

    def __init__(self, modulus: Sequence[int]):
        self.m = len(modulus) - 1
        self.order = 1 << self.m
        self.poly = sum((c & 1) << i for i, c in enumerate(modulus))

    def mul(self, a: int, b: int) -> int:
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.poly
        return out

    def inv(self, a: int) -> int:
        # a^(2^m - 2) by square and multiply
        out, base, e = 1, a, self.order - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def vec_mat(self, x: Sequence[int], rows: Sequence[Sequence[int]]) -> List[int]:
        acc = [0] * len(rows[0])
        for xi, row in zip(x, rows):
            if xi:
                acc = [a ^ self.mul(xi, r) for a, r in zip(acc, row)]
        return acc

    def rank(self, rows: Sequence[Sequence[int]]) -> int:
        R = [list(r) for r in rows]
        ncols = len(R[0]) if R else 0
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, len(R)) if R[i][col]), None)
            if piv is None:
                continue
            R[r], R[piv] = R[piv], R[r]
            s = self.inv(R[r][col])
            R[r] = [self.mul(s, x) for x in R[r]]
            for i in range(len(R)):
                if i != r and R[i][col]:
                    f = R[i][col]
                    R[i] = [x ^ self.mul(f, h) for x, h in zip(R[i], R[r])]
            r += 1
        return r


# -- F_p and F_2 vector spaces --------------------------------------------------


def digits(x: int, p: int, m: int) -> List[int]:
    out = []
    for _ in range(m):
        x, d = divmod(x, p)
        out.append(d)
    return out


def fp_rank(vectors: Sequence[Sequence[int]], p: int) -> int:
    R = [[x % p for x in v] for v in vectors]
    ncols = len(R[0]) if R else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(R)) if R[i][col]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        s = pow(R[r][col], p - 2, p)
        R[r] = [(s * x) % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][col]:
                f = R[i][col]
                R[i] = [(x - f * h) % p for x, h in zip(R[i], R[r])]
        r += 1
    return r


class F2Space:
    """Row space over F_2 of bit vectors (bit j is coordinate j)."""

    def __init__(self, vectors: Sequence[int] = ()):
        self.pivots: Dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            row = self.pivots.get(top)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
        return bool(v)

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def rows(self, n: int) -> List[List[int]]:
        return [[(v >> j) & 1 for j in range(n)] for _, v in sorted(self.pivots.items())]


def bit_planes(vec: Sequence[int], m: int) -> List[int]:
    """The m F_2 vectors c_i with vec = sum_i y^i c_i, as bit masks."""
    return [sum(((x >> i) & 1) << j for j, x in enumerate(vec)) for i in range(m)]


def closure_f2_rows(field: GF2m, rows: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """F_2 basis of the Galois closure of the GF(2^m)-span of rows.

    The closure is W (x) GF(2^m) for the smallest F_2 space W holding every
    bit plane of every vector of the span; the planes of y^i * v over a basis
    v of the span already span W.
    """
    space = F2Space()
    for v in rows:
        for i in range(field.m):
            for plane in bit_planes([field.mul(1 << i, x) for x in v], field.m):
                space.add(plane)
    return space.rows(n)


def intersection_dim(field: GF2m, G: Sequence[Sequence[int]],
                     B: Sequence[Sequence[int]]) -> int:
    """dim over GF(2^m) of rowspace(G) meeting the span of the F_2 rows B.

    Counts the codewords whose bit planes all lie in the F_2 row space of B;
    that count is (2^m)^dim.
    """
    k = len(G)
    space = F2Space(sum((x & 1) << j for j, x in enumerate(row)) for row in B)
    count = 0
    for idx in range(field.order ** k):
        msg = digits(idx, field.order, k)
        c = field.vec_mat(msg, G) if k else []
        if all(plane in space for plane in bit_planes(c, field.m)):
            count += 1
    dim, rest = 0, count
    while rest > 1:
        expect(rest % field.order == 0, f"intersection count {count} is not a power of {field.order}")
        rest //= field.order
        dim += 1
    return dim


# -- the code file format -------------------------------------------------------


def parse_code_file(text: str) -> dict:
    """The fields of a code file: p, m, modulus, n, k, blocks and rows as ints."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    expect(bool(lines) and lines[0][0] == "field", "code file lacks a field line")
    kv = dict(tok.split("=", 1) for tok in lines[0][1:])
    p, m = int(kv["p"]), int(kv["m"])
    modulus = [int(c) for c in kv["modulus"].split(",")]
    expect(lines[1][0] == "code", "code file lacks a code line")
    kv = dict(tok.split("=", 1) for tok in lines[1][1:])
    n, k = int(kv["n"]), int(kv["k"])
    blocks = None
    rest = lines[2:]
    if rest and rest[0][0] == "blocks":
        kv = dict(tok.split("=", 1) for tok in rest[0][1:])
        blocks = ([int(x) for x in kv["n"].split(",")], [int(x) for x in kv["k"].split(",")])
        rest = rest[1:]
    rows = []
    for ln in rest:
        expect(ln[0] == "row" and len(ln) == n + 1, f"bad row line {' '.join(ln)!r}")
        rows.append([sum(int(d) * p**i for i, d in enumerate(tok.split(","))) for tok in ln[1:]])
    expect(len(rows) == k, f"code file declares k={k} but holds {len(rows)} rows")
    return {"p": p, "m": m, "modulus": modulus, "n": n, "k": k, "blocks": blocks, "rows": rows}


def report_fields(line: str) -> Dict[str, str]:
    """key=value tokens of one report line."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


# -- facts from the paper ---------------------------------------------------------


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gabidulin_table(n: int, k: int) -> List[int]:
    return [n - k + r for r in range(1, k + 1)]


def c_opt_table(m: int, k: int) -> List[int]:
    return [r * m for r in range(1, k + 1)]


def mrd_branch1_d1(m: int, n: int, k: int) -> Optional[int]:
    """d_1 of the n > m reducible MRD family when its first branch applies."""
    l = -(-n // m)
    t = l * m - n
    kprime = -(-k // l)
    s = l * kprime - k
    hypotheses = t <= l or n >= m * m
    if hypotheses and (t <= s or t * kprime > m * s):
        return (m * (n - k)) // n + 1
    return None


def mrd_plan_covered(m: int, n: int, k: int) -> bool:
    """Whether the family's hypotheses hold, so its estimate table exists."""
    l = -(-n // m)
    return l * m - n <= l or n >= m * m


def check_gaps(table: Sequence[int], n: int, k: int, m: int) -> None:
    prev = 0
    for r, d in enumerate(table, start=1):
        expect(1 <= d - prev <= m, f"d_{r}={d} after d_{r - 1}={prev} breaks 1 <= gap <= m={m}")
        expect(d <= n - k + r, f"d_{r}={d} exceeds the Singleton bound {n - k + r}")
        prev = d
    expect(len(table) == k, f"table has {len(table)} entries, k={k}")


def check_wei(table: Sequence[int], dual_table: Sequence[int], n: int) -> None:
    """{d_r(C)} and {n+1-d_r(C-perp)} split {1..n} into two disjoint parts."""
    mine = set(table)
    theirs = {n + 1 - d for d in dual_table}
    expect(not mine & theirs and mine | theirs == set(range(1, n + 1))
           and len(table) + len(dual_table) == n,
           f"Wei duality fails: {list(table)} and dual {list(dual_table)} on n={n}")


def check_sandwich(lower: Sequence[int], exact: Sequence[int], upper: Sequence[int]) -> None:
    for r, (lo, ex, up) in enumerate(zip(lower, exact, upper), start=1):
        expect(lo <= ex <= up, f"r={r}: bounds {lo}..{up} do not hold the exact weight {ex}")
