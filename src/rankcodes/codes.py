"""Code constructions: generic linear codes, duals, Gabidulin codes,
cartesian products, reducible codes and their reductions, the MRD
reducible family for n > m, the length-km family with all weights
maximal, transposed Gabidulin codes, and Plotkin-style variants.

A reducible code is held as its :class:`Reduction`, the
block-upper-triangular generator rows themselves; blocks, row groups and
components are slices of them.  The structured dual of a reducible code
is again a :class:`Reduction`: one of C^⊥ with the blocks in reverse
order (:func:`dual_reduction`).

Also owns the line-oriented code file format used by the CLI.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg, rankmetric
from .errors import DEFAULT_BUDGET, CodeFileError, InvariantError, check_budget
from .field import FieldTower


class LinearCode:
    """An F_{q^m}-linear code given by a full-rank generator matrix.

    The RREF of the generator, which the rank check at construction
    computes anyway, is kept as ``rref``: two codes are equal exactly when
    these agree.  The transposed parity check Hᵀ (H the RREF basis of the
    dual) is read off it on first use and cached, and every question about
    membership and intersection goes through it: v is in C iff v·Hᵀ = 0,
    and dim(C ∩ V) = rank(V) − rank(V·Hᵀ), so no caller re-eliminates the
    generator stacked with the vectors it asks about.  The dimension of the
    Galois closure C* is cached the same way, one closure per code, and so
    is the dual code, whose own Hᵀ is this RREF transposed.
    """

    def __init__(self, tower: FieldTower, n: int, rows: Sequence[Sequence[int]]):
        if n < 1:
            raise ValueError("code length must be positive")
        G = tuple(tuple(int(x) for x in row) for row in rows)
        for row in G:
            if len(row) != n:
                raise ValueError("generator row length differs from n")
            for x in row:
                if not 0 <= x < tower.order:
                    raise ValueError(f"scalar code {x} out of range for the tower")
        reduced, pivots = linalg.rref(G, n, tower)
        if len(pivots) != len(G):
            raise ValueError("generator matrix is rank deficient")
        self.tower = tower
        self.n = n
        self.G = G
        self.k = len(G)
        self.rref = tuple(tuple(r) for r in reduced)
        self._Ht: Optional[List[List[int]]] = None
        self._closure_dim: Optional[int] = None
        self._dual: Optional[LinearCode] = None

    def parity_t(self) -> List[List[int]]:
        """Hᵀ, n rows of width n − k; the syndrome of v is v·Hᵀ."""
        if self._Ht is None:
            self._Ht = linalg.transpose(linalg.kernel(self.rref, self.n, self.tower), self.n)
        return self._Ht

    @property
    def closure_dim(self) -> int:
        """dim C*, the rank weight of the whole code."""
        if self._closure_dim is None:
            self._closure_dim = rankmetric.closure_dim(self.tower, self.G, self.n)
        return self._closure_dim

    def _syndrome(self, vec: Sequence[int]) -> List[int]:
        if len(vec) != self.n:
            raise ValueError("vector length differs from the code length")
        return linalg.vec_mat(vec, self.parity_t(), self.n - self.k, self.tower)

    def codeword(self, x: Sequence[int]) -> Tuple[int, ...]:
        if len(x) != self.k:
            raise ValueError("message length differs from k")
        return tuple(linalg.vec_mat(x, self.G, self.n, self.tower))

    def codewords(self):
        for x in itertools.product(range(self.tower.order), repeat=self.k):
            yield self.codeword(x)

    def dual(self) -> "LinearCode":
        """C^⊥, generated by H and built once.  Its parity check is a basis
        of C, so its Hᵀ is this code's RREF transposed and no second kernel
        is computed; its dual is this code."""
        if self._dual is None:
            dual = LinearCode(self.tower, self.n, linalg.transpose(self.parity_t(), self.n - self.k))
            dual._Ht = linalg.transpose(self.rref, self.n)
            dual._dual = self
            self._dual = dual
        return self._dual

    def equals(self, other: "LinearCode") -> bool:
        return self.tower == other.tower and self.n == other.n and self.rref == other.rref

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return not any(self._syndrome(vec))

    def intersection_dim(self, rows: Sequence[Sequence[int]]) -> int:
        """dim(C ∩ V) = dim V − rank(V·Hᵀ) for V the row space of ``rows``."""
        syndromes = [self._syndrome(row) for row in rows]
        return (linalg.rank(rows, self.n, self.tower)
                - linalg.rank(syndromes, self.n - self.k, self.tower))

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, q^m={self.tower.order})"


class _ZeroPatternError(ValueError):
    """A generator row nonzero left of its diagonal block; ``row`` is its
    index, so a caller can point at the row's source."""

    def __init__(self, row: int, message: str):
        self.row = row
        super().__init__(message)


class Reduction:
    """The block-upper-triangular generator of a reducible code.

    The generator is stored as given, as ``G``, like :class:`LinearCode`'s.
    Row group i is dims[i] consecutive rows of G and column block j is
    lengths[j] consecutive columns; block (i, j) is where they meet
    (0-indexed).  Every row of group i is zero left of column block i, and
    each diagonal block generates the main component C_i and has full
    rank.  Both are checked once, here; every block, row group and
    component is a slice of G.
    """

    def __init__(self, tower: FieldTower, lengths: Sequence[int], dims: Sequence[int],
                 rows: Sequence[Sequence[int]]):
        if len(lengths) != len(dims) or not lengths:
            raise ValueError("lengths and dims must be equally sized and nonempty")
        if any(n_i < 1 for n_i in lengths) or any(k_i < 0 for k_i in dims):
            raise ValueError("block lengths must be positive and dims nonnegative")
        self.tower = tower
        self.lengths = tuple(int(x) for x in lengths)
        self.dims = tuple(int(x) for x in dims)
        self.G = tuple(tuple(int(x) for x in row) for row in rows)
        if len(self.G) != self.k or any(len(row) != self.n for row in self.G):
            raise ValueError(f"the generator must be {self.k} rows of length {self.n}")
        self._code: Optional[LinearCode] = None
        groups = [i for i, k_i in enumerate(self.dims) for _ in range(k_i)]
        for r, (i, row) in enumerate(zip(groups, self.G)):
            if any(row[:self.col_offset(i)]):
                raise _ZeroPatternError(r, f"generator row {r} violates the zero pattern: "
                                           f"nonzero left of diagonal block {i}")
        for i in range(self.l):
            if linalg.rank(self.block(i, i), self.lengths[i], tower) != self.dims[i]:
                raise ValueError(f"diagonal block {i} is rank deficient")

    @property
    def l(self) -> int:
        return len(self.lengths)

    @property
    def n(self) -> int:
        return sum(self.lengths)

    @property
    def k(self) -> int:
        return sum(self.dims)

    def col_offset(self, j: int) -> int:
        return sum(self.lengths[:j])

    def _group_rows(self, i: int) -> Tuple[Tuple[int, ...], ...]:
        """The full-length rows of row group i."""
        start = sum(self.dims[:i])
        return self.G[start:start + self.dims[i]]

    def block(self, i: int, j: int) -> List[Tuple[int, ...]]:
        start = self.col_offset(j)
        return [row[start:start + self.lengths[j]] for row in self._group_rows(i)]

    def generator(self) -> List[List[int]]:
        return [list(row) for row in self.G]

    def code(self) -> LinearCode:
        if self._code is None:
            self._code = LinearCode(self.tower, self.n, self.G)
        return self._code

    def main_component(self, i: int) -> LinearCode:
        return LinearCode(self.tower, self.lengths[i], self.block(i, i))

    def row_component(self, i: int) -> LinearCode:
        return LinearCode(self.tower, self.n, self._group_rows(i))

    def column_component(self, j: int) -> LinearCode:
        n_j = self.lengths[j]
        rows = [row for i in range(j + 1) for row in self.block(i, j)]
        return LinearCode(self.tower, n_j, linalg.rref_nonzero(rows, n_j, self.tower))

    def is_cartesian(self) -> bool:
        return not any(any(row[self.col_offset(i + 1):])
                       for i in range(self.l) for row in self._group_rows(i))

    def __repr__(self):
        return f"Reduction(lengths={list(self.lengths)}, dims={list(self.dims)})"


# -- constructions ----------------------------------------------------


def gabidulin(tower: FieldTower, n: int, k: int,
              points: Optional[Sequence[int]] = None) -> LinearCode:
    """Gabidulin code: rows are Frobenius powers of the evaluation points.

    Requires n <= m and evaluation points linearly independent over F_q
    (default: the first n basis elements alpha_1..alpha_n).
    """
    if n > tower.m:
        raise ValueError(f"Gabidulin codes need n <= m, got n={n}, m={tower.m}")
    if not 0 <= k <= n:
        raise ValueError(f"dimension k={k} outside 0..{n}")
    if points is None:
        points = tower.alphas[:n]
    points = list(points)
    if len(points) != n:
        raise ValueError("need exactly n evaluation points")
    if rankmetric.rank_weight(tower, points) != n:
        raise ValueError("evaluation points are linearly dependent over F_q")
    rows = [rankmetric.vector_frobenius(tower, points, r) for r in range(k)]
    return LinearCode(tower, n, rows)


def cartesian(codes: Sequence[LinearCode]) -> Reduction:
    if not codes:
        raise ValueError("cartesian product needs at least one factor")
    tower = codes[0].tower
    if any(c.tower != tower for c in codes):
        raise ValueError("cartesian factors live in different towers")
    n, left, rows = sum(c.n for c in codes), 0, []
    for c in codes:
        rows += [[0] * left + list(row) + [0] * (n - left - c.n) for row in c.G]
        left += c.n
    return Reduction(tower, [c.n for c in codes], [c.k for c in codes], rows)


def reducible(mains: Sequence[LinearCode], *, seed: int) -> Reduction:
    """Reduction with the given main components and seeded-random full
    off-diagonal blocks; a fixed seed reproduces the reduction bit for
    bit.  Zero off-diagonal blocks are :func:`cartesian`.
    """
    if not mains:
        raise ValueError("need at least one main component")
    tower = mains[0].tower
    if any(c.tower != tower for c in mains):
        raise ValueError("main components live in different towers")
    lengths = [c.n for c in mains]
    dims = [c.k for c in mains]
    rows = []
    for i, c in enumerate(mains):
        group = [[0] * sum(lengths[:i]) + list(row) for row in c.G]
        for j in range(i + 1, len(mains)):
            rng = linalg.rng_stream(seed, f"offdiag:{i}:{j}")
            for row, drawn in zip(group, rng.integers(0, tower.order, size=(dims[i], lengths[j]))):
                row += drawn
        rows += group
    return Reduction(tower, lengths, dims, rows)


def dual_reduction(R: Reduction) -> Reduction:
    """C^⊥ as a reduction with the blocks in reverse order: block j of the
    result is block l − 1 − j of R, and its main components are the duals
    C_i^⊥ of R's.

    The vectors of C^⊥ supported on blocks 0..i span Σ_{j<=i} (n_j − k_j)
    dimensions, and their projection on block i is C_i^⊥.  So the RREF of
    C^⊥ with its columns in reversed block order is block-upper-triangular
    with groups of n_i − k_i rows, read off one echelon.  Reversing blocks
    permutes coordinates over F_q, so no rank weight changes.  Each main
    component is checked against the dual of R's, which comes from that
    component's own kernel.
    """
    tower, l = R.tower, R.l
    order = [R.col_offset(i) + t for i in reversed(range(l)) for t in range(R.lengths[i])]
    H = linalg.rref_nonzero([[row[c] for c in order] for row in R.code().dual().G], R.n, tower)
    dims = [n_i - k_i for n_i, k_i in zip(R.lengths, R.dims)]
    try:
        D = Reduction(tower, R.lengths[::-1], dims[::-1], H)
    except ValueError as exc:
        raise InvariantError(f"structured dual: {exc}") from None
    for i in range(l):
        if not D.main_component(l - 1 - i).equals(R.main_component(i).dual()):
            raise InvariantError(f"structured dual: block {i} is not the dual of main component {i}")
    return D


class MrdPlan(NamedTuple):
    """Derived parameters and component shapes for the n > m MRD family."""

    m: int
    n: int
    k: int
    l: int
    t: int
    kprime: int
    s: int
    a: int
    b: int
    tprime: int
    case: int
    components: Tuple[Tuple[int, int], ...]
    d1_case_bound: int
    hypotheses_ok: bool
    branch: Optional[int]
    d1_exact: Optional[int]
    d1_lower: int
    mrd: bool
    verdict: str

    def lines(self) -> List[str]:
        comp = " ".join(f"{L},{d}" for L, d in self.components)
        out = [
            f"plan m={self.m} n={self.n} k={self.k}",
            f"params l={self.l} t={self.t} kprime={self.kprime} s={self.s} "
            f"a={self.a} b={self.b} tprime={self.tprime} case={self.case}",
            f"components {comp}",
            f"d1_case_bound={self.d1_case_bound} d1_lower={self.d1_lower} "
            f"d1_exact={self.d1_exact if self.d1_exact is not None else '-'}",
            f"verdict={self.verdict} mrd={'true' if self.mrd else 'false'}",
        ]
        return out


def mrd_plan(tower: FieldTower, n: int, k: int) -> MrdPlan:
    """Derive block shapes for a reducible code of length n > m, dim k.

    Splits n = l*m - t and k = l*kprime - s, then distributes lengths and
    dimensions as evenly as the parameters allow, in three cases keyed by
    t and tprime.  The verdict classifies what the construction
    guarantees for the first weight of the built code.
    """
    m = tower.m
    if n <= m:
        raise ValueError(f"the reducible family needs n > m, got n={n}, m={m}")
    if not 1 <= k <= n:
        raise ValueError(f"dimension k={k} outside 1..{n}")
    l = -(-n // m)
    t = l * m - n
    if not (0 <= t <= m - 1 and l > 0):
        raise InvariantError(f"n = l*m - t split failed: l={l}, t={t}")
    kprime = -(-k // l)
    s = l * kprime - k
    if not (0 <= s <= l - 1 and kprime > 0):
        raise InvariantError(f"k = l*k' - s split failed: k'={kprime}, s={s}")
    a = -(-k * m // n) - kprime
    b = -(-t // l) - 1
    tprime = l * (m - b) - n
    if not 0 < tprime <= l:
        raise InvariantError(f"t'={tprime} outside 1..{l}")

    if t == 0:
        case = 1
        comps = [(m, kprime)] * (l - s) + [(m, kprime - 1)] * s
        d1_case_bound = m - kprime + 1
    elif tprime <= s:
        case = 2
        comps = ([(m - b, kprime)] * (l - s)
                 + [(m - b, kprime - 1)] * (s - tprime)
                 + [(m - b - 1, kprime - 1)] * tprime)
        d1_case_bound = m - b - kprime + 1
    else:
        case = 3
        comps = ([(m - b, kprime)] * (l - tprime)
                 + [(m - b - 1, kprime)] * (tprime - s)
                 + [(m - b - 1, kprime - 1)] * s)
        d1_case_bound = m - b - kprime
    if sum(L for L, _ in comps) != n or sum(d for _, d in comps) != k:
        raise InvariantError(f"components {comps} do not add up to [{n}, {k}]")
    for L, d in comps:
        if not (1 <= L <= m and 0 <= d <= L):
            raise InvariantError(f"component ({L}, {d}) violates dim <= length <= m")

    hypotheses_ok = t <= l or n >= m * m
    branch = None
    d1_exact = None
    mrd = False
    if hypotheses_ok:
        if t <= s or t * kprime > m * s:
            branch = 1
            d1_exact = (m * (n - k)) // n + 1
            if d1_exact != m - a - kprime + 1:
                raise InvariantError(f"d1={d1_exact} disagrees with "
                                     f"m - a - k' + 1 = {m - a - kprime + 1}")
            mrd = (m * k) % n == 0
        else:
            branch = 2
    if branch == 1:
        d1_lower = d1_exact
        verdict = "mrd" if mrd else "singleton-optimal"
    elif branch == 2:
        d1_lower = (m * (n - k)) // n
        verdict = "near-mrd"
    else:
        d1_lower = d1_case_bound
        verdict = "not-covered"
    return MrdPlan(m, n, k, l, t, kprime, s, a, b, tprime, case, tuple(comps),
                   d1_case_bound, hypotheses_ok, branch, d1_exact, d1_lower, mrd, verdict)


def build_mrd_reducible(tower: FieldTower, plan: MrdPlan, seed: int) -> Reduction:
    """Instantiate a plan with Gabidulin main components and seeded-random
    off-diagonal blocks.  Zero-dimension components become empty blocks."""
    if plan.m != tower.m:
        raise ValueError("plan was derived for a different extension degree")
    mains = [gabidulin(tower, L, d) for L, d in plan.components]
    R = reducible(mains, seed=seed)
    if (R.n, R.k) != (plan.n, plan.k):
        raise InvariantError(f"built an [{R.n}, {R.k}] code from an [{plan.n}, {plan.k}] plan")
    return R


def build_c_opt(tower: FieldTower, k: int) -> Reduction:
    """k-fold cartesian power of the one-dimensional length-m code
    generated by (alpha_1, ..., alpha_m); every weight is r*m."""
    if k < 1:
        raise ValueError("k must be at least 1")
    factor = LinearCode(tower, tower.m, [list(tower.alphas)])
    return cartesian([factor] * k)


class TransposedGabidulin(NamedTuple):
    """Transposes of the coordinate matrices of a Gabidulin code over the
    companion extension F_{q^n}; an F_q-linear (not F_{q^m}-linear) code
    of m x n matrices.  Only the minimum rank distance is tracked."""

    tower: FieldTower
    companion: FieldTower
    n: int
    source_dim: int
    source: LinearCode
    min_rank_distance: int

    @property
    def size(self) -> int:
        return self.companion.order ** self.source_dim

    def matrices(self, budget: int = DEFAULT_BUDGET) -> List[List[List[int]]]:
        check_budget(self.size, budget, "codewords")
        out = []
        for c in self.source.codewords():
            M = rankmetric.matrix_rep(self.companion, c)  # n x m
            out.append(linalg.transpose(M, self.tower.m))  # m x n
        return out


def transposed_gabidulin(tower: FieldTower, n: int, k: int) -> TransposedGabidulin:
    """Source Gabidulin code of length m over F_{q^n}, codewords transposed
    into m x n matrices.  Needs n > m; k is the source dimension (<= m)."""
    m = tower.m
    if n <= m:
        raise ValueError(f"transposed construction needs n > m, got n={n}, m={m}")
    if not 1 <= k <= m:
        raise ValueError(f"source dimension k={k} outside 1..{m}")
    companion = FieldTower(tower.p, n)
    source = gabidulin(companion, m, k)
    return TransposedGabidulin(tower, companion, n, k, source, m - k + 1)


def plotkin_variant(c1: LinearCode, c2: LinearCode, mode: str, *,
                    alpha: Optional[int] = None,
                    frob_power: Optional[int] = None) -> Reduction:
    """Length-2n code with generator rows (u | f(u)) over G_1 and (0 | v)
    over G_2.

    Modes: "uv" takes f(u) = u, "alpha" takes f(u) = alpha*u for
    alpha outside F_q (inside F_q the result is just a cartesian product
    in disguise, so it is rejected), "frobenius" takes f(u) = u^[i] for
    0 < i < m.
    """
    tower = c1.tower
    if c2.tower != tower:
        raise ValueError("both factors must share one tower")
    if c1.n != c2.n:
        raise ValueError("both factors must have the same length")
    if mode == "uv":
        f = lambda row: row
    elif mode == "alpha":
        if alpha is None:
            raise ValueError("mode alpha needs a scalar")
        if tower.in_subfield(alpha):
            raise ValueError("alpha must lie outside F_q; inside F_q the "
                             "construction collapses to a cartesian product")
        f = lambda row: tower.scale(alpha, row)
    elif mode == "frobenius":
        if frob_power is None or not 0 < frob_power < tower.m:
            raise ValueError("mode frobenius needs a power i with 0 < i < m")
        f = lambda row: rankmetric.vector_frobenius(tower, row, frob_power)
    else:
        raise ValueError(f"unknown plotkin mode {mode!r}")
    rows = [[*row, *f(row)] for row in c1.G] + [[0] * c1.n + list(row) for row in c2.G]
    return Reduction(tower, [c1.n, c1.n], [c1.k, c2.k], rows)


def exact_reduction_for_d1(R: Reduction, budget: int = DEFAULT_BUDGET) -> Reduction:
    """Rewrite the reduction so the minimum over row-component distances
    equals the code's first weight.

    A minimum-weight codeword x·G is pushed into a single row component by
    a block change of basis.  With x_tau the first nonzero message entry,
    row tau gains (1/x_tau)·x_tail·G_tail, where the tail is every row
    group after tau's.  Then x·G is x with its tail set to zero times the
    new generator, a codeword of the row component of tau's group.  The
    code itself is unchanged.
    """
    tower = R.tower
    if R.k == 0 or R.l == 1:
        return R
    check_budget(linalg.gaussian_binomial(R.k, 1, tower.order), budget, "subspaces")
    x = rankmetric.min_closure(R.code(), 1)[0][0]
    tau = next(t for t, v in enumerate(x) if v)
    end = next(e for e in itertools.accumulate(R.dims) if e > tau)  # past tau's group
    if not any(x[end:]):
        return R
    coefs = tower.scale(tower.inv(x[tau]), x[end:])
    rows = list(R.G)
    rows[tau] = tower.axpy(rows[tau], 1, linalg.vec_mat(coefs, R.G[end:], R.n, tower))
    out = Reduction(tower, R.lengths, R.dims, rows)
    if not out.code().equals(R.code()):
        raise InvariantError("the rewritten reduction generates a different code")
    return out


def transform_reduction(R: Reduction,
                        A_blocks: Dict[Tuple[int, int], Sequence[Sequence[int]]]) -> Reduction:
    """Apply a block-upper-triangular change of basis A (invertible
    diagonal blocks) to the generator; the code, the main components and
    the column components are unchanged.  Blocks missing from ``A_blocks``
    are the identity on the diagonal and zero above it."""
    tower, l, dims = R.tower, R.l, R.dims
    if any(i > j for i, j in A_blocks):
        raise ValueError("transform must be block-upper-triangular")
    A: List[List[int]] = []
    for i in range(l):
        group = [[] for _ in range(dims[i])]
        for j in range(l):
            rows = A_blocks.get((i, j))
            if rows is None:
                rows = linalg.identity(dims[i]) if i == j else linalg.zeros(dims[i], dims[j])
            rows = [list(map(int, row)) for row in rows]
            if len(rows) != dims[i] or any(len(row) != dims[j] for row in rows):
                raise ValueError(f"transform block {(i, j)} has the wrong shape")
            if i == j and linalg.rank(rows, dims[i], tower) != dims[i]:
                raise ValueError(f"diagonal transform block {i} is singular")
            for acc, row in zip(group, rows):
                acc += row
        A += group
    return Reduction(tower, R.lengths, dims, linalg.matmul(A, R.G, tower))


def random_block_transform(R: Reduction, seed: int) -> Dict[Tuple[int, int], List[List[int]]]:
    """Seeded block-upper-triangular transform with invertible diagonals."""
    tower = R.tower
    out: Dict[Tuple[int, int], List[List[int]]] = {}
    for i in range(R.l):
        k_i = R.dims[i]
        rng = linalg.rng_stream(seed, f"transform-diag:{i}")
        while True:
            rows = rng.integers(0, tower.order, size=(k_i, k_i))
            if linalg.rank(rows, k_i, tower) == k_i:
                out[(i, i)] = rows
                break
        for j in range(i + 1, R.l):
            rng = linalg.rng_stream(seed, f"transform-off:{i}:{j}")
            out[(i, j)] = rng.integers(0, tower.order, size=(k_i, R.dims[j]))
    return out


# -- code file format --------------------------------------------------


def format_code_file(obj) -> str:
    """Serialize a LinearCode or Reduction to the line-oriented format."""
    if not isinstance(obj, (LinearCode, Reduction)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    tower = obj.tower
    lines = [
        f"field p={tower.p} m={tower.m} modulus=" + ",".join(str(c) for c in tower.modulus),
        f"code n={obj.n} k={obj.k}",
    ]
    if isinstance(obj, Reduction):
        lines.append("blocks n=" + ",".join(str(x) for x in obj.lengths)
                     + " k=" + ",".join(str(x) for x in obj.dims))
    return "\n".join(lines + _format_rows(tower, obj.G)) + "\n"


def _format_rows(tower: FieldTower, rows: Sequence[Sequence[int]]) -> List[str]:
    return ["row " + " ".join(tower.format_scalar(x) for x in row) for row in rows]


def _content_lines(text: str) -> List[Tuple[int, str]]:
    """(line number, body) of each line left nonempty once its # comment is cut."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    return lines


def _parse_row(tower: FieldTower, lineno: int, body: str, n: int) -> List[int]:
    """The n scalars of a `row` line."""
    tokens = body.split()
    if tokens[0] != "row":
        raise CodeFileError(lineno, f"expected a row line, got {tokens[0]!r}")
    if len(tokens) != n + 1:
        raise CodeFileError(lineno, f"row has {len(tokens) - 1} entries, expected {n}")
    try:
        return [tower.parse_scalar(tok) for tok in tokens[1:]]
    except ValueError as exc:
        raise CodeFileError(lineno, str(exc)) from None


def _split_kv(lineno: int, token: str, key: str) -> str:
    if not token.startswith(key + "="):
        raise CodeFileError(lineno, f"expected {key}=..., got {token!r}")
    return token[len(key) + 1:]


def _parse_int(lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CodeFileError(lineno, f"{what} must be an integer, got {text!r}") from None


def _parse_int_list(lineno: int, text: str, what: str) -> List[int]:
    return [_parse_int(lineno, tok, what) for tok in text.split(",")]


def parse_code_file(text: str):
    """Parse the code file format; returns a LinearCode or a Reduction.

    Parsing is strict: wrong arities, unreduced digits and zero-pattern
    violations are hard errors carrying the offending line number.
    """
    lines = _content_lines(text)
    if not lines:
        raise CodeFileError(0, "empty code file")

    idx = 0
    lineno, body = lines[idx]
    tokens = body.split()
    if len(tokens) != 4 or tokens[0] != "field":
        raise CodeFileError(lineno, "expected: field p=<p> m=<m> modulus=<c_0,...,c_m>")
    p = _parse_int(lineno, _split_kv(lineno, tokens[1], "p"), "p")
    m = _parse_int(lineno, _split_kv(lineno, tokens[2], "m"), "m")
    modulus = _parse_int_list(lineno, _split_kv(lineno, tokens[3], "modulus"), "modulus coefficient")
    if len(modulus) != m + 1:
        raise CodeFileError(lineno, f"modulus needs {m + 1} coefficients")
    try:
        tower = FieldTower(p, m, modulus)
    except ValueError as exc:
        raise CodeFileError(lineno, str(exc)) from None
    idx += 1

    if idx >= len(lines):
        raise CodeFileError(lineno, "missing code line")
    lineno, body = lines[idx]
    tokens = body.split()
    if len(tokens) != 3 or tokens[0] != "code":
        raise CodeFileError(lineno, "expected: code n=<n> k=<k>")
    n = _parse_int(lineno, _split_kv(lineno, tokens[1], "n"), "n")
    k = _parse_int(lineno, _split_kv(lineno, tokens[2], "k"), "k")
    if n < 1 or k < 0 or k > n:
        raise CodeFileError(lineno, f"invalid code parameters n={n}, k={k}")
    idx += 1

    lengths = dims = None
    if idx < len(lines) and lines[idx][1].startswith("blocks"):
        lineno, body = lines[idx]
        tokens = body.split()
        if len(tokens) != 3:
            raise CodeFileError(lineno, "expected: blocks n=<n_1,...> k=<k_1,...>")
        lengths = _parse_int_list(lineno, _split_kv(lineno, tokens[1], "n"), "block length")
        dims = _parse_int_list(lineno, _split_kv(lineno, tokens[2], "k"), "block dim")
        if len(lengths) != len(dims):
            raise CodeFileError(lineno, "block length and dim lists differ in size")
        if sum(lengths) != n:
            raise CodeFileError(lineno, f"block lengths sum to {sum(lengths)}, not n={n}")
        if sum(dims) != k:
            raise CodeFileError(lineno, f"block dims sum to {sum(dims)}, not k={k}")
        if any(x < 1 for x in lengths) or any(x < 0 for x in dims):
            raise CodeFileError(lineno, "block lengths must be >= 1 and dims >= 0")
        idx += 1

    rows: List[List[int]] = []
    row_linenos: List[int] = []
    for _ in range(k):
        if idx >= len(lines):
            raise CodeFileError(lines[-1][0], f"expected {k} rows, found {len(rows)}")
        lineno, body = lines[idx]
        rows.append(_parse_row(tower, lineno, body, n))
        row_linenos.append(lineno)
        idx += 1
    if idx != len(lines):
        raise CodeFileError(lines[idx][0], "trailing content after the last row")

    try:
        if lengths is None:
            return LinearCode(tower, n, rows)
        return Reduction(tower, lengths, dims, rows)
    except _ZeroPatternError as exc:
        raise CodeFileError(row_linenos[exc.row], str(exc)) from None
    except ValueError as exc:
        raise CodeFileError(row_linenos[0] if row_linenos else lineno, str(exc)) from None
