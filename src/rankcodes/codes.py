"""Code constructions: generic linear codes, duals, Gabidulin codes,
cartesian products, reducible codes and their reductions, the MRD
reducible family for n > m, the length-km family with all weights
maximal, transposed Gabidulin codes, and Plotkin-style variants.

Also owns the line-oriented code file format used by the CLI.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    Galois closure C* is cached the same way, one closure per code.
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
        return LinearCode(self.tower, self.n, linalg.transpose(self.parity_t(), self.n - self.k))

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


class _BlockRows:
    """Block bookkeeping shared by a reduction and its structured dual.

    Row group i has row_dims[i] rows and column block j has lengths[j]
    columns; block (i, j) is the row_dims[i] x lengths[j] piece where they
    meet.  A block missing from the store reads as zero.
    """

    def __init__(self, tower: FieldTower, lengths: Sequence[int], row_dims: Sequence[int],
                 blocks: Dict[Tuple[int, int], Sequence[Sequence[int]]]):
        self.tower = tower
        self.lengths = tuple(int(x) for x in lengths)
        self._row_dims = tuple(int(x) for x in row_dims)
        store: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
        for (i, j), rows in blocks.items():
            rows = tuple(tuple(int(x) for x in row) for row in rows)
            if len(rows) != self._row_dims[i] or any(len(row) != self.lengths[j] for row in rows):
                raise ValueError(f"block {(i, j)} has the wrong shape")
            store[(i, j)] = rows
        self.blocks = store
        self._code: Optional[LinearCode] = None

    @property
    def l(self) -> int:
        return len(self.lengths)

    @property
    def n(self) -> int:
        return sum(self.lengths)

    def block(self, i: int, j: int) -> Tuple[Tuple[int, ...], ...]:
        zero = ((0,) * self.lengths[j],) * self._row_dims[i]
        return self.blocks.get((i, j), zero)

    def _group_rows(self, i: int) -> List[List[int]]:
        """The full-length rows of row group i."""
        blocks = [self.block(i, j) for j in range(self.l)]
        return [[x for blk in blocks for x in blk[r]] for r in range(self._row_dims[i])]

    def generator(self) -> List[List[int]]:
        return [row for i in range(self.l) for row in self._group_rows(i)]

    def code(self) -> LinearCode:
        if self._code is None:
            self._code = LinearCode(self.tower, self.n, self.generator())
        return self._code


class Reduction(_BlockRows):
    """A block-upper-triangular generator structure.

    Blocks G_{i,j} (0-indexed, i <= j) have shape dims[i] x lengths[j];
    each diagonal block generates the main component C_i and must have
    full rank.  Off-diagonal blocks default to zero.
    """

    def __init__(self, tower: FieldTower, lengths: Sequence[int], dims: Sequence[int],
                 blocks: Dict[Tuple[int, int], Sequence[Sequence[int]]]):
        if len(lengths) != len(dims) or not lengths:
            raise ValueError("lengths and dims must be equally sized and nonempty")
        if any(n_i < 1 for n_i in lengths) or any(k_i < 0 for k_i in dims):
            raise ValueError("block lengths must be positive and dims nonnegative")
        l = len(lengths)
        for (i, j) in blocks:
            if not (0 <= i <= j < l):
                raise ValueError(f"block index {(i, j)} outside the upper triangle")
        super().__init__(tower, lengths, dims, blocks)
        for i in range(l):
            if linalg.rank(self.block(i, i), self.lengths[i], tower) != self.dims[i]:
                raise ValueError(f"diagonal block {i} is rank deficient")

    @property
    def dims(self) -> Tuple[int, ...]:
        return self._row_dims

    @property
    def k(self) -> int:
        return sum(self.dims)

    def col_offset(self, j: int) -> int:
        return sum(self.lengths[:j])

    def main_component(self, i: int) -> LinearCode:
        return LinearCode(self.tower, self.lengths[i], self.block(i, i))

    def row_component(self, i: int) -> LinearCode:
        return LinearCode(self.tower, self.n, self._group_rows(i))

    def column_block(self, j: int) -> List[List[int]]:
        rows: List[List[int]] = []
        for i in range(j + 1):
            rows.extend(list(r) for r in self.block(i, j))
        return rows

    def column_component(self, j: int) -> LinearCode:
        rows = linalg.rref_nonzero(self.column_block(j), self.lengths[j], self.tower)
        return LinearCode(self.tower, self.lengths[j], rows)

    def is_cartesian(self) -> bool:
        return all(all(all(x == 0 for x in row) for row in self.block(i, j))
                   for i in range(self.l) for j in range(i + 1, self.l))

    @classmethod
    def from_generator(cls, tower: FieldTower, lengths: Sequence[int], dims: Sequence[int],
                       rows: Sequence[Sequence[int]]) -> "Reduction":
        lengths = tuple(lengths)
        dims = tuple(dims)
        if len(rows) != sum(dims):
            raise ValueError("row count differs from the declared block dims")
        offsets = [0]
        for n_j in lengths:
            offsets.append(offsets[-1] + n_j)
        blocks: Dict[Tuple[int, int], List[List[int]]] = {}
        row_iter = iter(rows)
        for i, k_i in enumerate(dims):
            chunk = [list(next(row_iter)) for _ in range(k_i)]
            for row in chunk:
                if any(row[t] != 0 for t in range(offsets[i])):
                    raise ValueError(f"block row {i} has nonzero entries left of its diagonal block")
            for j in range(i, len(lengths)):
                blocks[(i, j)] = [row[offsets[j]:offsets[j + 1]] for row in chunk]
        return cls(tower, lengths, dims, blocks)

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
    blocks = {(i, i): c.G for i, c in enumerate(codes)}
    return Reduction(tower, [c.n for c in codes], [c.k for c in codes], blocks)


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
    blocks: Dict[Tuple[int, int], Sequence[Sequence[int]]] = {
        (i, i): c.G for i, c in enumerate(mains)}
    l = len(mains)
    for i in range(l):
        for j in range(i + 1, l):
            rng = linalg.rng_stream(seed, f"offdiag:{i}:{j}")
            blocks[(i, j)] = rng.integers(0, tower.order, size=(dims[i], lengths[j]))
    return Reduction(tower, lengths, dims, blocks)


def dual_reduction(R: Reduction) -> _BlockRows:
    """Structured dual: block-lower-triangular generator of C-perp whose
    diagonal blocks generate the duals of the main components.

    Row group i has lengths[i] − dims[i] rows on column blocks 0..i, built
    from the dual of main component i; the blocks to the left are
    particular solutions peeled off one block column at a time.
    """
    tower = R.tower
    l = R.l
    minus_one = tower.neg(1)
    blocks: Dict[Tuple[int, int], List[List[int]]] = {
        (i, j): [] for i in range(l) for j in range(i + 1)}
    for i in range(l):
        for v in R.main_component(i).dual().G:
            parts: Dict[int, List[int]] = {i: list(v)}
            for a in range(i - 1, -1, -1):
                rhs = [0] * R.dims[a]
                for j in range(a + 1, i + 1):
                    contrib = linalg.mat_vec(R.block(a, j), parts[j], tower)
                    rhs = tower.axpy(rhs, minus_one, contrib)
                sol = linalg.solve_right(R.block(a, a), R.lengths[a], rhs, tower)
                if sol is None:  # cannot happen: G_{a,a} has full row rank
                    raise InvariantError("dual construction hit an inconsistent system")
                parts[a] = sol
            for j in range(i + 1):
                blocks[(i, j)].append(parts[j])
    out = _BlockRows(tower, R.lengths, [n_i - k_i for n_i, k_i in zip(R.lengths, R.dims)], blocks)
    if not linalg.rowspace_equal(out.generator(), R.code().dual().G, R.n, tower):
        raise InvariantError("structured dual does not match the kernel")
    return out


@dataclass(frozen=True)
class MrdPlan:
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


@dataclass
class TransposedGabidulin:
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
        f = lambda row: list(row)
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
    blocks = {
        (0, 0): c1.G,
        (0, 1): [f(row) for row in c1.G],
        (1, 1): c2.G,
    }
    return Reduction(tower, [c1.n, c1.n], [c1.k, c2.k], blocks)


def exact_reduction_for_d1(R: Reduction, budget: int = DEFAULT_BUDGET) -> Reduction:
    """Rewrite the reduction so the minimum over row-component distances
    equals the code's first weight.

    A minimum-weight codeword is pushed into a single row component by a
    block change of basis that cancels its message blocks past the first
    nonzero one; the code itself is unchanged.
    """
    tower = R.tower
    if R.k == 0 or R.l == 1:
        return R
    check_budget(linalg.gaussian_binomial(R.k, 1, tower.order), budget, "subspaces")
    x = rankmetric.min_closure(R.code(), 1)[0][0]
    offsets = [0]
    for k_i in R.dims:
        offsets.append(offsets[-1] + k_i)
    parts = [x[offsets[i]:offsets[i + 1]] for i in range(R.l)]
    i0 = next(i for i in range(R.l) if any(parts[i]))
    if all(not any(parts[j]) for j in range(i0 + 1, R.l)):
        return R
    tau = next(t for t, v in enumerate(parts[i0]) if v)
    pivot_inv = tower.inv(parts[i0][tau])

    rows_by_block = [R._group_rows(i) for i in range(R.l)]
    new_i0 = [list(row) for row in rows_by_block[i0]]
    for j in range(i0 + 1, R.l):
        if not any(parts[j]):
            continue
        coefs = tower.scale(tower.neg(pivot_inv), parts[j])
        shift = linalg.vec_mat(coefs, rows_by_block[j], R.n, tower)
        new_i0[tau] = tower.axpy(new_i0[tau], 1, shift)
    rows_by_block[i0] = new_i0
    flat = [row for chunk in rows_by_block for row in chunk]
    out = Reduction.from_generator(tower, R.lengths, R.dims, flat)
    if not out.code().equals(R.code()):
        raise InvariantError("the rewritten reduction generates a different code")
    return out


def transform_reduction(R: Reduction,
                        A_blocks: Dict[Tuple[int, int], Sequence[Sequence[int]]]) -> Reduction:
    """Apply a block-upper-triangular change of basis A (invertible
    diagonal blocks) to the generator; the code, the main components and
    the column components are unchanged."""
    tower = R.tower
    l = R.l
    A: Dict[Tuple[int, int], List[List[int]]] = {}
    for i in range(l):
        for j in range(i, l):
            rows = A_blocks.get((i, j))
            if rows is None:
                rows = linalg.identity(R.dims[i]) if i == j else linalg.zeros(R.dims[i], R.dims[j])
            rows = [list(map(int, row)) for row in rows]
            if len(rows) != R.dims[i] or any(len(row) != R.dims[j] for row in rows):
                raise ValueError(f"transform block {(i, j)} has the wrong shape")
            A[(i, j)] = rows
    for (i, j) in A_blocks:
        if i > j:
            raise ValueError("transform must be block-upper-triangular")
    for i in range(l):
        if linalg.rank(A[(i, i)], R.dims[i], tower) != R.dims[i]:
            raise ValueError(f"diagonal transform block {i} is singular")
    new_blocks: Dict[Tuple[int, int], List[List[int]]] = {}
    for i in range(l):
        for j in range(i, l):
            acc = [[0] * R.lengths[j] for _ in range(R.dims[i])]
            for t in range(i, j + 1):
                if R.dims[t] == 0:
                    continue
                part = linalg.matmul(A[(i, t)], R.block(t, j), tower)
                acc = [tower.axpy(ar, 1, pr) for ar, pr in zip(acc, part)]
            new_blocks[(i, j)] = acc
    return Reduction(tower, R.lengths, R.dims, new_blocks)


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
    if isinstance(obj, Reduction):
        tower, n, k = obj.tower, obj.n, obj.k
        rows = obj.generator()
        blocks_line = ("blocks n=" + ",".join(str(x) for x in obj.lengths)
                       + " k=" + ",".join(str(x) for x in obj.dims))
    elif isinstance(obj, LinearCode):
        tower, n, k = obj.tower, obj.n, obj.k
        rows = [list(r) for r in obj.G]
        blocks_line = None
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    lines = [
        f"field p={tower.p} m={tower.m} modulus=" + ",".join(str(c) for c in tower.modulus),
        f"code n={n} k={k}",
    ]
    if blocks_line:
        lines.append(blocks_line)
    return "\n".join(lines + _format_rows(tower, rows)) + "\n"


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

    if lengths is None:
        try:
            return LinearCode(tower, n, rows)
        except ValueError as exc:
            raise CodeFileError(row_linenos[0] if row_linenos else lineno, str(exc)) from None

    offsets = [0]
    for n_j in lengths:
        offsets.append(offsets[-1] + n_j)
    pos = 0
    for i, k_i in enumerate(dims):
        for r in range(k_i):
            row = rows[pos]
            if any(row[c] != 0 for c in range(offsets[i])):
                raise CodeFileError(row_linenos[pos],
                                    f"row violates the zero pattern of block row {i + 1}")
            pos += 1
    try:
        return Reduction.from_generator(tower, lengths, dims, rows)
    except ValueError as exc:
        raise CodeFileError(row_linenos[0] if row_linenos else lineno, str(exc)) from None
