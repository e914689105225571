"""Rank equivalences: weight-preserving isomorphisms between Galois
closed spaces, the constructive map onto the all-weights-maximal code,
and product characterizations.

A rank equivalence is pinned down by a pair of base-field bases and a
nonzero scalar: the map sends the i-th source basis vector to beta times
the i-th target basis vector.  Equivalence of codes is always certified
by an explicit witness map, never decided from weight tables alone
(equal tables are necessary, not sufficient).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg, rankmetric
from .codes import LinearCode, Reduction, build_c_opt, cartesian
from .errors import DEFAULT_BUDGET, HypothesisError, InvariantError


class RankEquivalenceMap:
    """phi(v_i) = beta * w_i for paired F_q bases (v_i), (w_i)."""

    def __init__(self, tower, src_basis: Tuple[Tuple[int, ...], ...],
                 dst_basis: Tuple[Tuple[int, ...], ...], beta: int = 1):
        self.tower = tower
        self.src_basis = src_basis
        self.dst_basis = dst_basis
        self.beta = beta
        t = len(self.src_basis)
        if len(self.dst_basis) != t:
            raise ValueError("source and target bases differ in size")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        tower = self.tower
        for rows in (self.src_basis, self.dst_basis):
            for row in rows:
                for x in row:
                    if not tower.in_subfield(x):
                        raise ValueError("basis vectors must have entries in F_q")
        self.src_n = len(self.src_basis[0]) if t else 0
        self.dst_n = len(self.dst_basis[0]) if t else 0
        if t:
            if linalg.rank(self.src_basis, self.src_n, tower) != t:
                raise ValueError("source basis is dependent")
            if linalg.rank(self.dst_basis, self.dst_n, tower) != t:
                raise ValueError("target basis is dependent")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.tower, self.src_basis, self.dst_basis, self.beta)
                == (other.tower, other.src_basis, other.dst_basis, other.beta))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(tower={self.tower!r}, src_basis={self.src_basis!r}, "
                f"dst_basis={self.dst_basis!r}, beta={self.beta!r})")

    @property
    def dim(self) -> int:
        return len(self.src_basis)

    def coords(self, vec: Sequence[int]) -> Optional[List[int]]:
        """Coordinates of vec over the source basis, or None if outside."""
        M = linalg.transpose(self.src_basis, self.src_n)
        return linalg.solve_right(M, self.dim, list(vec), self.tower)

    def apply(self, vec: Sequence[int]) -> List[int]:
        lam = self.coords(vec)
        if lam is None:
            raise ValueError("vector lies outside the source space")
        out = linalg.vec_mat(lam, self.dst_basis, self.dst_n, self.tower)
        return self.tower.scale(self.beta, out)

    def apply_code(self, code: LinearCode) -> LinearCode:
        return LinearCode(self.tower, self.dst_n, [self.apply(row) for row in code.G])

    def lines(self) -> List[str]:
        fmt = self.tower.format_scalar
        out = [f"map t={self.dim} n={self.src_n} n'={self.dst_n}"]
        for row in self.src_basis:
            out.append("src " + " ".join(fmt(x) for x in row))
        for row in self.dst_basis:
            out.append("dst " + " ".join(fmt(x) for x in row))
        out.append(f"beta {fmt(self.beta)}")
        return out


def dual_alpha_basis(tower) -> Tuple[int, ...]:
    """The basis beta with sum_i beta_i^[l-1] alpha_i^[j-1] = delta_{jl}.

    Solves e_1 = beta * A for the Moore matrix A = (alpha_i^[j-1]) and
    verifies both orthogonality identities before returning.
    """
    m = tower.m
    A = [[tower.frobenius(a, j) for j in range(m)] for a in tower.alphas]
    e1 = [1] + [0] * (m - 1)
    beta = linalg.solve_right(linalg.transpose(A, m), m, e1, tower)
    if beta is None or linalg.rank(A, m, tower) != m:
        raise InvariantError("Moore matrix of a basis must be invertible")
    for l, expect in enumerate(linalg.identity(m)):
        row = [tower.frobenius(b, l) for b in beta]
        prod = linalg.vec_mat(row, A, m, tower)
        if prod != expect:
            raise InvariantError("dual basis identity failed")
    B = [[tower.frobenius(b, j) for j in range(m)] for b in beta]
    if linalg.rank(B, m, tower) != m:
        raise InvariantError("Moore matrix of the dual basis must be invertible")
    if linalg.vec_mat(list(tower.alphas), B, m, tower) != e1:
        raise InvariantError("reverse dual basis identity failed")
    return tuple(beta)


class ToOptResult(NamedTuple):
    map: RankEquivalenceMap
    c_opt: Reduction
    certified: bool

    def lines(self) -> List[str]:
        return self.map.lines() + [f"certified={'true' if self.certified else 'false'}"]


def to_c_opt(code: LinearCode, budget: int = DEFAULT_BUDGET) -> ToOptResult:
    """Construct the rank equivalence onto the canonical all-weights-
    maximal code of the same dimension.

    Only codes whose exact weight table is (m, 2m, ..., km) qualify; the
    table is computed first, under ``budget``, and anything else is
    refused.  The map sends the trace vectors Tr(beta_i b_s) of the stored
    generator rows b_s to the canonical coordinate vectors, block s of
    width m, where beta is the dual of the tower's basis alpha_i = y^(i-1).
    """
    from .grw import grw_table_exact

    tower = code.tower
    m, k = tower.m, code.k
    if k < 1:
        raise HypothesisError("the construction needs a nonzero code")
    table, _ = grw_table_exact(code, budget)
    expected = [r * m for r in range(1, k + 1)]
    if table != expected:
        raise HypothesisError(
            f"weight table {table} is not (m, 2m, ..., km); "
            "the construction applies only to all-weights-maximal codes")

    beta = dual_alpha_basis(tower)
    traces: List[List[int]] = []
    for b_s in code.G:
        for b_i in beta:
            traces.append(rankmetric.vector_trace(tower, tower.scale(b_i, b_s)))
    if linalg.rank(traces, code.n, tower) != k * m:
        raise InvariantError("trace vectors of a maximal-weight code must be independent")
    for s, b_s in enumerate(code.G):
        recon = linalg.vec_mat(tower.alphas, traces[s * m:(s + 1) * m], code.n, tower)
        if recon != list(b_s):
            raise InvariantError(f"reconstruction identity failed for generator row {s}")

    dst = linalg.identity(k * m)
    psi = RankEquivalenceMap(tower, tuple(tuple(r) for r in traces),
                             tuple(tuple(r) for r in dst), 1)
    c_opt = build_c_opt(tower, k)
    image = psi.apply_code(code)
    if not image.equals(c_opt.code()):
        raise InvariantError("image of the generator must be the canonical code")
    return ToOptResult(psi, c_opt, True)


class ProductCharacterization(NamedTuple):
    equivalent: bool
    closure_dims: List[int]
    total_closure_dim: int
    deficiency: int
    witness: Optional[RankEquivalenceMap]
    product: Optional[Reduction]


def product_characterization(parts: Sequence[LinearCode]) -> ProductCharacterization:
    """Decide whether a direct sum decomposition makes the code rank
    equivalent to the cartesian product of its summands.

    The criterion is additive closures: the sum of the summands' closure
    dimensions must equal the closure dimension of the whole code.  When
    it does, the witness maps each summand's closure basis onto its own
    canonical coordinate block.  No summands make the zero code, the
    empty product: equivalent, with no witness.
    """
    if not parts:
        return ProductCharacterization(True, [], 0, 0, None, None)
    tower = parts[0].tower
    n = parts[0].n
    if any(c.tower != tower or c.n != n for c in parts):
        raise ValueError("summands must share one ambient space")
    stacked = [row for c in parts for row in c.G]
    k = sum(c.k for c in parts)
    if linalg.rank(stacked, n, tower) != k:
        raise ValueError("the given decomposition is not a direct sum")

    closures = [rankmetric.galois_closure(tower, c.G, n) for c in parts]
    dims = [cl.dim for cl in closures]
    total = rankmetric.closure_dim(tower, stacked, n)
    sum_basis = [list(row) for cl in closures for row in cl.basis]
    # the closure of the sum is the sum of the closures, so condition 2
    # (the closures sum directly) is exactly condition 3 (additive dims)
    if total != linalg.rank(sum_basis, n, tower):
        raise InvariantError("closure of the sum differs from the sum of closures")
    deficiency = sum(dims) - total
    if deficiency:
        return ProductCharacterization(False, dims, total, deficiency, None, None)

    src = [row for cl in closures for row in cl.basis]
    width = sum(dims)
    dst = linalg.identity(width)
    psi = RankEquivalenceMap(tower, tuple(tuple(r) for r in src),
                             tuple(tuple(r) for r in dst), 1)
    factors = []
    offset = 0
    for c, cl in zip(parts, closures):
        rows = []
        for g in c.G:
            img = psi.apply(g)
            rows.append(img[offset:offset + cl.dim])
        factors.append(LinearCode(tower, cl.dim, rows) if cl.dim else None)
        offset += cl.dim
    product = cartesian([f for f in factors if f is not None])
    image = psi.apply_code(LinearCode(tower, n, stacked))
    if not image.equals(product.code()):
        raise InvariantError("witness image must be the product")
    return ProductCharacterization(True, dims, total, 0, psi, product)


def exact_product_test(R: Reduction) -> bool:
    """Whether the reducible code *is* the product of its main components.

    Evaluates four equivalent criteria (generator equality, equality with
    the column-component product, per-block column dimensions, membership
    of the off-diagonal rows) and insists they agree.
    """
    tower = R.tower
    mains = [R.main_component(i) for i in range(R.l)]
    cond1 = R.code().equals(cartesian(mains).code())
    khat = [R.column_component(j).k for j in range(R.l)]
    cond3 = all(khat[j] == R.dims[j] for j in range(R.l))
    cond2 = sum(khat) == R.k  # C is always inside the column product
    cond4 = True
    for j in range(1, R.l):
        comp = mains[j]
        for i in range(j):
            for row in R.block(i, j):
                if any(row) and not comp.contains_vector(row):
                    cond4 = False
    if not cond1 == cond2 == cond3 == cond4:
        raise InvariantError("product criteria disagree")
    return cond1
