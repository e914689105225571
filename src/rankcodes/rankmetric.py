"""The rank-metric layer.

A vector c in F_{q^m}^n is identified with the m x n matrix over F_q whose
column j holds the coordinates of c_j in the tower's alpha-basis.  The
rank weight of c is the rank of that matrix; the weight of a subspace D
is the dimension of its Galois closure D* = D + D^[1] + ... + D^[m-1],
the smallest Frobenius-stable space containing D.

Every closure is computed over F_q from coordinate slices, the rows of
those matrices (in any F_q-basis of F_{q^m}; the span does not depend on
it).  For a basis c_1..c_r of D, the F_q span of the slices of the c_i is
the rank support of D: its dimension is dim D*, and it is D* ∩ F_q^n, so
D* is its F_{q^m}-span.  A basis suffices because the coordinate matrix of
beta*c is an invertible F_q matrix times that of c.  No Frobenius power is
taken.  Slices over F_2 are packed into ints and reduced by XOR; this is
the only place where the characteristic changes the code path.

The subcode oracle :func:`min_closure` walks the r-dimensional subcodes as
a tree: a prefix of basis rows fixes part of the support, which every
extension shares and can only grow.

Galois closed spaces are exactly the spaces with a generator matrix over
the base field, and are always normalized here to their unique F_q RREF
basis so equality of spaces is plain equality of bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from . import linalg


def matrix_rep(tower, vec: Sequence[int]) -> List[List[int]]:
    """m x n coordinate matrix of vec in the alpha-basis (entries in F_p)."""
    m = tower.m
    cols = [linalg.vec_mat(tower.coeffs(c), tower.basis_inv, m, tower) for c in vec]
    return [[col[i] for col in cols] for i in range(m)]


def rank_weight(tower, vec: Sequence[int]) -> int:
    """Rank over F_q of the coordinate matrix; basis choice does not matter."""
    return closure_dim(tower, [vec], len(vec))


def vector_frobenius(tower, vec: Sequence[int], i: int = 1) -> List[int]:
    frob = tower.frobenius
    return [frob(c, i) for c in vec]


def vector_trace(tower, vec: Sequence[int]) -> List[int]:
    """Componentwise trace down to F_q^n."""
    tr = tower.trace
    return [tr(c) for c in vec]


def _slices(tower, vec: Sequence[int]) -> list:
    """The m coordinate slices of vec over F_q: slice i holds digit i (in
    the polynomial basis) of every entry.  Their F_q span is the rank
    support of vec, whatever F_q-basis of F_{q^m} is used.  For p = 2 a
    slice is packed into one int, bit j for entry j."""
    p, m = tower.p, tower.m
    if p != 2:
        return [[c // p**i % p for c in vec] for i in range(m)]
    out = [0] * m
    for j, c in enumerate(vec):
        bit, i = 1 << j, 0
        while c:
            if c & 1:
                out[i] |= bit
            c >>= 1
            i += 1
    return out


def _extend(tower, echelon: list, slices: list) -> list:
    """A new echelon: ``echelon`` plus those of ``slices`` (from
    :func:`_slices`) that are independent of it over F_q, each reduced
    against every row before it.  For p = 2 the echelon is an XOR basis
    whose leading bits differ; otherwise it holds (pivot, F_p row) pairs
    reduced with the tower's row kernel."""
    out = list(echelon)
    if tower.p == 2:
        for s in slices:
            for b in out:
                if s ^ b < s:
                    s ^= b
            if s:
                out.append(s)
        return out
    axpy, neg, scale, inv = tower.axpy, tower.neg, tower.scale, tower.inv
    for s in slices:
        for c, e in out:
            if s[c]:
                s = axpy(s, neg(s[c]), e)
        pivot = next((c for c, x in enumerate(s) if x), None)
        if pivot is not None:
            out.append((pivot, scale(inv(s[pivot]), s)))
    return out


def closure_dim(tower, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """dim(D*) for D the row space: the F_q rank of the coordinate slices
    of the rows, which is the rank weight of D."""
    echelon: list = []
    for row in rows:
        echelon = _extend(tower, echelon, _slices(tower, row))
    return len(echelon)


def min_closure(code, r: int) -> Tuple[List[List[int]], int]:
    """(message basis, weight) of the first r-dimensional subcode of least
    closure dimension in the order of :func:`linalg.subspace_bases`; it
    reaches at most [k r]_{q^m} leaves of :func:`_subcode_leaves`.  For
    r = 1 the weight is the rank distance."""
    best = None
    for w, pivots, path in _subcode_leaves(code, r):
        if best is None or w < best[0]:
            best = w, pivots, path
            if w == r:
                break
    w, pivots, path = best
    k = code.k
    basis = []
    for p, idx in zip(pivots, path):
        row = [0] * k
        row[p] = 1
        for j in reversed(_free(p, pivots, k)):
            idx, row[j] = divmod(idx, code.tower.order)
        basis.append(row)
    return basis, w


def _free(p: int, pivots: Sequence[int], k: int) -> List[int]:
    """The free columns of template row p: right of it and not pivots."""
    return [j for j in range(p + 1, k) if j not in pivots]


def _subcode_leaves(code, r: int) -> Iterator[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """(dim D*, pivots, path) for r-dimensional subcodes D, one per leaf of
    a rank-support tree, skipping every subtree that cannot beat the least
    dimension yielded so far.

    D runs over the RREF message bases of each pivot template in the order
    of :func:`linalg.subspace_bases`; ``path`` holds each row's index among
    the messages of its template row, free values in lexicographic order.
    The codewords of each row are computed once per template: rows after
    the first are kept for the walk to revisit, the first is streamed.  The
    walk is depth first over the rows: each level inserts the m coordinate
    slices of one codeword into its prefix's F_q echelon, and a prefix
    whose support already has the least dimension found has no better
    leaf below it, because supports only grow.
    """
    tower, k, G = code.tower, code.k, code.G
    axpy, order = tower.axpy, tower.order
    best = code.n + 1

    def words(w: Sequence[int], cols: List[int]) -> Iterator[Sequence[int]]:
        if not cols:
            yield w
            return
        g, rest = G[cols[0]], cols[1:]
        for v in range(order):
            u = axpy(w, v, g)
            if rest:
                yield from words(u, rest)
            else:
                yield u

    def below(rows, echelon: list, path: Tuple[int, ...]):
        nonlocal best
        for idx, slices in enumerate(rows[0]):
            ext = _extend(tower, echelon, slices)
            if len(rows) == 1:
                best = min(best, len(ext))
                yield len(ext), path + (idx,)
            elif len(ext) < best:
                yield from below(rows[1:], ext, path + (idx,))

    for pivots in itertools.combinations(range(k), r):
        rows = []
        for p in pivots:
            stream = (_slices(tower, w) for w in words(G[p], _free(p, pivots, k)))
            rows.append(list(stream) if rows else stream)
        for w, path in below(rows, [], ()):
            yield w, pivots, path


@dataclass(frozen=True)
class GaloisClosedSpace:
    """A Frobenius-stable F_{q^m}-space, held by its F_q RREF basis."""

    tower: "object"
    n: int
    basis: Tuple[Tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_fq_rows(cls, tower, rows: Sequence[Sequence[int]], n: int) -> "GaloisClosedSpace":
        for row in rows:
            if len(row) != n:
                raise ValueError("row length differs from ambient dimension")
            for x in row:
                if not tower.in_subfield(x):
                    raise ValueError("entries of a Galois closed basis must lie in F_q")
        reduced = linalg.rref_nonzero(rows, n, tower)
        return cls(tower, n, tuple(tuple(r) for r in reduced))

    def contains(self, vec: Sequence[int]) -> bool:
        return linalg.rank(self.basis + (tuple(vec),), self.n, self.tower) == self.dim

    def project(self, start: int, stop: int) -> "GaloisClosedSpace":
        """Coordinate projection onto columns [start, stop); still closed."""
        rows = [row[start:stop] for row in self.basis]
        return GaloisClosedSpace.from_fq_rows(self.tower, rows, stop - start)


def galois_closure(tower, rows: Sequence[Sequence[int]], ncols: int) -> GaloisClosedSpace:
    """Galois closure of the row space, as its canonical F_q basis: the
    RREF of the coordinate slices of the rows, whose F_q span is D* ∩ F_q^n."""
    slices = [s for row in rows for s in matrix_rep(tower, row)]
    reduced = linalg.rref_nonzero(slices, ncols, tower)
    return GaloisClosedSpace(tower, ncols, tuple(tuple(r) for r in reduced))
