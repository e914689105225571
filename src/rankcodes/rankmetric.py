"""The rank-metric layer.

A vector c in F_{q^m}^n is identified with the m x n matrix over F_q whose
column j holds the coordinates of c_j in the tower's basis alpha_i =
y^(i-1), that is, row i holds digit i of every entry.  The rank weight of c
is the rank of that matrix; the weight of a subspace D is the dimension of
its Galois closure D* = D + D^[1] + ... + D^[m-1], the smallest
Frobenius-stable space containing D.

Every closure is computed over F_q from coordinate slices, the rows of
those matrices (:func:`matrix_rep`; the F_q span of the slices does not
depend on the basis).  For a basis c_1..c_r of D, the F_q span of the
slices of the c_i is the rank support of D: its dimension is dim D*, and
it is D* ∩ F_q^n, so D* is its F_{q^m}-span.  A basis suffices because the
coordinate matrix of beta*c is an invertible F_q matrix times that of c.
No Frobenius power is taken.  Slices are F_q-linear in the vector.  Over
F_2 the m slices of a vector are packed into one int, so those of a sum
are one XOR, and they are reduced by XOR; other slices are rows reduced by
:func:`linalg.extend_rows`.  This choice of kernel (:func:`_walk_kernel`)
is the only place where the characteristic changes the code path.

The subcode oracle :func:`min_closure` is the rank-tree walk of
:func:`linalg.rank_leaves` on the generator matrix, with the slices of each
codeword as its items: a prefix of basis rows fixes part of the support,
which every extension shares and can only grow.

Galois closed spaces are exactly the spaces with a generator matrix over
the base field, and are always normalized here to their unique F_q RREF
basis so equality of spaces is plain equality of bases.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import linalg


def matrix_rep(tower, vec: Sequence[int]) -> List[List[int]]:
    """m x n coordinate matrix of vec over F_q: row i holds digit i of
    every entry, its coefficient of alpha_{i+1} = y^i."""
    p = tower.p
    return [[c // a % p for c in vec] for a in tower.alphas]


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


def _xor_extend(tower, echelon: list, slices: list) -> list:
    """:func:`linalg.extend_rows` for p = 2, on packed slices: ``echelon``
    is an XOR basis whose leading bits differ, and each slice independent
    of it is appended reduced against every row before it."""
    out = list(echelon)
    for s in slices:
        for b in out:
            if s ^ b < s:
                s ^= b
        if s:
            out.append(s)
    return out


def _pack(tower, vec: Sequence[int]) -> int:
    """The slices of vec over F_2 in one int: slice i takes bits i·n to
    i·n + n − 1, for n = len(vec), so digit i of entry j is bit i·n + j.
    XOR of two packings is the packing of the sum."""
    n, out = len(vec), 0
    for j, c in enumerate(vec):
        bit = 1 << j
        while c:
            if c & 1:
                out |= bit
            c >>= 1
            bit <<= n
    return out


def _walk_kernel(tower, n: int) -> tuple:
    """The :func:`linalg.rank_leaves` kernel for the slices of rows of
    length n: over F_2 an image is one :func:`_pack` int, added by XOR."""
    if tower.p != 2:
        return linalg.row_kernel(tower, matrix_rep)
    mask, shifts = (1 << n) - 1, range(0, tower.m * n, n)
    return _pack, operator.xor, lambda tower, x: [(x >> s) & mask for s in shifts], _xor_extend


def closure_dim(tower, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """dim(D*) for D the row space: the F_q rank of the coordinate slices
    of the rows, which is the rank weight of D."""
    pack, _, item, extend = _walk_kernel(tower, ncols)
    echelon = []
    for row in rows:
        echelon = extend(tower, echelon, item(tower, pack(tower, row)))
    return len(echelon)


def min_closure(code, r: int) -> Tuple[List[List[int]], int]:
    """(message basis, weight) of the first r-dimensional subcode of least
    closure dimension in the order of :func:`linalg.subspace_bases`.  For
    r = 1 the weight is the rank distance.

    The subcodes are the leaves of :func:`linalg.rank_leaves` on the
    generator matrix, at most [k r]_{q^m} of them: each level inserts the
    m coordinate slices of one codeword into its prefix's F_q echelon, so a
    prefix whose support already has the least dimension found is skipped.
    The walk stops at the first weight r, the least possible.  Over F_2 a
    codeword's slices are one int, one XOR per free message coordinate.
    """
    tower, least = code.tower, []
    kernel = _walk_kernel(tower, code.n)
    for w in linalg.rank_leaves(tower, code.G, r, tower.order, kernel, least):
        if w == r:
            break
    return tuple(least)


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


def galois_closure(tower, rows: Sequence[Sequence[int]], ncols: int) -> GaloisClosedSpace:
    """Galois closure of the row space, as its canonical F_q basis: the
    RREF of the coordinate slices of the rows, whose F_q span is D* ∩ F_q^n."""
    slices = [s for row in rows for s in matrix_rep(tower, row)]
    reduced = linalg.rref_nonzero(slices, ncols, tower)
    return GaloisClosedSpace(tower, ncols, tuple(tuple(r) for r in reduced))
