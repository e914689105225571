"""The rank-metric layer.

A vector c in F_{q^m}^n is identified with the m x n matrix over F_q whose
column j holds the coordinates of c_j in the tower's alpha-basis.  The
rank weight of c is the rank of that matrix; the weight of a subspace D
is the dimension of its Galois closure D* = D + D^[1] + ... + D^[m-1],
the smallest Frobenius-stable space containing D.

Galois closed spaces are exactly the spaces with a generator matrix over
the base field, and are always normalized here to their unique F_q RREF
basis so equality of spaces is plain equality of bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import linalg


def matrix_rep(tower, vec: Sequence[int]) -> List[List[int]]:
    """m x n coordinate matrix of vec in the alpha-basis (entries in F_p)."""
    m = tower.m
    cols = [linalg.vec_mat(tower.coeffs(c), tower.basis_inv, m, tower) for c in vec]
    return [[col[i] for col in cols] for i in range(m)]


def rank_weight(tower, vec: Sequence[int]) -> int:
    """Rank over F_q of the coordinate matrix; basis choice does not matter."""
    return linalg.rank(matrix_rep(tower, vec), len(vec), tower)


def vector_frobenius(tower, vec: Sequence[int], i: int = 1) -> List[int]:
    frob = tower.frobenius
    return [frob(c, i) for c in vec]


def vector_trace(tower, vec: Sequence[int]) -> List[int]:
    """Componentwise trace down to F_q^n."""
    tr = tower.trace
    return [tr(c) for c in vec]


def closure_basis_ext(tower, rows: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """RREF basis over F_{q^m} of the Galois closure of the row space."""
    stacked = []
    for i in range(tower.m):
        for row in rows:
            stacked.append(vector_frobenius(tower, row, i))
    return linalg.rref_nonzero(stacked, ncols, tower)


def closure_dim(tower, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """dim(D*) for D the row space; this equals the rank weight of D."""
    return len(closure_basis_ext(tower, rows, ncols))


def min_closure(code, r: int) -> Tuple[List[List[int]], int]:
    """(message basis, weight) of the first r-dimensional subcode of least
    closure dimension in the order of :func:`linalg.subspace_bases`; it visits
    at most [k r]_{q^m} candidates.  For r = 1 the weight is the rank distance."""
    tower = code.tower
    best = None
    for basis in linalg.subspace_bases(code.k, r, range(tower.order)):
        w = closure_dim(tower, [code.codeword(x) for x in basis], code.n)
        if best is None or w < best[1]:
            best = basis, w
            if w == r:
                break
    return best


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
    """Galois closure of the row space, as its canonical F_q basis.

    The closure is computed over the extension field first; an F_q basis
    is then extracted from the trace vectors Tr(beta * w) for w in the
    extension basis and beta running over the polynomial basis, which span
    the fixed space of any Frobenius-stable space.
    """
    ext = closure_basis_ext(tower, rows, ncols)
    poly_basis = [tower.from_coeffs(e) for e in linalg.identity(tower.m)]
    candidates = []
    for w in ext:
        for beta in poly_basis:
            candidates.append(vector_trace(tower, tower.scale(beta, w)))
    reduced = linalg.rref_nonzero(candidates, ncols, tower) if candidates else []
    if len(reduced) != len(ext):
        raise AssertionError("fixed-space extraction lost dimensions")
    return GaloisClosedSpace(tower, ncols, tuple(tuple(r) for r in reduced))
