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
No Frobenius power is taken.  Slices are F_q-linear in the vector.  The
m slices of a vector are packed into one int of F_p digits (:func:`_pack`),
so those of a sum are one packed addition: XOR over F_2, and for odd p an
integer sum that subtracts p from every digit that reached it.  Slices are
reduced on the packed digits too: by XOR over F_2, and for odd p by adding
a precomputed multiple of each echelon row.  This choice of kernel
(:func:`_digit_ops`, :func:`_walk_kernel`, :func:`_row_packer`) is the only
place outside the field where the characteristic changes the code path;
the joint leakage enumeration packs and adds its images with the same
digits, and the closed walk its reduced syndromes.

The subcode oracle :func:`min_closure` is the rank-tree walk of
:func:`linalg.rank_leaves` on the generator matrix, with the slices of each
codeword as its items: a prefix of basis rows fixes part of the support,
which every extension shares and can only grow.

Galois closed spaces are exactly the spaces with a generator matrix over
the base field, and are always normalized here to their unique F_q RREF
basis so equality of spaces is plain equality of bases.
"""

from __future__ import annotations

import functools
import operator
from typing import List, NamedTuple, Sequence, Tuple

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


def _xor_extend(echelon: list, slices: list, cap: int) -> list:
    """The p = 2 echelon kernel on packed slices: ``echelon`` is an XOR
    basis whose leading bits differ, and each slice independent of it is
    appended reduced against every row before it.  It returns once the
    basis reaches ``cap`` rows, and copies ``echelon`` only to append."""
    out = echelon
    for s in slices:
        for b in out:
            if s ^ b < s:
                s ^= b
        if s:
            out = out + [s]
            if len(out) >= cap:
                break
    return out


def _pack(p: int, n: int, w: int, vec: Sequence[int]) -> int:
    """The slices of vec in one int of w-bit fields: digit i of entry j
    fills the field at bit (i·n + j)·w, so slice i takes fields i·n to
    i·n + n − 1.  Over F_2 (w = 1) XOR of two packings is the packing of
    the sum."""
    stride, out = n * w, 0
    for j, c in enumerate(vec):
        shift = j * w
        while c:
            c, d = divmod(c, p)
            out |= d << shift
            shift += stride
    return out


def _digit_constants(p: int, w: int, fields: int) -> tuple:
    """(bias, high) over ``fields`` w-bit fields: bias holds 2^(w−1) − p
    in every field and high every field's top bit.  Adding bias to a
    field holding a digit sum s <= 2p − 2 carries no bit out of the field
    and sets its top bit exactly when s >= p."""
    ones = sum(1 << k * w for k in range(fields))
    return ((1 << w - 1) - p) * ones, ones << w - 1


def _digit_add(p: int, w: int, fields: int):
    """Addition mod p of packed digits: one integer sum, then p is
    subtracted from every field that reached p, found by one added
    constant and the mask of high bits (:func:`_digit_constants`)."""
    bias, high = _digit_constants(p, w, fields)
    top = w - 1

    def add(a: int, b: int) -> int:
        s = a + b
        return s - (((s + bias) & high) >> top) * p
    return add


def _digit_extend(p: int, w: int, n: int):
    """The odd-p echelon kernel on packed slices of n digits.  A row is
    kept as (pivot shift, cancel): its pivot is its lowest nonzero field,
    and cancel[d] is the packed multiple of the row that is −d at the
    pivot, so a slice with digit d there is reduced by one addition.  Each
    row is 0 at the pivots before it, and each new slice is reduced
    against every row in order.  ``echelon`` is copied only to append.
    A slice that would bring the echelon to ``cap`` rows ends the call:
    it is appended as None, without its multiples, since a result at the
    cap is only counted and nothing is reduced against it."""
    bias, high = _digit_constants(p, w, n)
    top, dmask, add = w - 1, (1 << w) - 1, _digit_add(p, w, n)
    # for pivot digit e, cancel[d] = order[e][d]·row: c·e + d ≡ 0 (mod p)
    order = [None] + [[(p - d) * pow(e, -1, p) % p for d in range(p)] for e in range(1, p)]

    def extend(echelon: list, slices: list, cap: int) -> list:
        out = echelon
        for s in slices:
            for shift, cancel in out:
                d = (s >> shift) & dmask
                if d:
                    s += cancel[d]
                    s -= (((s + bias) & high) >> top) * p
            if s:
                if len(out) + 1 >= cap:
                    return out + [None]
                shift = ((s & -s).bit_length() - 1) // w * w
                multiples = [0, s]
                for _ in range(p - 2):
                    multiples.append(add(multiples[-1], s))
                out = out + [(shift, [multiples[c] for c in order[(s >> shift) & dmask]])]
        return out
    return extend


def _digit_ops(p: int, fields: int) -> tuple:
    """(w, add) for ``fields`` packed F_p digits of w bits each.  Over F_2
    the fields are single bits added by XOR; for odd p they are
    w = bit_length(2p − 2) + 1 bits wide, so a sum of two digits and the
    bias of :func:`_digit_constants` fit, added by :func:`_digit_add`."""
    if p == 2:
        return 1, operator.xor
    w = (2 * p - 2).bit_length() + 1
    return w, _digit_add(p, w, fields)


def _walk_kernel(tower, n: int) -> tuple:
    """The :func:`linalg.rank_leaves` kernel for the slices of rows of
    length n.  An image is one :func:`_pack` int of all m slices, split
    into its m slices (one int each) as its items, added as
    :func:`_digit_ops` says and reduced by :func:`_xor_extend` over F_2 and
    :func:`_digit_extend` for odd p."""
    p, m = tower.p, tower.m
    w, add = _digit_ops(p, m * n)
    width = n * w
    mask, shifts = (1 << width) - 1, range(0, m * width, width)

    def item(x: int) -> list:
        return [(x >> s) & mask for s in shifts]

    extend = _xor_extend if p == 2 else _digit_extend(p, w, n)
    return functools.partial(_pack, p, n, w), add, item, extend


def _row_packer(tower, n: int) -> tuple:
    """(pack, add) for rows of n codes whose packings are only added and
    tested for zero, so that any layout will do.  Over F_2 the m bits of a
    code are its digits, and entry j is shifted up by j·m bits; for odd p
    a row is packed by :func:`_pack` and added as :func:`_digit_ops` says."""
    p, m = tower.p, tower.m
    if p == 2:
        shifts = range(0, n * m, m)
        return lambda row: sum(map(operator.lshift, row, shifts)), operator.xor
    w, add = _digit_ops(p, m * n)
    return functools.partial(_pack, p, n, w), add


def closure_dim(tower, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """dim(D*) for D the row space: the F_q rank of the coordinate slices
    of the rows, which is the rank weight of D.  The cap ncols + 1 is above
    every rank of slices of length ncols, so each insertion is exact."""
    pack, _, item, extend = _walk_kernel(tower, ncols)
    echelon = []
    for row in rows:
        echelon = extend(echelon, item(pack(row)), ncols + 1)
    return len(echelon)


def min_closure(code, r: int) -> Tuple[List[List[int]], int]:
    """(message basis, weight) of the first r-dimensional subcode of least
    closure dimension in the order of :func:`linalg.subspace_bases`.  For
    r = 1 the weight is the rank distance.

    The subcodes are the leaves of :func:`linalg.rank_leaves` on the
    generator matrix, at most [k r]_{q^m} of them: each level inserts the
    m coordinate slices of one codeword into its prefix's F_q echelon, so a
    prefix whose support already has the least dimension found is skipped.
    The walk stops at the first weight r, the least possible.  A
    codeword's slices are one packed int, one packed addition per free
    message coordinate.
    """
    tower, least = code.tower, []
    kernel = _walk_kernel(tower, code.n) + (None,)
    for w in linalg.rank_leaves(tower, code.G, r, tower.order, kernel, least):
        if w == r:
            break
    return tuple(least)


class GaloisClosedSpace(NamedTuple):
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
