"""Dense exact linear algebra over a field tower.

Matrices are plain lists of rows; a row is a list of scalar codes from one
:class:`~rankcodes.field.FieldTower`.  The column count travels alongside
the rows so zero-row matrices keep a shape.  The same routines serve both
the extension field and the base field (base-field matrices are simply
matrices whose entries are codes below p, and F_p is closed under all the
row operations used here).

Subspace enumeration yields each subspace exactly once as its unique
reduced row echelon basis, in a fixed lexicographic order; the plain scans
that check both GRW oracles use it.  It carries no budget, because its size
is known beforehand (:func:`gaussian_binomial`).

Both GRW oracles meet the subspaces in the same order as a tree instead
(:func:`rank_leaves`): a prefix of basis rows fixes the rank of their images
under one matrix, which every extension shares and can only grow.
:func:`extend_rows` is the one elimination loop over the tower: the closed
walk inserts its syndromes with it above the leaf level and reduces each
leaf row's generators with its :func:`_reduce`, once per prefix;
:func:`rank` is the length of its echelon and :func:`rref` finishes that
echelon.  The subcode walk reduces packed digits instead
(:func:`rankmetric._walk_kernel`).

Membership in a code and dim(C ∩ V) are not computed here by stacking
rows: :class:`~rankcodes.codes.LinearCode` answers both from its cached
parity check.
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Iterator, List, Optional, Sequence

from .errors import InvariantError

Row = List[int]
Rows = List[Row]


def zeros(nrows: int, ncols: int) -> Rows:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> Rows:
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


def copy_rows(rows: Sequence[Sequence[int]]) -> Rows:
    return [list(r) for r in rows]


def transpose(rows: Sequence[Sequence[int]], ncols: int) -> Rows:
    return [[row[j] for row in rows] for j in range(ncols)]


def rref(rows: Sequence[Sequence[int]], ncols: int, tower) -> tuple[Rows, List[int]]:
    """Reduced row echelon form.

    Returns (R, pivot_columns).  Zero rows sink to the bottom; the result
    is the unique RREF of the row space, so two matrices generate the same
    space iff their nonzero RREF rows agree.  The echelon of
    :func:`extend_rows`, sorted by pivot, is a row echelon form; each row
    is scaled to a leading 1 and then clears its pivot column from the
    rows before it.
    """
    R: Rows = []
    pivots: List[int] = []
    for c, row, f in sorted(extend_rows(tower, [], rows)):
        row = list(row) if row[c] == 1 else tower.scale(tower.neg(f), row)
        for i, other in enumerate(R):
            if other[c]:
                R[i] = tower.axpy(other, tower.neg(other[c]), row)
        R.append(row)
        pivots.append(c)
    return R + zeros(len(rows) - len(R), ncols), pivots


def rref_nonzero(rows: Sequence[Sequence[int]], ncols: int, tower) -> Rows:
    R, piv = rref(rows, ncols, tower)
    return R[: len(piv)]


def rank(rows: Sequence[Sequence[int]], ncols: int, tower) -> int:
    return len(extend_rows(tower, [], rows))


def kernel(rows: Sequence[Sequence[int]], ncols: int, tower) -> Rows:
    """RREF basis of the right null space {v : rows . v^T = 0}."""
    R, pivots = rref(rows, ncols, tower)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    neg = tower.neg
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = neg(R[i][f])
        basis.append(v)
    return rref_nonzero(basis, ncols, tower) if basis else []


def matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], tower) -> Rows:
    ncols = len(B[0]) if B else 0
    return [vec_mat(arow, B, ncols, tower) for arow in A]


def vec_mat(x: Sequence[int], rows: Sequence[Sequence[int]], ncols: int, tower) -> Row:
    """Row vector times matrix."""
    axpy = tower.axpy
    acc = [0] * ncols
    for xi, row in zip(x, rows):
        if xi:
            acc = axpy(acc, xi, row)
    return acc


def solve_right(M: Sequence[Sequence[int]], ncols: int, b: Sequence[int], tower) -> Optional[Row]:
    """One solution x of M x^T = b^T, or None when inconsistent."""
    if len(b) != len(M):
        raise ValueError("right hand side length mismatch")
    aug = [list(row) + [bi] for row, bi in zip(M, b)]
    R, pivots = rref(aug, ncols + 1, tower)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, p in enumerate(pivots):
        x[p] = R[i][ncols]
    return x


_WORD = (1 << 64) - 1


class PhiloxStream:
    """Pure-Python Philox4x64-10 that draws what numpy's
    ``Generator(Philox(key))`` draws, for :meth:`integers` only.

    The 256-bit counter starts at 0 and steps before each block; the four
    words of a block are handed out in order.  A 32-bit draw takes the low
    half of a word and keeps the high half for the next 32-bit draw.
    """

    def __init__(self, key: int):
        self._key = (key & _WORD, key >> 64)
        self._counter = 0
        self._words: List[int] = []
        self._half: Optional[int] = None

    def _next64(self) -> int:
        if not self._words:
            self._counter = (self._counter + 1) & ((1 << 256) - 1)
            c = self._counter
            c0, c1, c2, c3 = c & _WORD, (c >> 64) & _WORD, (c >> 128) & _WORD, c >> 192
            k0, k1 = self._key
            # ten rounds of Random123's Philox4x64: two 64x64 -> 128-bit
            # products per round, then a Weyl step of the key
            for _ in range(10):
                p0 = 0xD2E7470EE14C6C93 * c0
                p1 = 0xCA5A826395121157 * c2
                c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _WORD,
                                  (p0 >> 64) ^ c3 ^ k1, p0 & _WORD)
                k0 = (k0 + 0x9E3779B97F4A7C15) & _WORD
                k1 = (k1 + 0xBB67AE8584CAA73B) & _WORD
            self._words = [c3, c2, c1, c0]
        return self._words.pop()

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def _below(self, n: int) -> int:
        """Uniform draw from range(n), by Lemire's rejection as numpy does:
        32-bit draws up to n = 2^32 (where it is one plain draw), 64-bit above."""
        if n == 1:
            return 0
        bits, draw = (32, self._next32) if n <= 1 << 32 else (64, self._next64)
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = (1 << bits) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits

    def integers(self, low: int, high: int, size=None):
        """Draws from range(low, high): one int for ``size=None``, a list for
        an int size, a list of rows for ``size=(rows, cols)``."""
        n = high - low
        if n <= 0:
            raise ValueError(f"empty range [{low}, {high})")
        if size is None:
            return low + self._below(n)
        if isinstance(size, int):
            return [low + self._below(n) for _ in range(size)]
        rows, cols = size
        return [[low + self._below(n) for _ in range(cols)] for _ in range(rows)]


def rng_stream(seed: int, label: str = "") -> PhiloxStream:
    """Counter-based generator for the (seed, stream-label) pair.

    Philox streams keyed by a hash of the pair are independent and
    reproducible across platforms, so parallel workers can draw from
    disjoint labels without coordination.  The key is the first 16 bytes
    of sha256(f"{seed}:{label}"), little-endian, and the stream is the one
    numpy's ``Generator(Philox(key))`` gives, drawn without numpy.
    """
    import hashlib

    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return PhiloxStream(int.from_bytes(digest[:16], "little"))


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InvariantError(f"Gaussian binomial [{n} {d}]_{q} is not an integer")
    return num // den


def subspace_bases(n: int, d: int, elements: Sequence[int]) -> Iterator[Rows]:
    """Yield every d-dim subspace of F^n once, as its canonical RREF basis.

    ``elements`` lists the scalar codes of the ground field (the extension
    field or its base field); no arithmetic is needed because an RREF
    matrix is determined by its pivot columns plus free entries.  Bases
    come out in a fixed lexicographic order.
    """
    if d == 0:
        yield []
        return
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        template = [[0] * n for _ in range(d)]
        for i, p in enumerate(pivots):
            template[i][p] = 1
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, n) if j not in pivset]
        if not free:
            yield copy_rows(template)
            continue
        for vals in itertools.product(elements, repeat=len(free)):
            basis = copy_rows(template)
            for (i, j), v in zip(free, vals):
                basis[i][j] = v
            yield basis


def extend_rows(tower, echelon: list, rows: Sequence[Sequence[int]]) -> list:
    """``echelon`` plus those of ``rows`` that are independent of it.

    The echelon is a list of (pivot, row, factor) triples: each row is
    nonzero at its pivot and 0 at the pivots before it, so the length of
    the list is the rank of the span, and factor is −1/row[pivot].  Each
    new row is reduced against every triple before it (:func:`_reduce`)
    and appended when nonzero.  No row is scaled to a leading 1, which
    would cost a new row per insertion.  Neither argument is changed; the
    result is a new list unless nothing is added.  This is the one
    elimination loop over the tower: :func:`rank` is the length of its
    echelon, :func:`rref` finishes it, and the closed walk's leaves reduce
    their rows with its :func:`_reduce`.
    """
    out = echelon
    for s in rows:
        s = _reduce(tower, out, s)
        for c, x in enumerate(s):
            if x:
                out = out + [(c, s, tower.neg(tower.inv(x)))]
                break
    return out


def _reduce(tower, echelon: list, row: Sequence[int]) -> Sequence[int]:
    """``row`` reduced against every triple of an :func:`extend_rows`
    echelon in order: a linear map of ``row``, 0 at every pivot, so 0
    exactly when ``row`` lies in the span of the echelon."""
    for c, e, f in echelon:
        if row[c]:
            row = tower.axpy(row, tower.mul(row[c], f), e)
    return row


def rank_leaves(tower, M: Sequence[Sequence[int]], d: int, order: int,
                kernel: tuple, least: list) -> Iterator[int]:
    """Ranks of V·M for the d-dimensional subspaces V of F^n (n = len(M),
    d >= 1, F the field of the codes below ``order``), one per leaf of a
    rank tree, skipping every subtree that cannot go below the least rank
    yielded so far.  Exhausting it therefore reaches the least rank.

    V runs over the RREF bases of :func:`subspace_bases`, template by
    template.  Row i of a pivot template is e_{p_i} plus a combination of
    its free columns, so its image is M[p_i] + Σ v_j M[j].  With
    ``kernel`` = (pack, add, item, extend, leaf), the images of each row
    are formed once per template, free values in lexicographic order, from
    ``pack(M[p_i])`` by one ``add`` per free column of a multiple
    ``pack(v·M[j])`` (:func:`_multiples`, built on first use), and each is
    kept as ``item(image)``.  The walk is depth first over the rows: each
    level inserts one item into its prefix's echelon with
    ``extend(echelon, item, cap)``, and a prefix whose echelon already
    reaches the least rank found has no lower leaf below it, because the
    echelon only grows.  At each new least rank ``least`` is set to
    [basis of V, rank].

    With ``leaf`` None the rows are walked in pivot order (the order of
    :func:`subspace_bases`) and each leaf is one more insertion, capped at
    the least rank: ``extend`` must return the whole echelon while its
    length stays below the cap, and may stop inserting once it reaches
    it.  A prefix or leaf at or above the least rank is discarded either
    way, so a leaf yields its exact rank when that is below the least rank
    found before it, and otherwise some value at or above it.

    Otherwise ``leaf(echelon, M[p], [M[j] for the free j])`` gives the
    exact ranks of the leaves under a prefix, in the order of their free
    values, and the rows are walked from the last pivot to the first, so
    that the leaf level is the row with the most free columns.
    """
    n, best, multiples = len(M), sys.maxsize, {}
    pack, add, item, extend, leaf = kernel
    step = -1 if leaf else 1

    def images(p: int, free: list) -> list:
        out = [pack(M[p])]
        for j in free:
            if j not in multiples:
                multiples[j] = _multiples(tower, M[j], order, pack, add)
            out = [add(s, t) for s in out for t in multiples[j]]
        return [item(s) for s in out]

    def below(levels: list, echelon: list, path: tuple) -> Iterator[int]:
        nonlocal best
        if len(levels) == 1:
            # x is a leaf's rank from the leaf kernel, or else an item to insert
            for idx, x in enumerate(leaf(echelon, *levels[0]) if leaf else levels[0]):
                rank = x if leaf else len(extend(echelon, x, best))
                if rank < best:
                    best = rank
                    basis = _template_basis(n, order, walked, path + (idx,))
                    least[:] = [basis[::step], rank]
                yield rank
            return
        rest = levels[1:]
        for idx, x in enumerate(levels[0]):
            ext = extend(echelon, x, best)
            if len(ext) < best:
                yield from below(rest, ext, path + (idx,))

    for pivots in itertools.combinations(range(n), d):
        walked = pivots[::step]
        free = [[j for j in range(p + 1, n) if j not in pivots] for p in walked]
        levels = [images(p, f) for p, f in zip(walked[:-1], free)]
        last = walked[-1]
        levels.append((M[last], [M[j] for j in free[-1]]) if leaf else images(last, free[-1]))
        yield from below(levels, [], ())


def _multiples(tower, row: Sequence[int], order: int, pack: Callable, add: Callable) -> list:
    """``pack(v·row)`` for v in range(order): v = w + c·p^i with w < p^i
    gives v·row = w·row + c·(y^i·row), one ``add`` per multiple."""
    out, step = [pack([0] * len(row))], 1
    while step < order:
        unit, block = pack(tower.scale(step, row)), out
        for _ in range(tower.p - 1):
            block = [add(x, unit) for x in block]
            out += block
        step *= tower.p
    return out


def _template_basis(n: int, order: int, pivots: Sequence[int], path: Sequence[int]) -> Rows:
    """The RREF basis of a leaf of :func:`rank_leaves`: ``path`` holds each
    row's index among the free values of its template row."""
    basis = []
    for p, idx in zip(pivots, path):
        row = [0] * n
        row[p] = 1
        for j in reversed([j for j in range(p + 1, n) if j not in pivots]):
            idx, row[j] = divmod(idx, order)
        basis.append(row)
    return basis
