"""Coset coding and information leakage.

A message x in F_{q^m}^k is coset-encoded as a uniformly random c with
c G^T = x; an eavesdropper tapping mu links observes c B^T for a matrix B
over F_q.  The leaked information, in packets (logarithms base q^m), is
exactly the dimension of the code's intersection with the row space of B.

:func:`leakage_joint_enumeration` reproduces that number without the
formula: it counts the joint distribution of (message, observation) over
every atom c, the images c·[G^T | B^T] formed one from another by one
addition each of packed F_p digits, with the subcode walk's packing and
addition for every p, and compares the mutual information with
:func:`leakage_exact`.

Wiretap matrices live over the base field; entries outside F_q are a hard
error, never coerced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .codes import LinearCode, Reduction, _content_lines, _parse_row
from .errors import DEFAULT_BUDGET, JOINT_BUDGET, CodeFileError, InvariantError, check_budget
from .grw import _exact_tables
from .rankmetric import GaloisClosedSpace, _digit_ops, _pack


@dataclass
class LeakageReport:
    mu: int
    leakage: int
    worst_case_r: Optional[int] = None

    def lines(self) -> List[str]:
        wc = "-" if self.worst_case_r is None else str(self.worst_case_r)
        return [f"mu={self.mu} leakage={self.leakage} worst_case_r={wc}"]


def _check_wiretap_rows(tower, B_rows: Sequence[Sequence[int]], n: int) -> None:
    for row in B_rows:
        if len(row) != n:
            raise ValueError("wiretap row length differs from the code length")
        for x in row:
            if not tower.in_subfield(x):
                raise ValueError("wiretap matrices must have entries in F_q")


def leakage_exact(code: LinearCode, B_rows: Sequence[Sequence[int]],
                  table: Optional[Sequence[int]] = None) -> LeakageReport:
    """Exact leakage dim(C ∩ V) for the observation space V spanned by B.

    When the code's exact weight table is supplied, the report also says
    how many packets an adversary with this many links can obtain in the
    worst case over all choices of B.
    """
    _check_wiretap_rows(code.tower, B_rows, code.n)
    leak = code.intersection_dim(B_rows)
    worst = None
    if table is not None:
        mu = len(B_rows)
        worst = 0
        for r in range(1, code.k + 1):
            if table[r - 1] <= mu:
                worst = r
    return LeakageReport(len(B_rows), leak, worst)


def _int_log(value: int, q: int) -> int:
    e = 0
    while value % q == 0:
        value //= q
        e += 1
    if value != 1:
        raise InvariantError(f"count {value * q**e} is not a power of {q}")
    return e


def _image_counts(tower, cols: Sequence[Sequence[int]], k: int) -> Tuple[Counter, int]:
    """How often each image c·[Gᵀ | Bᵀ] occurs over all c, and the shift
    that splits an image into its message (low bits) and observation.

    ``cols`` holds the rows of [Gᵀ | Bᵀ], one per coordinate.  An image is
    one int of packed F_p digits, added by :func:`rankmetric._digit_ops`:
    the k message entries are one :func:`rankmetric._pack` block, the
    observation entries a second block above it, and the int is its own
    dict key.  The images over the first j coordinates are those over the
    first j − 1, each plus one precomputed multiple a·row_j
    (:func:`linalg._multiples`); the last coordinate's images are counted
    as they are formed, so no list of all atoms is built.
    """
    p, mu = tower.p, len(cols[0]) - k
    w, add = _digit_ops(p, tower.m * (k + mu))
    shift = tower.m * k * w

    def pack(row: Sequence[int]) -> int:
        return _pack(p, k, w, row[:k]) | _pack(p, mu, w, row[k:]) << shift

    def grow(images: list, col: Sequence[int]):
        steps = linalg._multiples(tower, col, tower.order, pack, add)
        return chain.from_iterable(map(add, images, repeat(t)) for t in steps)

    images = [0]
    for col in cols[:-1]:
        images = list(grow(images, col))
    return Counter(grow(images, cols[-1])), shift


def leakage_joint_enumeration(code: LinearCode, B_rows: Sequence[Sequence[int]],
                              budget: int = JOINT_BUDGET) -> Fraction:
    """Mutual information between the message and the observation, by
    exhaustive enumeration of the joint distribution.

    A uniform word c is exactly a uniform message s = c·Gᵀ followed by a
    uniform word of its coset, so the joint distribution of (s, w), w =
    c·Bᵀ, is the count of each image c·[Gᵀ | Bᵀ] over all q^{mn} atoms c.
    Every atom is counted once: its image is an image already formed plus
    one precomputed multiple of a row of [Gᵀ | Bᵀ], one addition of packed
    digits (:func:`_image_counts`).  The marginals are sums over the joint
    table, of the low and the high bits of each image.

    Every count is a power of q (checked), so
    I = H(S) + H(W) − H(S, W) is one integer numerator over atoms·m, in
    packet units.  The budget is checked on the atoms before any work, and
    the result is compared with the intersection-dimension formula
    :func:`leakage_exact`; a mismatch raises InvariantError (also under
    ``python -O``).
    """
    tower = code.tower
    _check_wiretap_rows(tower, B_rows, code.n)
    n, k, m = code.n, code.k, tower.m
    atoms = tower.order**n
    check_budget(atoms, budget, "atoms")
    cols = linalg.transpose(list(code.G) + list(B_rows), n)
    joint, shift = _image_counts(tower, cols, k)
    mask = (1 << shift) - 1
    s_count: Counter = Counter()
    w_count: Counter = Counter()
    for key, cnt in joint.items():
        s_count[key & mask] += cnt
        w_count[key >> shift] += cnt
    counts = {atoms}.union(joint.values(), s_count.values(), w_count.values())
    logs = {c: _int_log(c, tower.p) for c in counts}

    def weighted(t: Counter) -> int:
        return sum(c * logs[c] for c in t.values())

    num = atoms * logs[atoms] + weighted(joint) - weighted(s_count) - weighted(w_count)
    info = Fraction(num, atoms * m)
    exact = leakage_exact(code, B_rows).leakage
    if info != exact:
        raise InvariantError(f"joint enumeration gave {info}, intersection gives {exact}")
    return info


# -- stronger security on reductions -----------------------------------


def projection_dims(R: Reduction, V: GaloisClosedSpace) -> List[int]:
    """Dimensions of the block projections of a Galois closed space."""
    if V.n != R.n:
        raise ValueError("space and code live in different ambient spaces")
    dims = []
    for i in range(R.l):
        start = R.col_offset(i)
        rows = [row[start:start + R.lengths[i]] for row in V.basis]
        dims.append(linalg.rank(rows, R.lengths[i], R.tower))
    return dims


@dataclass
class CompositionSearchResult:
    applicable: bool
    bound: Optional[int]
    composition: Optional[Tuple[int, ...]]


def composition_search(R: Reduction, V: GaloisClosedSpace,
                       budget: int = DEFAULT_BUDGET) -> CompositionSearchResult:
    """Tightest certified upper bound on dim(C ∩ V) over all admissible
    compositions r = (r_1, ..., r_l), 0 <= r_i <= k_i.

    A composition is admissible when the projection of V on each block i
    fits under the r_i-th weight of main component i (0 for r_i = 0); its
    bound is the sum of the r_i less the blocks where the projection fits
    strictly.  The per-block contribution r_i - [strict] is independent
    across blocks, so the search minimizes each block separately.  When
    some block admits no valid r_i at all, the certificate is not
    applicable.  The main component tables are priced together against
    the one budget.
    """
    tabs = _exact_tables([R.main_component(i) for i in range(R.l)], budget)
    dims = projection_dims(R, V)
    best_comp = []
    total = 0
    for i in range(R.l):
        choices = []
        for r_i in range(R.dims[i] + 1):
            cap = 0 if r_i == 0 else tabs[i][r_i - 1]
            if dims[i] <= cap:
                choices.append((r_i - (1 if dims[i] < cap else 0), r_i))
        if not choices:
            return CompositionSearchResult(False, None, None)
        contrib, r_i = min(choices)
        best_comp.append(r_i)
        total += contrib
    return CompositionSearchResult(True, total, tuple(best_comp))


# -- wiretap file format ------------------------------------------------


def parse_wiretap_file(tower, text: str, n: int) -> List[List[int]]:
    """Parse `wiretap mu=<mu>` plus mu base-field rows in scalar syntax."""
    lines = _content_lines(text)
    if not lines:
        raise CodeFileError(0, "empty wiretap file")
    lineno, body = lines[0]
    tokens = body.split()
    if len(tokens) != 2 or tokens[0] != "wiretap" or not tokens[1].startswith("mu="):
        raise CodeFileError(lineno, "expected: wiretap mu=<mu>")
    try:
        mu = int(tokens[1][3:])
    except ValueError:
        raise CodeFileError(lineno, "mu must be an integer") from None
    if mu < 0:
        raise CodeFileError(lineno, "mu must be nonnegative")
    rows: List[List[int]] = []
    for lineno, body in lines[1:]:
        row = _parse_row(tower, lineno, body, n)
        for x in row:
            if not tower.in_subfield(x):
                raise CodeFileError(lineno, "wiretap entries must lie in F_q "
                                            "(high coefficients must be zero)")
        rows.append(row)
    if len(rows) != mu:
        raise CodeFileError(lines[-1][0], f"found {len(rows)} rows, mu says {mu}")
    return rows
