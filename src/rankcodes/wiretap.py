"""Coset coding and information leakage.

A message x in F_{q^m}^k is coset-encoded as a uniformly random c with
c G^T = x; an eavesdropper tapping mu links observes c B^T for a matrix B
over F_q.  The leaked information, in packets (logarithms base q^m), is
exactly the dimension of the code's intersection with the row space of B.

:func:`leakage_joint_enumeration` reproduces that number without the
formula: it forms the distinct images c·[G^T | B^T], c·G^T and c·B^T one
coordinate at a time, as packed F_p digits with the subcode walk's packing
and addition for every p, checks that each layer counts every image
equally often, and compares the mutual information these common counts
give with :func:`leakage_exact`.

Wiretap matrices live over the base field; entries outside F_q are a hard
error, never coerced.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .codes import LinearCode, Reduction, _content_lines, _parse_row
from .errors import DEFAULT_BUDGET, JOINT_BUDGET, CodeFileError, InvariantError, check_budget
from .rankmetric import GaloisClosedSpace, _digit_ops, _pack


class LeakageReport(NamedTuple):
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


def _fibre(tower, cols: Sequence[Sequence[int]]) -> int:
    """How many c in F_{q^m}^n give each image c·M, M having the n rows
    ``cols``, one per coordinate; checked to be one common count.

    An image is one :func:`rankmetric._pack` int of F_p digits, added as
    :func:`rankmetric._digit_ops` says.  The images over the first j
    coordinates are the distinct images over the first j − 1, each plus
    every multiple a·cols[j] (:func:`linalg._multiples`), counted with
    ``Counter``.  The map is additive, so its fibres are cosets of its
    kernel: each layer counts every image equally often, c times, and the
    count over j coordinates is the one over j − 1 times c.
    """
    p, width, count = tower.p, len(cols[0]), 1
    w, add = _digit_ops(p, tower.m * width)

    def pack(row: Sequence[int]) -> int:
        return _pack(p, width, w, row)

    images = [0]
    for col in cols:
        steps = linalg._multiples(tower, col, tower.order, pack, add)
        images = Counter(chain.from_iterable(map(add, images, repeat(t)) for t in steps))
        common = set(images.values())
        if len(common) != 1:
            raise InvariantError(f"images of an additive map counted {sorted(common)}, "
                                 "not one common count")
        count *= common.pop()
        images = list(images)  # frees the Counter: two layers alive at most
    return count


def leakage_joint_enumeration(code: LinearCode, B_rows: Sequence[Sequence[int]],
                              budget: int = JOINT_BUDGET) -> Fraction:
    """Mutual information between the message and the observation, by
    exhaustive enumeration of the joint distribution.

    A uniform word c is exactly a uniform message s = c·Gᵀ followed by a
    uniform word of its coset, so the joint distribution of (s, w), w =
    c·Bᵀ, is the count of each image c·[Gᵀ | Bᵀ] over all q^{mn} atoms c.
    :func:`_fibre` forms the distinct images one coordinate at a time and
    finds every image as often as every other, as it does for the images
    c·Gᵀ and c·Bᵀ that give the marginals.  So each of S, W and (S, W) is
    uniform on its image, and with e_X the p-exponent of X's common count
    (checked to be a power of p), I = H(S) + H(W) − H(S, W) is
    (e_atoms + e_joint − e_S − e_W)/m packets.  The budget is checked on
    the atoms before any work, and the result is compared with the
    intersection-dimension formula :func:`leakage_exact`; a mismatch raises
    InvariantError (also under ``python -O``).
    """
    tower = code.tower
    _check_wiretap_rows(tower, B_rows, code.n)
    n, k, p = code.n, code.k, tower.p
    atoms = tower.order**n
    check_budget(atoms, budget, "atoms")
    cols = linalg.transpose(list(code.G) + list(B_rows), n)
    e_joint, e_s, e_w = (_int_log(_fibre(tower, part), p)
                         for part in (cols, [c[:k] for c in cols], [c[k:] for c in cols]))
    info = Fraction(_int_log(atoms, p) + e_joint - e_s - e_w, tower.m)
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


class CompositionSearchResult(NamedTuple):
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
    from .grw import _exact_tables

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
