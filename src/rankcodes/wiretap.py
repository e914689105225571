"""Coset coding and information leakage.

A message x in F_{q^m}^k is coset-encoded as a uniformly random c with
c G^T = x; an eavesdropper tapping mu links observes c B^T for a matrix B
over F_q.  The leaked information, in packets (logarithms base q^m), is
exactly the dimension of the code's intersection with the row space of B,
and an exhaustive joint-distribution computation reproduces it.

Wiretap matrices live over the base field; entries outside F_q are a hard
error, never coerced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .codes import LinearCode, Reduction, _content_lines, _format_rows, _parse_row
from .errors import DEFAULT_BUDGET, CodeFileError, HypothesisError, check_budget
from .grw import _exact_tables
from .rankmetric import GaloisClosedSpace

JOINT_BUDGET = 10**6


@dataclass
class LeakageReport:
    mu: int
    leakage: int
    worst_case_r: Optional[int] = None
    theorem_bound: Optional[int] = None

    def lines(self) -> List[str]:
        wc = "-" if self.worst_case_r is None else str(self.worst_case_r)
        out = [f"mu={self.mu} leakage={self.leakage} worst_case_r={wc}"]
        if self.theorem_bound is not None:
            out.append(f"certified_bound={self.theorem_bound}")
        return out


def coset_encode(code: LinearCode, x: Sequence[int], seed: int) -> Tuple[int, ...]:
    """A uniformly random codeword representative with c G^T = x."""
    if len(x) != code.k:
        raise ValueError("message length differs from k")
    c = linalg.solve_affine(code.G, code.n, list(x), code.tower, seed, "coset-encode")
    return tuple(c)


def coset_decode(code: LinearCode, c: Sequence[int]) -> Tuple[int, ...]:
    if len(c) != code.n:
        raise ValueError("word length differs from n")
    return tuple(linalg.mat_vec(code.G, list(c), code.tower))


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


def leakage_report_for_reduction(R: Reduction, B_rows: Sequence[Sequence[int]],
                                 table: Optional[Sequence[int]] = None,
                                 component_tables: Optional[Sequence[Sequence[int]]] = None,
                                 budget: int = DEFAULT_BUDGET) -> LeakageReport:
    """Exact leakage plus the certified per-block upper bound, when the
    observation space admits one."""
    code = R.code()
    rep = leakage_exact(code, B_rows, table)
    V = GaloisClosedSpace.from_fq_rows(R.tower, B_rows, code.n)
    search = composition_search(R, V, tables=component_tables, budget=budget)
    if search.applicable:
        rep.theorem_bound = search.bound
        if rep.leakage > search.bound:
            raise AssertionError(f"leakage {rep.leakage} exceeds the certified "
                                 f"bound {search.bound}")
    return rep


def _int_log(value: int, q: int) -> int:
    e = 0
    while value % q == 0:
        value //= q
        e += 1
    if value != 1:
        raise AssertionError(f"count {value * q**e} is not a power of {q}")
    return e


def leakage_joint_enumeration(code: LinearCode, B_rows: Sequence[Sequence[int]],
                              budget: int = JOINT_BUDGET) -> Fraction:
    """Mutual information between the message and the observation, by
    exhaustive enumeration of the joint distribution.

    Every atom probability is a power of q, so the entropies are exact
    rationals in packet units; the result is checked against the
    intersection-dimension formula before being returned, and a mismatch
    raises AssertionError (also under ``python -O``).
    """
    tower = code.tower
    _check_wiretap_rows(tower, B_rows, code.n)
    n, k = code.n, code.k
    atoms = tower.order**n
    check_budget(atoms, budget, "atoms")
    Bt = linalg.transpose(list(B_rows), n) if B_rows else []
    Gt = linalg.transpose(list(code.G), n) if k else []
    joint: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    s_count: Dict[Tuple[int, ...], int] = {}
    w_count: Dict[Tuple[int, ...], int] = {}
    for c in itertools.product(range(tower.order), repeat=n):
        # a uniform c is exactly: draw s uniformly, then x uniform on its coset
        s = tuple(linalg.vec_mat(list(c), Gt, k, tower)) if k else ()
        w = tuple(linalg.vec_mat(list(c), Bt, len(B_rows), tower)) if B_rows else ()
        joint[(s, w)] = joint.get((s, w), 0) + 1
        s_count[s] = s_count.get(s, 0) + 1
        w_count[w] = w_count.get(w, 0) + 1
    q, m = tower.p, tower.m
    total_log = _int_log(atoms, q)
    info = Fraction(0)
    for (s, w), cnt in joint.items():
        num = _int_log(cnt, q) + total_log
        den = _int_log(s_count[s], q) + _int_log(w_count[w], q)
        info += Fraction(cnt, atoms) * Fraction(num - den, m)
    exact = leakage_exact(code, B_rows).leakage
    if info != exact:
        raise AssertionError(f"joint enumeration gave {info}, intersection gives {exact}")
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


def _component_tables(R: Reduction, budget: int,
                      tables: Optional[Sequence[Sequence[int]]]) -> List[List[int]]:
    if tables is not None:
        return [list(t) for t in tables]
    return _exact_tables([R.main_component(i) for i in range(R.l)], budget)


@dataclass
class StrongerSecurityResult:
    bound: int
    composition: Tuple[int, ...]
    strict_blocks: Tuple[int, ...]
    zero_leakage: bool


def stronger_security_bound(R: Reduction, V: GaloisClosedSpace,
                            composition: Sequence[int],
                            tables: Optional[Sequence[Sequence[int]]] = None,
                            budget: int = DEFAULT_BUDGET) -> StrongerSecurityResult:
    """Certified upper bound on dim(C ∩ V) from per-block weights.

    For each block, the projection of V must fit under the r_i-th weight
    of the main component; blocks where it fits strictly are subtracted.
    Anything outside those hypotheses is refused.
    """
    tabs = _component_tables(R, budget, tables)
    dims = projection_dims(R, V)
    if len(composition) != R.l:
        raise ValueError("composition length differs from the block count")
    strict = []
    for i, r_i in enumerate(composition):
        if not 0 <= r_i <= R.dims[i]:
            raise HypothesisError(f"r_{i+1}={r_i} outside 0..{R.dims[i]}")
        cap = 0 if r_i == 0 else tabs[i][r_i - 1]
        if dims[i] > cap:
            raise HypothesisError(
                f"projection {i+1} has dimension {dims[i]} > d_(R,{r_i}) = {cap}")
        if dims[i] < cap:
            strict.append(i)
    bound = sum(composition) - len(strict)
    zero = all(dims[i] < tabs[i][0] for i in range(R.l) if R.dims[i]) and \
        all(dims[i] == 0 for i in range(R.l) if not R.dims[i])
    return StrongerSecurityResult(bound, tuple(composition), tuple(strict), zero)


@dataclass
class CompositionSearchResult:
    applicable: bool
    bound: Optional[int]
    composition: Optional[Tuple[int, ...]]


def composition_search(R: Reduction, V: GaloisClosedSpace,
                       tables: Optional[Sequence[Sequence[int]]] = None,
                       budget: int = DEFAULT_BUDGET) -> CompositionSearchResult:
    """Tightest certified bound over all admissible compositions.

    The per-block contribution r_i - [strict] is independent across
    blocks, so the search minimizes each block separately.  When some
    block admits no valid r_i at all, the certificate is not applicable.
    """
    tabs = _component_tables(R, budget, tables)
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


def copt_full_block_bound(R: Reduction, V: GaloisClosedSpace) -> int:
    """For the all-weights-maximal product code: the leakage is at most
    the number of blocks whose projection is everything."""
    if any(R.dims[i] != 1 or R.lengths[i] != R.tower.m for i in range(R.l)):
        raise HypothesisError("this bound is for the k-fold product of "
                              "one-dimensional full-length components")
    dims = projection_dims(R, V)
    return sum(1 for d in dims if d == R.tower.m)


# -- wiretap file format ------------------------------------------------


def format_wiretap_file(tower, B_rows: Sequence[Sequence[int]]) -> str:
    return "\n".join([f"wiretap mu={len(B_rows)}"] + _format_rows(tower, B_rows)) + "\n"


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
