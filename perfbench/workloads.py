"""The four workloads: their inputs, their operations and the checks on them.

Each ``setup_*`` function builds a workload's inputs from the seed and
returns a :class:`Workload`: the towers it built and an ordered list of
operations.  One pass runs every operation once; a run repeats whole passes.
An operation's check receives the operation's output and the outputs of the
whole pass, by operation name, and raises ``CheckFailed`` when the output is
wrong or ``OpError`` when the operation did not complete.  ``first_check``
holds the costly checks (Wei duality), made on the first pass only.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from rankcodes import codes, equivalence, grw, rankmetric, wiretap
from rankcodes.field import FieldTower

import reference as ref
from reference import OpError, expect


@dataclass
class Op:
    name: str
    call: Optional[Callable[[], Any]]  # None for a CLI command
    check: Callable[[Any, Dict[str, Any]], None]
    first_check: Optional[Callable[[Any], None]] = None
    argv: Optional[List[str]] = None  # the CLI command's arguments


@dataclass
class Workload:
    ops: List[Op]
    towers: List[FieldTower] = field(default_factory=list)
    cli: bool = False


class Clock:
    """Wall time per set-up phase ('tower', 'codes')."""

    def __init__(self):
        self.phases: Dict[str, float] = {"tower": 0.0, "codes": 0.0}

    @contextmanager
    def __call__(self, phase: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.phases[phase] += perf_counter() - t0


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _random_points(rng: random.Random, p: int, m: int, n: int) -> List[int]:
    """n elements of F_{p^m} that are linearly independent over F_p."""
    while True:
        pts = [rng.randrange(1, p**m) for _ in range(n)]
        if ref.fp_rank([ref.digits(x, p, m) for x in pts], p) == n:
            return pts


def _check_table(table, n, k, m, expected=None) -> None:
    ref.check_gaps(table, n, k, m)
    if expected is not None:
        expect(list(table) == expected, f"table {list(table)} differs from {expected}")


def _wei_check(code, table) -> None:
    dual_table, _ = grw.grw_table_exact(code.dual())
    ref.check_wei(table, dual_table, code.n)


# Wei duality is checked only where the dual's table costs at most this many
# subcode candidates, so the check stays a small share of a run.
WEI_DUAL_CANDIDATES = 6000

# -- closed_scan -------------------------------------------------------------

# (p, m, n, k, check Wei duality): Gabidulin codes with n <= m, where auto
# picks the closed-space oracle.  F_243 has p = 3; F_2048 lies above the
# 1,024-element cap of the tower's full tables.  The duals of [7,3] over
# F_128 and [6,3] over F_2048 each cost as much as the code, so Wei duality
# is checked on the others.
CLOSED = (
    (2, 4, 4, 3, True),
    (2, 6, 6, 3, True),
    (2, 6, 6, 4, True),
    (2, 7, 7, 3, False),
    (3, 5, 5, 3, True),
    (2, 11, 6, 3, False),
)


def setup_closed_scan(seed: int, clock: Clock, scratch: Optional[Path]) -> Workload:
    towers: Dict[tuple, FieldTower] = {}
    with clock("tower"):
        for p, m, *_ in CLOSED:
            if (p, m) not in towers:
                towers[(p, m)] = FieldTower(p, m)
    ops = []
    with clock("codes"):
        for p, m, n, k, wei in CLOSED:
            pts = _random_points(_rng(seed, f"gab:{p}:{m}:{n}:{k}"), p, m, n)
            code = codes.gabidulin(towers[(p, m)], n, k, pts)
            ops.append(_gabidulin_op(code, p, m, n, k, wei))
    return Workload(ops, list(towers.values()))


def _gabidulin_op(code, p, m, n, k, wei) -> Op:
    def check(rep, outs):
        _check_table(rep.table(), n, k, m, ref.gabidulin_table(n, k))
        expect(rep.mrd is True and rep.defect == 0, f"Gabidulin code reported mrd={rep.mrd}")

    return Op(f"grw_report_exact gab[{n},{k}]/F{p}^{m}",
              lambda: grw.grw_report_exact(code),
              check,
              (lambda rep: _wei_check(code, rep.table())) if wei else None)


# -- subcode_scan --------------------------------------------------------------

# (p, m, n, k) for mrd_plan / build_mrd_reducible codes with n > m.
MRD_PLANS = ((2, 3, 7, 4), (2, 3, 8, 4), (2, 4, 8, 3), (2, 6, 8, 3), (3, 3, 6, 3))
# (p, m, main Gabidulin shapes (n_i, k_i)) for seeded 3-block reducible codes.
REDUCIBLE = ((2, 3, ((3, 1), (3, 2), (2, 1))), (3, 2, ((2, 1), (2, 1), (2, 1))))
# (p, m, k) for the all-weights-maximal codes build_c_opt(F_{p^m}, k).
C_OPT = ((2, 2, 3), (2, 3, 2), (3, 2, 2))


def setup_subcode_scan(seed: int, clock: Clock, scratch: Optional[Path]) -> Workload:
    towers: Dict[tuple, FieldTower] = {}
    with clock("tower"):
        for p, m, *_ in MRD_PLANS + REDUCIBLE + C_OPT:
            if (p, m) not in towers:
                towers[(p, m)] = FieldTower(p, m)
    ops: List[Op] = []
    with clock("codes"):
        for p, m, n, k in MRD_PLANS:
            t = towers[(p, m)]
            plan = codes.mrd_plan(t, n, k)
            R = codes.build_mrd_reducible(t, plan, _rng(seed, f"mrd:{p}:{m}:{n}:{k}").randrange(2**32))
            d1 = ref.mrd_branch1_d1(m, n, k)
            est = plan if ref.mrd_plan_covered(m, n, k) else None
            ops += _reducible_ops(f"mrd({p},{m},{n},{k})", R, m, est=est, d1=d1)
        for p, m, shapes in REDUCIBLE:
            t = towers[(p, m)]
            mains = [codes.gabidulin(t, L, d) for L, d in shapes]
            R = codes.reducible(mains, seed=_rng(seed, f"red:{p}:{m}:{shapes}").randrange(2**32))
            ops += _reducible_ops(f"red3({p},{m},n={R.n},k={R.k})", R, m)
        for p, m, k in C_OPT:
            R = codes.build_c_opt(towers[(p, m)], k)
            ops += _reducible_ops(f"copt({p},{m},{k})", R, m, copt=True)
    return Workload(ops, list(towers.values()))


def _reducible_ops(label, R, m, est=None, d1=None, copt=False) -> List[Op]:
    code = R.code()  # built in set-up so that every pass does the same work
    n, k = code.n, code.k
    exact_name = f"grw_report_exact {label}"

    def check_exact(rep, outs):
        table = rep.table()
        _check_table(table, n, k, m, ref.c_opt_table(m, k) if copt else None)
        if d1 is not None:
            expect(table[0] == d1, f"d_1={table[0]}, the family's formula gives {d1}")

    dual_cost = sum(ref.gaussian_binomial(n - k, r, R.tower.order) for r in range(1, n - k + 1))
    wei = dual_cost <= WEI_DUAL_CANDIDATES
    ops = [Op(exact_name, lambda: grw.grw_report_exact(code), check_exact,
              (lambda rep: _wei_check(code, rep.table())) if wei else None)]

    def check_bounds(rep, outs):
        lower = [e.lower for e in rep.entries]
        upper = [e.upper for e in rep.entries]
        expect(len(rep.entries) == k, f"bounds report has {len(rep.entries)} entries, k={k}")
        if exact_name in outs:
            ref.check_sandwich(lower, outs[exact_name].table(), upper)
        if copt:
            expect(lower == upper, "a cartesian code must get exact bounds")

    ops.append(Op(f"grw_bounds_reducible {label}", lambda: grw.grw_bounds_reducible(R),
                  check_bounds))
    if est is not None:
        def check_estimates(table, outs):
            expect(len(table) == k, f"estimate table has {len(table)} entries, k={k}")
            if exact_name in outs:
                exact = outs[exact_name].table()
                expect(all(e <= x for e, x in zip(table, exact)),
                       f"estimates {list(table)} exceed the exact table {exact}")

        ops.append(Op(f"grw_estimates_mrd {label}", lambda: grw.grw_estimates_mrd(est),
                      check_estimates))
    if copt:
        def check_to_opt(res, outs):
            expect(res.certified is True, "to_c_opt did not certify its map")
            expect(res.c_opt.k == k and res.c_opt.n == n, "to_c_opt built a code of another shape")

        ops.append(Op(f"to_c_opt {label}", lambda: equivalence.to_c_opt(code), check_to_opt))
    return ops


# -- wiretap_joint ---------------------------------------------------------------

# (n, k) of F_4 codes from mrd_plan / build_mrd_reducible.
WIRETAP = ((8, 4), (7, 4), (7, 5))
RANDOM_TAP_MU = 3


def setup_wiretap_joint(seed: int, clock: Clock, scratch: Optional[Path]) -> Workload:
    with clock("tower"):
        t = FieldTower(2, 2)
    gf = ref.GF2m(t.modulus)
    ops: List[Op] = []
    with clock("codes"):
        for n, k in WIRETAP:
            plan = codes.mrd_plan(t, n, k)
            R = codes.build_mrd_reducible(t, plan, _rng(seed, f"wt:{n}:{k}").randrange(2**32))
            code = R.code()
            rng = _rng(seed, f"tap:{n}:{k}")
            while True:
                bits = [rng.getrandbits(n) for _ in range(RANDOM_TAP_MU)]
                if ref.F2Space(bits).dim == RANDOM_TAP_MU:
                    break
            random_tap = [[(v >> j) & 1 for j in range(n)] for v in bits]
            # a subcode living on the last block: the last block row of the generator
            sub = R.generator()[k - R.dims[-1]:]
            adversarial_tap = ref.closure_f2_rows(gf, sub, n)
            for kind, B, floor in (("random", random_tap, 0),
                                   ("adversarial", adversarial_tap, len(sub))):
                V = rankmetric.GaloisClosedSpace.from_fq_rows(t, B, n)
                ops += _tap_ops(f"F4[{n},{k}] {kind} mu={len(B)}", gf, R, code, B, V, floor)
    return Workload(ops, [t])


def _tap_ops(label, gf, R, code, B, V, floor) -> List[Op]:
    G = [list(row) for row in code.G]
    cache: List[int] = []

    def leak() -> int:
        if not cache:
            cache.append(ref.intersection_dim(gf, G, B))
        return cache[0]

    def check_joint(value, outs):
        expect(value == leak(), f"joint enumeration gave {value}, recount gives {leak()}")
        expect(value >= floor, f"tap on a {floor}-dim subcode leaks only {value}")

    def check_exact(rep, outs):
        expect(rep.leakage == leak(), f"leakage_exact gave {rep.leakage}, recount gives {leak()}")
        expect(rep.leakage >= floor, f"tap on a {floor}-dim subcode leaks only {rep.leakage}")

    def check_certify(res, outs):
        if res.applicable:
            expect(res.bound >= leak(), f"certified bound {res.bound} < leakage {leak()}")

    return [
        Op(f"leakage_joint_enumeration {label}",
           lambda: wiretap.leakage_joint_enumeration(code, B), check_joint),
        Op(f"leakage_exact {label}", lambda: wiretap.leakage_exact(code, B), check_exact),
        Op(f"composition_search {label}", lambda: wiretap.composition_search(R, V), check_certify),
    ]


# -- cli_session -----------------------------------------------------------------

TAP_FILE = """wiretap mu=2
row 1,0 0,0 0,0 0,0
row 0,0 0,0 1,0 0,0
"""
MALFORMED_FILE = "field p=2 m=2 modulus=1,1,1\ncode n=4 k=1\nrow 1,0 0,1\n"
ZERO_CODE_FILE = "field p=2 m=2 modulus=1,1,1\ncode n=4 k=0\n"


def setup_cli_session(seed: int, clock: Clock, scratch: Path) -> Workload:
    """The README's CLI section in order, then four more commands.

    The commands run in ``scratch`` (files opt.code, red.code, tap.wiretap,
    g63.code, bad.code, zero.code); ``Workload.cli`` tells the runner to
    start each one as its own process.
    """
    with clock("tower"):
        t64 = FieldTower(2, 6)
    with clock("codes"):
        pts = _random_points(_rng(seed, "cli:g63"), 2, 6, 6)
        g63 = codes.format_code_file(codes.gabidulin(t64, 6, 3, pts))
    for name, text in (("tap.wiretap", TAP_FILE), ("bad.code", MALFORMED_FILE),
                       ("zero.code", ZERO_CODE_FILE), ("g63.code", g63)):
        (scratch / name).write_text(text)
    rng = _rng(seed, "cli")
    build_seed, transform_seed = rng.randrange(1000), rng.randrange(1000)
    gf = ref.GF2m((1, 1, 1))

    def code_file(name):
        return ref.parse_code_file((scratch / name).read_text())

    def tap_leak():
        opt = code_file("opt.code")
        return ref.intersection_dim(gf, opt["rows"], [[1, 0, 0, 0], [0, 0, 1, 0]])

    def lines(res):
        return res.stdout.splitlines()

    def rows_table(res):
        return [int(ref.report_fields(ln)["exact"]) for ln in lines(res) if ln.startswith("r=")]

    def same_code(res, outs):
        got = ref.parse_code_file(res.stdout)
        red = code_file("red.code")
        expect((got["n"], got["k"], got["blocks"]) == (red["n"], red["k"], red["blocks"]),
               "rewritten reduction changed its shape")
        expect(gf.rank(got["rows"]) == 2 and gf.rank(got["rows"] + red["rows"]) == 2,
               "rewritten reduction generates another code")

    def c_opt(res, outs):
        f = code_file("opt.code")
        expect((f["n"], f["k"], f["blocks"]) == (4, 2, ([2, 2], [1, 1])), "opt.code has the wrong shape")
        expect(gf.rank(f["rows"]) == 2, "opt.code is rank deficient")

    def grw_opt(res, outs):
        expect(rows_table(res) == ref.c_opt_table(2, 2), f"table {rows_table(res)} != [2, 4]")
        expect("mrd=true" in res.stdout, "C_opt over F_4 with k=2 must be MRD")

    def plan(res, outs):
        out = res.stdout
        expect("verdict=mrd" in out, "plan (2,2,4,2) must be MRD")
        expect(f"d1_exact={ref.mrd_branch1_d1(2, 4, 2)}" in out, "plan d1_exact differs from the formula")

    def build(res, outs):
        f = code_file("red.code")
        expect((f["n"], f["k"]) == (4, 2) and f["blocks"] is not None, "red.code has the wrong shape")
        expect(gf.rank(f["rows"]) == 2, "red.code is rank deficient")

    def check_mrd(res, outs):
        expect(res.stdout.strip() == "mrd=true defect=0", f"check mrd printed {res.stdout.strip()!r}")

    def bounds(res, outs):
        entries = [ref.report_fields(ln) for ln in lines(res) if ln.startswith("r=")]
        expect(len(entries) == 2, "bounds report needs two entries")
        lower = [int(e["lower"]) for e in entries]
        upper = [int(e["upper"]) for e in entries]
        d1 = ref.mrd_branch1_d1(2, 4, 2)
        expect(lower[0] <= d1 <= upper[0], f"bounds {lower[0]}..{upper[0]} miss d_1={d1}")
        expect(all(lo <= up <= 4 for lo, up in zip(lower, upper)), "bounds cross")

    def estimates(res, outs):
        est = [int(ref.report_fields(ln)["lower"]) for ln in lines(res) if ln.startswith("r=")]
        expect(len(est) == 2 and est[0] <= ref.mrd_branch1_d1(2, 4, 2), f"estimates {est}")
        b = outs.get("grw bounds red")
        if b is not None:
            upper = [int(ref.report_fields(ln)["upper"]) for ln in lines(b) if ln.startswith("r=")]
            expect(all(e <= u for e, u in zip(est, upper)), f"estimates {est} exceed upper bounds {upper}")

    def dual(res, outs):
        H = ref.parse_code_file(res.stdout)
        G = code_file("red.code")["rows"]
        expect(H["k"] == 2 and gf.rank(H["rows"]) == 2, "dual has the wrong dimension")
        for g in G:
            for h in H["rows"]:
                s = 0
                for a, b in zip(g, h):
                    s ^= gf.mul(a, b)
                expect(s == 0, "dual row is not orthogonal to the code")

    def matches(pattern):
        def check(res, outs):
            expect(re.fullmatch(pattern, res.stdout.strip().splitlines()[0]) is not None,
                   f"output {res.stdout.strip()[:80]!r} does not match {pattern!r}")
        return check

    def to_opt(res, outs):
        expect(lines(res)[-1] == "certified=true", "to-opt did not certify")

    def leak(res, outs):
        f = ref.report_fields(res.stdout)
        expect(int(f["leakage"]) == tap_leak(), f"leakage {f['leakage']} != recount {tap_leak()}")
        worst = sum(1 for d in ref.c_opt_table(2, 2) if d <= 2)
        expect(int(f["worst_case_r"]) == worst, f"worst_case_r {f['worst_case_r']} != {worst}")

    def empirical(res, outs):
        f = ref.report_fields(res.stdout)
        expect(f["empirical"] == f["exact"] == str(tap_leak()) and f["agree"] == "true",
               f"empirical report {res.stdout.strip()!r}, recount {tap_leak()}")

    def certify(res, outs):
        f = ref.report_fields(res.stdout)
        expect(int(f["exact"]) == tap_leak(), f"exact {f['exact']} != recount {tap_leak()}")
        if f.get("applicable") == "true":
            expect(int(f["bound"]) >= tap_leak(), f"certified bound {f['bound']} < leakage")

    def g63(res, outs):
        expect(rows_table(res) == ref.gabidulin_table(6, 3), f"table {rows_table(res)} != [4, 5, 6]")

    def stderr_error(res, outs):
        expect(res.stderr.startswith("error:"), "a rejected command must say error: on stderr")

    def nothing(res, outs):
        pass

    commands = [
        ("construct opt", "construct opt --p 2 --m 2 --k 2 -o opt.code", 0, c_opt),
        ("grw exact opt", "grw exact --input opt.code", 0, grw_opt),
        ("mrd-plan", "construct mrd-plan --p 2 --m 2 --n 4 --k 2", 0, plan),
        ("mrd-build", f"construct mrd-build --p 2 --m 2 --n 4 --k 2 --seed {build_seed} -o red.code", 0, build),
        ("check mrd red", "check mrd --input red.code", 0, check_mrd),
        ("grw bounds red", "grw bounds --input red.code", 0, bounds),
        ("grw estimates", "grw estimates --p 2 --m 2 --n 4 --k 2", 0, estimates),
        ("dual red", "dual --input red.code", 0, dual),
        ("check product red", "check product --input red.code", 0, matches(r"product=(true|false)")),
        ("equiv to-opt", "equiv to-opt --input opt.code", 0, to_opt),
        ("equiv product-test", "equiv product-test --input red.code", 0,
         matches(r"equivalent_to_product=(true|false) deficiency=\d+")),
        ("wiretap leak", "wiretap leak --input opt.code --wiretap tap.wiretap", 0, leak),
        ("wiretap empirical", "wiretap empirical --input opt.code --wiretap tap.wiretap", 0, empirical),
        ("wiretap certify", "wiretap certify --input opt.code --wiretap tap.wiretap", 0, certify),
        ("reduce exact-d1", "reduce exact-d1 --input red.code", 0, same_code),
        ("reduce transform", f"reduce transform --input red.code --seed {transform_seed}", 0, same_code),
        ("grw exact g63", "grw exact --input g63.code", 0, g63),
        ("malformed file", "grw exact --input bad.code", 1, stderr_error),
        ("over budget", "grw exact --input g63.code --method subcodes --budget 100", 2, stderr_error),
        ("check mrd k=0", "check mrd --input zero.code", 0, nothing),
    ]
    ops = []
    for name, argv, want_rc, check in commands:
        ops.append(Op(name, None, _cli_check(want_rc, check), argv=argv.split()))
    return Workload(ops, [t64], cli=True)


def _cli_check(want_rc: int, check) -> Callable[[Any, Dict[str, Any]], None]:
    def run(res, outs):
        if "Traceback" in res.stderr or res.rc != want_rc:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            raise OpError(f"exit {res.rc} (want {want_rc}): {tail[0][:120]}")
        check(res, outs)
    return run


SETUPS = {
    "closed_scan": setup_closed_scan,
    "subcode_scan": setup_subcode_scan,
    "wiretap_joint": setup_wiretap_joint,
    "cli_session": setup_cli_session,
}
