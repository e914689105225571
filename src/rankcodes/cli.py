"""Command-line surface.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on validation errors (bad flags, malformed files, violated
preconditions), 2 on enumeration budget overruns, 3 when a self-check
behind a result fails (an internal fault, never a user error).
``--budget`` caps the candidates one command enumerates, all of its
tables priced together before the first candidate.  Every randomized
subcommand requires an explicit --seed, and identical invocations with
identical seeds produce byte-identical output.

A process builds only what its command runs.  The parser is built for
the invoked group only: every group is registered with its help line,
but only the group named by the first argument gets its subcommands and
arguments (all of them do when none is named).  Each handler imports the
modules it runs, so a command loads no oracle, equivalence or wiretap
code it does not use.  The result records are NamedTuples, so no module
imports ``dataclasses``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import codes
from .errors import (DEFAULT_BUDGET, JOINT_BUDGET, BudgetError, CodeFileError,
                     HypothesisError, InvariantError)
from .field import FieldTower


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map flags errors to 1
        raise _CliError(message)


def _budget(text: str) -> int:
    """A ``--budget`` value: an int of at least 0; argparse reports either
    fault through :meth:`_Parser.error`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be at least 0, got {value}")
    return value


def _tower(args) -> FieldTower:
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [int(tok) for tok in args.modulus.split(",")]
    return FieldTower(args.p, args.m, modulus)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_code(args):
    return codes.parse_code_file(_read(args.input))


def _load_reduction(args) -> codes.Reduction:
    obj = _load_code(args)
    if not isinstance(obj, codes.Reduction):
        raise _CliError(f"{args.input} does not declare blocks; this command needs a reduction")
    return obj


def _plain(obj) -> codes.LinearCode:
    return obj.code() if isinstance(obj, codes.Reduction) else obj


def _emit(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print(lines: Sequence[str]) -> None:
    for line in lines:
        print(line)


def _field_args(p, n=True, k=True) -> None:
    p.add_argument("--p", type=int, required=True, help="prime base field size")
    p.add_argument("--m", type=int, required=True, help="extension degree")
    if n:
        p.add_argument("--n", type=int, required=True, help="code length")
    if k:
        p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--modulus", help="override modulus, m+1 comma-separated digits")


def _out_arg(p) -> None:
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")


def _budget_arg(p) -> None:
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help="candidates the command may enumerate")


def _construct_args(group) -> None:
    con = group.add_subparsers(dest="what", required=True)

    p = con.add_parser("gabidulin")
    _field_args(p)
    p.add_argument("--points", help="space-separated evaluation points in scalar syntax")
    _out_arg(p)

    p = con.add_parser("cartesian")
    p.add_argument("--inputs", nargs="+", required=True, help="factor code files")
    _out_arg(p)

    p = con.add_parser("reducible")
    p.add_argument("--inputs", nargs="+", required=True, help="main component code files")
    p.add_argument("--seed", type=int, required=True, help="seed for random off-diagonal blocks")
    _out_arg(p)

    p = con.add_parser("mrd-plan")
    _field_args(p)

    p = con.add_parser("mrd-build")
    _field_args(p)
    p.add_argument("--seed", type=int, required=True)
    _out_arg(p)

    p = con.add_parser("opt")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulus")
    _out_arg(p)

    p = con.add_parser("plotkin")
    p.add_argument("--input1", required=True)
    p.add_argument("--input2", required=True)
    p.add_argument("--mode", choices=["uv", "alpha", "frobenius"], required=True)
    p.add_argument("--alpha", help="scalar for mode alpha, in scalar syntax")
    p.add_argument("--power", type=int, help="Frobenius power for mode frobenius")
    _out_arg(p)

    p = con.add_parser("transposed-gab")
    _field_args(p)
    _budget_arg(p)
    p.add_argument("--list", action="store_true", help="also list the codeword matrices")


def _grw_args(group) -> None:
    g = group.add_subparsers(dest="what", required=True)
    p = g.add_parser("exact")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["auto", "subcodes", "closed"], default="auto")
    _budget_arg(p)
    p = g.add_parser("bounds")
    p.add_argument("--input", required=True)
    _budget_arg(p)
    p = g.add_parser("estimates")
    _field_args(p)


def _check_args(group) -> None:
    c = group.add_subparsers(dest="what", required=True)
    for name in ("mrd", "degenerate", "product", "mrd-rank"):
        p = c.add_parser(name)
        p.add_argument("--input", required=True)
        if name.startswith("mrd"):
            _budget_arg(p)


def _dual_args(p) -> None:
    p.add_argument("--input", required=True)
    _out_arg(p)


def _equiv_args(group) -> None:
    e = group.add_subparsers(dest="what", required=True)
    p = e.add_parser("to-opt")
    p.add_argument("--input", required=True)
    _budget_arg(p)
    p = e.add_parser("product-test")
    p.add_argument("--input", required=True)


def _wiretap_args(group) -> None:
    w = group.add_subparsers(dest="what", required=True)
    p = w.add_parser("leak")
    p.add_argument("--input", required=True)
    p.add_argument("--wiretap", required=True)
    p.add_argument("--no-table", action="store_true",
                   help="skip the worst-case interpretation (no weight table)")
    _budget_arg(p)
    p = w.add_parser("empirical")
    p.add_argument("--input", required=True)
    p.add_argument("--wiretap", required=True)
    p.add_argument("--budget", type=_budget, default=JOINT_BUDGET)
    p = w.add_parser("certify")
    p.add_argument("--input", required=True)
    p.add_argument("--wiretap", required=True)
    _budget_arg(p)


def _reduce_args(group) -> None:
    r = group.add_subparsers(dest="what", required=True)
    p = r.add_parser("exact-d1")
    p.add_argument("--input", required=True)
    _budget_arg(p)
    _out_arg(p)
    p = r.add_parser("transform")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, required=True)
    _out_arg(p)


# group word -> (its registration keywords, which hold its line in the
# top-level help; what adds its subcommands and arguments), in help order
_GROUPS = {
    "construct": ({"help": "emit code files"}, _construct_args),
    "grw": ({"help": "weight tables and bounds"}, _grw_args),
    "check": ({"help": "MRD / degeneracy / product checks"}, _check_args),
    "dual": ({}, _dual_args),
    "equiv": ({"help": "rank equivalence constructions"}, _equiv_args),
    "wiretap": ({"help": "leakage computations"}, _wiretap_args),
    "reduce": ({"help": "reduction rewrites"}, _reduce_args),
}


def build_parser(argv: Optional[Sequence[str]] = None) -> _Parser:
    """The parser for ``argv``.  Every group is registered with its help
    line, but only the group that ``argv[0]`` names gets its subcommands
    and arguments.  Without such a word (no ``argv``, ``-h``, a typo)
    every group gets them, so argparse's help, usage and error texts are
    those of the full parser either way."""
    ap = _Parser(prog="rankcodes", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _GROUPS else None
    for name, (registration, add_args) in _GROUPS.items():
        group = sub.add_parser(name, **registration)
        if named in (None, name):
            add_args(group)
    return ap


def _cmd_construct(args) -> int:
    what = args.what
    if what == "gabidulin":
        tower = _tower(args)
        points = None
        if args.points:
            points = [tower.parse_scalar(tok) for tok in args.points.split()]
        code = codes.gabidulin(tower, args.n, args.k, points)
        _emit(args, codes.format_code_file(code))
    elif what == "cartesian":
        factors = [_plain(codes.parse_code_file(_read(path))) for path in args.inputs]
        _emit(args, codes.format_code_file(codes.cartesian(factors)))
    elif what == "reducible":
        mains = [_plain(codes.parse_code_file(_read(path))) for path in args.inputs]
        R = codes.reducible(mains, seed=args.seed)
        _emit(args, codes.format_code_file(R))
    elif what == "mrd-plan":
        plan = codes.mrd_plan(_tower(args), args.n, args.k)
        _print(plan.lines())
    elif what == "mrd-build":
        tower = _tower(args)
        plan = codes.mrd_plan(tower, args.n, args.k)
        R = codes.build_mrd_reducible(tower, plan, args.seed)
        _emit(args, codes.format_code_file(R))
    elif what == "opt":
        tower = _tower(args)
        _emit(args, codes.format_code_file(codes.build_c_opt(tower, args.k)))
    elif what == "plotkin":
        c1 = _plain(codes.parse_code_file(_read(args.input1)))
        c2 = _plain(codes.parse_code_file(_read(args.input2)))
        alpha = c1.tower.parse_scalar(args.alpha) if args.alpha else None
        R = codes.plotkin_variant(c1, c2, args.mode, alpha=alpha, frob_power=args.power)
        _emit(args, codes.format_code_file(R))
    elif what == "transposed-gab":
        tower = _tower(args)
        tg = codes.transposed_gabidulin(tower, args.n, args.k)
        listing = tg.matrices(args.budget) if args.list else []
        print(f"transposed-gab q={tower.p} n={args.n} m={tower.m} k={args.k} "
              f"size={tg.size} min_rank_distance={tg.min_rank_distance}")
        for M in listing:
            print("matrix " + " ".join(",".join(str(x) for x in row) for row in M))
    return 0


def _cmd_grw(args) -> int:
    from . import grw

    if args.what == "exact":
        code = _plain(_load_code(args))
        report = grw.grw_report_exact(code, args.budget, args.method)
        _print(report.lines())
    elif args.what == "bounds":
        R = _load_reduction(args)
        report = grw.grw_bounds_reducible(R, args.budget)
        _print(report.lines())
    elif args.what == "estimates":
        tower = _tower(args)
        plan = codes.mrd_plan(tower, args.n, args.k)
        table = grw.grw_estimates_mrd(plan)
        for r, v in enumerate(table, start=1):
            print(f"r={r} lower={v} upper=- exact=- method=thm-estimates")
        print(f"case={plan.case} verdict={plan.verdict}")
    return 0


def _cmd_check(args) -> int:
    if args.what == "product":
        from . import equivalence

        obj = _load_reduction(args)
        print(f"product={'true' if equivalence.exact_product_test(obj) else 'false'}")
        return 0
    from . import grw

    code = _plain(_load_code(args))
    if args.what == "mrd":
        report = grw.grw_report_exact(code, args.budget)
        print(f"mrd={grw._fmt_flag(report.mrd)} defect={grw._fmt_int(report.defect)}")
    elif args.what == "degenerate":
        print(f"degenerate={'true' if grw.is_degenerate(code) else 'false'}")
    elif args.what == "mrd-rank":
        print(f"mrd_rank={grw.mrd_rank(code, args.budget)}")
    return 0


def _cmd_dual(args) -> int:
    obj = _load_code(args)
    _emit(args, codes.format_code_file(_plain(obj).dual()))
    return 0


def _cmd_equiv(args) -> int:
    from . import equivalence

    obj = _load_reduction(args) if args.what == "product-test" else _load_code(args)
    if args.what == "to-opt":
        result = equivalence.to_c_opt(_plain(obj), args.budget)
        _print(result.lines())
    elif args.what == "product-test":
        parts = [obj.row_component(i) for i in range(obj.l) if obj.dims[i]]
        result = equivalence.product_characterization(parts)
        print(f"equivalent_to_product={'true' if result.equivalent else 'false'} "
              f"deficiency={result.deficiency}")
        if result.witness is not None:
            _print(result.witness.lines())
    return 0


def _cmd_wiretap(args) -> int:
    from . import wiretap
    from .rankmetric import GaloisClosedSpace

    obj = _load_reduction(args) if args.what == "certify" else _load_code(args)
    code = _plain(obj)
    B = wiretap.parse_wiretap_file(code.tower, _read(args.wiretap), code.n)
    if args.what == "leak":
        table = None
        if not args.no_table:
            from . import grw

            table, _ = grw.grw_table_exact(code, args.budget)
        report = wiretap.leakage_exact(code, B, table)
        _print(report.lines())
    elif args.what == "empirical":
        # the enumeration raises unless its value equals the exact leakage
        value = wiretap.leakage_joint_enumeration(code, B, args.budget)
        print(f"mu={len(B)} empirical={value} exact={value} agree=true")
    elif args.what == "certify":
        V = GaloisClosedSpace.from_fq_rows(code.tower, B, code.n)
        search = wiretap.composition_search(obj, V, budget=args.budget)
        exact = wiretap.leakage_exact(code, B).leakage
        if search.applicable and exact > search.bound:
            raise InvariantError(f"leakage {exact} exceeds the certified bound {search.bound}")
        if not search.applicable:
            print(f"applicable=false exact={exact}")
        else:
            comp = ",".join(str(r) for r in search.composition)
            print(f"applicable=true bound={search.bound} composition={comp} exact={exact}")
    return 0


def _cmd_reduce(args) -> int:
    R = _load_reduction(args)
    if args.what == "exact-d1":
        out = codes.exact_reduction_for_d1(R, args.budget)
    else:
        A = codes.random_block_transform(R, args.seed)
        out = codes.transform_reduction(R, A)
    _emit(args, codes.format_code_file(out))
    return 0


_HANDLERS = {
    "construct": _cmd_construct,
    "grw": _cmd_grw,
    "check": _cmd_check,
    "dual": _cmd_dual,
    "equiv": _cmd_equiv,
    "wiretap": _cmd_wiretap,
    "reduce": _cmd_reduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CodeFileError, HypothesisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
