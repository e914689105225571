import argparse
import contextlib
import io

import pytest

from rankcodes import cli, parse_code_file
from rankcodes.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_opt_then_grw_exact(tmp_path, capsys):
    path = str(tmp_path / "opt.code")
    rc, _, _ = run(capsys, "construct", "opt", "--p", "2", "--m", "2", "--k", "2", "-o", path)
    assert rc == 0
    rc, out, _ = run(capsys, "grw", "exact", "--input", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("r=1") and "exact=2" in lines[0]
    assert lines[1].startswith("r=2") and "exact=4" in lines[1]
    assert "degenerate=false" in lines[-1]


def test_construct_gabidulin_then_check_mrd(tmp_path, capsys):
    path = str(tmp_path / "gab.code")
    rc, _, _ = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "4",
                   "--n", "4", "--k", "2", "-o", path)
    assert rc == 0
    rc, out, _ = run(capsys, "check", "mrd", "--input", path)
    assert rc == 0
    assert out.startswith("mrd=true")


def test_check_mrd_on_zero_code(tmp_path, capsys):
    path = tmp_path / "zero.code"
    path.write_text("field p=2 m=2 modulus=1,1,1\ncode n=4 k=0\n")
    rc, out, err = run(capsys, "check", "mrd", "--input", str(path))
    assert (rc, out, err) == (0, "mrd=unknown defect=-\n", "")


def test_estimates_outside_hypotheses_exit_1(capsys):
    rc, out, err = run(capsys, "grw", "estimates", "--p", "2", "--m", "6",
                       "--n", "8", "--k", "3")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "not-covered" in err


def test_budget_exit_code_names_count(tmp_path, capsys):
    path = str(tmp_path / "mrd.code")
    run(capsys, "construct", "mrd-build", "--p", "2", "--m", "4",
        "--n", "6", "--k", "3", "--seed", "1", "-o", path)
    rc, _, err = run(capsys, "grw", "exact", "--input", path,
                     "--method", "subcodes", "--budget", "10")
    assert rc == 2
    # the whole table: [3 1]_16 + [3 2]_16 + [3 3]_16, the same on C^⊥ since k = n − k
    assert "547" in err


def test_validation_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("field p=2 m=2 modulus=1,1,1\ncode n=2 k=1\nrow 1,0\n")
    rc, _, err = run(capsys, "grw", "exact", "--input", str(bad))
    assert rc == 1 and "line 3" in err
    rc, _, err = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "2",
                     "--n", "3", "--k", "1")
    assert rc == 1  # n > m
    rc, _, err = run(capsys, "grw", "exact", "--no-such-flag")
    assert rc == 1
    rc, _, err = run(capsys, "check", "product", "--input", str(bad))
    assert rc == 1
    good = tmp_path / "good.code"
    good.write_text("field p=2 m=2 modulus=1,1,1\ncode n=2 k=1\nrow 1,0 0,0\n")
    rc, _, err = run(capsys, "check", "degenerate", "--input", str(good), "--budget", "5")
    assert rc == 1 and err.startswith("error:") and "--budget" in err


def test_roundtrip_and_determinism(tmp_path, capsys):
    out1 = str(tmp_path / "a.code")
    out2 = str(tmp_path / "b.code")
    args = ["construct", "mrd-build", "--p", "2", "--m", "2", "--n", "4",
            "--k", "2", "--seed", "5"]
    run(capsys, *args, "-o", out1)
    run(capsys, *args, "-o", out2)
    text1 = open(out1).read()
    assert text1 == open(out2).read()
    # re-parse and re-emit: byte identical
    from rankcodes import format_code_file
    assert format_code_file(parse_code_file(text1)) == text1


def test_construct_requires_seed_for_random_fill(tmp_path, capsys):
    gab = str(tmp_path / "g.code")
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "2", "--n", "2",
        "--k", "1", "-o", gab)
    rc, _, err = run(capsys, "construct", "reducible", "--inputs", gab, gab)
    assert rc == 1 and "seed" in err
    rc, _, _ = run(capsys, "construct", "reducible", "--inputs", gab, gab,
                   "--seed", "3", "-o", str(tmp_path / "r.code"))
    assert rc == 0
    obj = parse_code_file(open(str(tmp_path / "r.code")).read())
    assert obj.lengths == (2, 2)


def test_grw_bounds_and_estimates(tmp_path, capsys):
    red = str(tmp_path / "red.code")
    run(capsys, "construct", "mrd-build", "--p", "2", "--m", "2", "--n", "4",
        "--k", "2", "--seed", "1", "-o", red)
    rc, out, _ = run(capsys, "grw", "bounds", "--input", red)
    assert rc == 0
    assert out.splitlines()[0].startswith("r=1 lower=2 upper=2 exact=2")
    rc, out, _ = run(capsys, "grw", "estimates", "--p", "2", "--m", "2",
                     "--n", "4", "--k", "2")
    assert rc == 0
    assert "r=1 lower=2" in out and "method=thm-estimates" in out


def test_mrd_plan_output(capsys):
    rc, out, _ = run(capsys, "construct", "mrd-plan", "--p", "2", "--m", "2",
                     "--n", "3", "--k", "1")
    assert rc == 0
    assert "case=2" in out and "verdict=singleton-optimal" in out
    assert "components 2,1 1,0" in out


def test_dual_and_mrd_rank(tmp_path, capsys):
    gab = str(tmp_path / "g.code")
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "4", "--n", "4",
        "--k", "2", "-o", gab)
    dual = str(tmp_path / "d.code")
    rc, _, _ = run(capsys, "dual", "--input", gab, "-o", dual)
    assert rc == 0
    parsed = parse_code_file(open(dual).read())
    assert parsed.k == 2
    rc, out, _ = run(capsys, "check", "mrd-rank", "--input", gab)
    assert rc == 0 and out.strip() == "mrd_rank=1"


def test_mrd_rank_within_the_default_budget(tmp_path, capsys):
    """The seed-1 MRD build over F_16 with n = 10, k = 4: the table of C
    prices at 78,900 subcodes, where the whole dual table would price at
    229,755,604 and the r = 1 walk on C^⊥ at [6 1]_16 = 1,118,481."""
    path = str(tmp_path / "m.code")
    run(capsys, "construct", "mrd-build", "--p", "2", "--m", "4", "--n", "10", "--k", "4",
        "--seed", "1", "-o", path)
    assert run(capsys, "check", "mrd-rank", "--input", path) == (0, "mrd_rank=4\n", "")
    rc, out, _ = run(capsys, "grw", "exact", "--input", path)
    assert rc == 0 and "mrd_rank=4" in out.splitlines()[-1]


def test_equiv_to_opt_flow(tmp_path, capsys):
    opt = str(tmp_path / "opt.code")
    run(capsys, "construct", "opt", "--p", "2", "--m", "2", "--k", "2", "-o", opt)
    rc, out, _ = run(capsys, "equiv", "to-opt", "--input", opt)
    assert rc == 0
    assert out.strip().endswith("certified=true")
    assert out.startswith("map t=4")
    # refusal on a non-maximal code (table (3,4), not (4,8)): validation error
    gab = str(tmp_path / "g.code")
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "4", "--n", "4",
        "--k", "2", "-o", gab)
    rc, _, err = run(capsys, "equiv", "to-opt", "--input", gab)
    assert rc == 1 and "maximal" in err


def test_equiv_product_test(tmp_path, capsys):
    gab = str(tmp_path / "g.code")
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "2", "--n", "2",
        "--k", "1", "-o", gab)
    red = str(tmp_path / "r.code")
    run(capsys, "construct", "cartesian", "--inputs", gab, gab, "-o", red)
    rc, out, _ = run(capsys, "equiv", "product-test", "--input", red)
    assert rc == 0
    assert out.splitlines()[0] == "equivalent_to_product=true deficiency=0"
    rc, out, _ = run(capsys, "check", "product", "--input", red)
    assert rc == 0 and out.strip() == "product=true"


def test_zero_reduction_is_the_empty_product(tmp_path, capsys):
    """A reduction whose every k_i = 0 is the zero code, the empty product:
    both product commands say so and exit 0."""
    path = tmp_path / "zero.code"
    path.write_text("field p=2 m=2 modulus=1,1,1\ncode n=3 k=0\nblocks n=1,2 k=0,0\n")
    assert run(capsys, "check", "product", "--input", str(path)) == (0, "product=true\n", "")
    assert run(capsys, "equiv", "product-test", "--input", str(path)) == (
        0, "equivalent_to_product=true deficiency=0\n", "")


def test_wiretap_flow(tmp_path, capsys):
    opt = str(tmp_path / "opt.code")
    run(capsys, "construct", "opt", "--p", "2", "--m", "2", "--k", "2", "-o", opt)
    wfile = tmp_path / "tap.wiretap"
    wfile.write_text("wiretap mu=2\nrow 1,0 0,0 0,0 0,0\nrow 0,0 0,0 1,0 0,0\n")
    rc, out, _ = run(capsys, "wiretap", "leak", "--input", opt, "--wiretap", str(wfile))
    assert rc == 0
    assert out.splitlines()[0] == "mu=2 leakage=0 worst_case_r=1"
    rc, out, _ = run(capsys, "wiretap", "empirical", "--input", opt, "--wiretap", str(wfile))
    assert rc == 0
    assert "empirical=0 exact=0 agree=true" in out
    rc, out, _ = run(capsys, "wiretap", "certify", "--input", opt, "--wiretap", str(wfile))
    assert rc == 0
    assert out.strip() == "applicable=true bound=0 composition=1,1 exact=0"


def test_wiretap_empirical_budget_exit_2(tmp_path, capsys):
    opt = str(tmp_path / "opt.code")
    run(capsys, "construct", "opt", "--p", "2", "--m", "2", "--k", "2", "-o", opt)
    wfile = tmp_path / "tap.wiretap"
    wfile.write_text("wiretap mu=1\nrow 1,0 0,0 0,0 0,0\n")
    rc, out, err = run(capsys, "wiretap", "empirical", "--input", opt,
                       "--wiretap", str(wfile), "--budget", "10")
    assert rc == 2 and out == ""
    assert err == "error: enumerating 256 atoms exceeds the budget of 10\n"


@pytest.mark.parametrize("command", [["grw", "exact"], ["wiretap", "empirical", "--wiretap", "TAP"]])
def test_negative_budget_is_a_bad_flag(tmp_path, capsys, command):
    """A budget below 0 is refused as a bad flag (exit 1, one error line,
    nothing on stdout), not reported as an overrun; a budget of 0 is a
    valid flag that refuses any enumeration (exit 2)."""
    opt = str(tmp_path / "opt.code")
    run(capsys, "construct", "opt", "--p", "2", "--m", "2", "--k", "2", "-o", opt)
    tap = tmp_path / "tap.wiretap"
    tap.write_text("wiretap mu=1\nrow 1,0 0,0 0,0 0,0\n")
    argv = [str(tap) if arg == "TAP" else arg for arg in command] + ["--input", opt]
    rc, out, err = run(capsys, *argv, "--budget", "-5")
    assert (rc, out) == (1, "")
    assert err == "error: argument --budget: budget must be at least 0, got -5\n"
    rc, out, err = run(capsys, *argv, "--budget", "0")
    assert (rc, out) == (2, "") and err.endswith("exceeds the budget of 0\n")


@pytest.mark.parametrize("command", [
    ["grw", "bounds"], ["check", "product"], ["equiv", "product-test"],
    ["wiretap", "certify", "--wiretap", "TAP"], ["reduce", "exact-d1"],
    ["reduce", "transform", "--seed", "1"]])
def test_reduction_commands_refuse_plain_code(tmp_path, capsys, command):
    """Every command that needs a reduction refuses a code file without a
    blocks line the same way: exit 1, one error line, nothing on stdout."""
    gab = str(tmp_path / "g.code")
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "2", "--n", "2",
        "--k", "1", "-o", gab)
    tap = tmp_path / "tap.wiretap"
    tap.write_text("wiretap mu=1\nrow 1,0 0,0\n")
    argv = [str(tap) if a == "TAP" else a for a in command]
    rc, out, err = run(capsys, *argv, "--input", gab)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "needs a reduction" in err


def test_reduce_flows(tmp_path, capsys):
    red = str(tmp_path / "red.code")
    run(capsys, "construct", "mrd-build", "--p", "2", "--m", "3", "--n", "5",
        "--k", "3", "--seed", "9", "-o", red)
    out1 = str(tmp_path / "d1.code")
    rc, _, _ = run(capsys, "reduce", "exact-d1", "--input", red, "-o", out1)
    assert rc == 0
    a = parse_code_file(open(red).read())
    b = parse_code_file(open(out1).read())
    assert a.code().equals(b.code())
    out2 = str(tmp_path / "tr.code")
    rc, _, _ = run(capsys, "reduce", "transform", "--input", red, "--seed", "4", "-o", out2)
    assert rc == 0
    c = parse_code_file(open(out2).read())
    assert a.code().equals(c.code())


def test_modulus_override(tmp_path, capsys):
    path = str(tmp_path / "g.code")
    rc, _, _ = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3",
                   "--n", "3", "--k", "1", "--modulus", "1,1,0,1", "-o", path)
    assert rc == 0
    assert open(path).read().splitlines()[0] == "field p=2 m=3 modulus=1,1,0,1"
    # the other irreducible cubic is accepted too and changes the file header
    rc, _, _ = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3",
                   "--n", "3", "--k", "1", "--modulus", "1,0,1,1", "-o", path)
    assert rc == 0
    assert "modulus=1,0,1,1" in open(path).read()
    rc, _, err = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3",
                     "--n", "3", "--k", "1", "--modulus", "1,1,1,1")
    assert rc == 1 and "reducible" in err  # (y+1)(y^2+1)... not irreducible
    # unreduced digits are refused, as in a code file, not read mod p
    for modulus in ("3,1,0,1", "-1,1,0,1"):
        rc, out, err = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3",
                           "--n", "3", "--k", "1", f"--modulus={modulus}")
        assert rc == 1 and out == ""
        assert err == "error: modulus coefficients must be reduced mod p\n"


def test_construct_gabidulin_with_points(tmp_path, capsys):
    path = str(tmp_path / "g.code")
    rc, _, _ = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3",
                   "--n", "2", "--k", "1", "--points", "1,0,0 0,0,1", "-o", path)
    assert rc == 0
    code = parse_code_file(open(path).read())
    assert code.G[0] == (1, 4)  # the chosen points themselves
    rc, _, err = run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3",
                     "--n", "2", "--k", "1", "--points", "1,0,0 1,0,0")
    assert rc == 1 and "dependent" in err


def test_construct_plotkin_cli(tmp_path, capsys):
    a = str(tmp_path / "a.code")
    b = str(tmp_path / "b.code")
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3", "--n", "3",
        "--k", "1", "-o", a)
    run(capsys, "construct", "gabidulin", "--p", "2", "--m", "3", "--n", "3",
        "--k", "2", "-o", b)
    out = str(tmp_path / "p.code")
    rc, _, _ = run(capsys, "construct", "plotkin", "--input1", a, "--input2", b,
                   "--mode", "alpha", "--alpha", "0,1,0", "-o", out)
    assert rc == 0
    R = parse_code_file(open(out).read())
    assert R.lengths == (3, 3) and R.k == 3
    rc, _, err = run(capsys, "construct", "plotkin", "--input1", a, "--input2", b,
                     "--mode", "alpha", "--alpha", "1,0,0")
    assert rc == 1 and "outside F_q" in err


def test_wiretap_leak_no_table(tmp_path, capsys):
    opt = str(tmp_path / "opt.code")
    run(capsys, "construct", "opt", "--p", "2", "--m", "2", "--k", "1", "-o", opt)
    wfile = tmp_path / "tap.wiretap"
    wfile.write_text("wiretap mu=1\nrow 1,0 0,0\n")
    rc, out, _ = run(capsys, "wiretap", "leak", "--input", opt,
                     "--wiretap", str(wfile), "--no-table")
    assert rc == 0
    assert out.strip() == "mu=1 leakage=0 worst_case_r=-"


def test_transposed_gab_listing(capsys):
    rc, out, _ = run(capsys, "construct", "transposed-gab", "--p", "2", "--m", "2",
                     "--n", "3", "--k", "1", "--list")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "transposed-gab q=2 n=3 m=2 k=1 size=8 min_rank_distance=2"
    assert len(lines) == 1 + 8
    rc, out, err = run(capsys, "construct", "transposed-gab", "--p", "2", "--m", "2",
                       "--n", "3", "--k", "2", "--list", "--budget", "10")
    assert rc == 2 and "64" in err and out == ""
    rc, out, err = run(capsys, "construct", "transposed-gab", "--p", "2", "--m", "2",
                       "--n", "3", "--k", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _subcommands(parser) -> dict:
    """name -> parser of each subcommand that ``parser`` registers."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _outcome(parser, argv):
    """What parsing ``argv`` prints and how it ends: help exits, a bad
    flag raises the CLI's error with argparse's message."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            parser.parse_args(argv)
            end = "parsed"
        except SystemExit as exc:
            end = f"exit {exc.code}"
        except cli._CliError as exc:
            end = f"error {exc}"
    return end, out.getvalue()


def test_parser_for_a_command_matches_the_full_parser():
    full = cli.build_parser()
    groups = _subcommands(full)
    assert list(groups) == list(cli._GROUPS)
    cases = [[], ["--help"], ["bogus"]]
    subcommands = 0
    for group, gp in groups.items():
        cases += [[group, "--help"], [group, "bogus"], [group]]
        for name in _subcommands(gp):
            cases += [[group, name, "--help"], [group, name]]
            subcommands += 1
    assert (len(groups), subcommands) == (7, 22)
    for argv in cases:
        built = cli.build_parser(argv)
        if argv and argv[0] in groups:
            # the other groups are registered but empty
            assert [g for g, gp in _subcommands(built).items()
                    if gp._actions[1:]] == [argv[0]]
        got, want = _outcome(built, argv), _outcome(full, argv)
        assert got == want, argv
        assert want[0] != "parsed", argv
