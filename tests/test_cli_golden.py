"""Byte-exact golden transcript of the README's CLI session.

The commands below are the README's CLI section in order, plus a
closed-space ``grw exact`` on Gabidulin [6,3] over F_64, the
``check mrd-rank`` / ``check degenerate`` reports on ``red.code``, and
Gabidulin codes over F_27 (odd characteristic) and F_2048 (the largest
tower of the session, on the log tables that every tower up to 2^16 uses)
with their weights and dual.  Each
transcript block holds the command, its stdout, its exit code and, for
``-o`` commands, the file it wrote.  The expected transcript lives in
``cli_golden.txt`` next to this file; after a deliberate output change,
regenerate it with::

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt

The session runs twice: in-process through ``main``, and as one
``python -O -m rankcodes.cli`` process per command, which shows that no
printed result depends on an ``assert``.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from rankcodes.cli import main

from conftest import src_env

HERE = Path(__file__).resolve().parent

TAP_FILE = "wiretap mu=2\nrow 1,0 0,0 0,0 0,0\nrow 0,0 0,0 1,0 0,0\n"

COMMANDS = [
    "construct opt --p 2 --m 2 --k 2 -o opt.code",
    "grw exact --input opt.code",
    "construct mrd-plan --p 2 --m 2 --n 4 --k 2",
    "construct mrd-build --p 2 --m 2 --n 4 --k 2 --seed 7 -o red.code",
    "check mrd --input red.code",
    "grw bounds --input red.code",
    "grw estimates --p 2 --m 2 --n 4 --k 2",
    "dual --input red.code",
    "check product --input red.code",
    "equiv to-opt --input opt.code",
    "equiv product-test --input red.code",
    "wiretap leak --input opt.code --wiretap tap.wiretap",
    "wiretap empirical --input opt.code --wiretap tap.wiretap",
    "wiretap certify --input opt.code --wiretap tap.wiretap",
    "reduce exact-d1 --input red.code",
    "reduce transform --input red.code --seed 3",
    "construct gabidulin --p 2 --m 6 --n 6 --k 3 -o g63.code",
    "grw exact --input g63.code --method closed",
    "check mrd-rank --input red.code",
    "check degenerate --input red.code",
    "construct gabidulin --p 3 --m 3 --n 3 --k 2 -o g33.code",
    "grw exact --input g33.code",
    "dual --input g33.code",
    "construct gabidulin --p 2 --m 11 --n 4 --k 2 -o g11.code",
    "grw exact --input g11.code --method closed",
]


def transcript(run, workdir: Path) -> str:
    """Run every command through ``run(argv) -> (rc, stdout)`` in workdir."""
    (workdir / "tap.wiretap").write_text(TAP_FILE)
    out = []
    for cmd in COMMANDS:
        argv = cmd.split()
        rc, stdout = run(argv)
        out.append(f"$ rankcodes {cmd}\n{stdout}[exit {rc}]\n")
        if "-o" in argv:
            name = argv[argv.index("-o") + 1]
            out.append(f"[file {name}]\n{(workdir / name).read_text()}")
    return "".join(out)


def expected() -> str:
    return (HERE / "cli_golden.txt").read_text()


def test_golden_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def run(argv):
        rc = main(argv)
        return rc, capsys.readouterr().out

    assert transcript(run, tmp_path) == expected()


def test_golden_optimized_subprocess(tmp_path):
    env = src_env()

    def run(argv):
        res = subprocess.run([sys.executable, "-O", "-m", "rankcodes.cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        return res.returncode, res.stdout

    assert transcript(run, tmp_path) == expected()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            return rc, buf.getvalue()

        sys.stdout.write(transcript(run, Path(tmp)))
