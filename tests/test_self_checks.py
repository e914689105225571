"""Every self-check in the package raises InvariantError.

``python -O`` strips ``assert`` statements, and a bare ``AssertionError``
ends a CLI run in a traceback instead of exit code 3, so neither may
appear in ``src/rankcodes``; the acceptance suite passes under ``-O``.
"""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rankcodes"


def _stripped_or_bare_checks(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"


def test_no_assert_or_bare_assertion_error_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [hit for path in files for hit in _stripped_or_bare_checks(path)]
    assert found == []


def test_acceptance_optimized_subprocess():
    """tests/test_acceptance.py in a ``python -O`` process: no criterion it
    checks rests on an assert in the package."""
    res = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_acceptance.py"],
                         cwd=ROOT, env=src_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr
    assert " passed" in res.stdout and " failed" not in res.stdout
