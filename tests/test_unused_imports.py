"""Every module in ``src/rankcodes`` uses each name it imports.

A helper deleted with its last caller can leave its import behind; this
AST check finds such an import.  A name counts as used when it occurs as a
name anywhere in its module: a call, an attribute's root, an annotation or
a default value.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcodes"


def _unused_imports(source, filename="<source>"):
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source, filename=filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from typing import List, Optional\n\n"
              "def f(x: List[int]) -> None:\n    sys.exit(len(x))\n")
    assert _unused_imports(source) == [(2, "os"), (4, "Optional")]


def test_src_imports_nothing_unused():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [f"{path.name}:{line}: {name}" for path in files
             for line, name in _unused_imports(path.read_text(), str(path))]
    assert found == []
