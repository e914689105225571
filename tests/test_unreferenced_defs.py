"""Every top-level ``def`` and ``class`` in ``src/rankcodes`` has a use.

A helper whose last caller is deleted stays behind unless something finds
it; this AST check does.  A definition counts as used when its name occurs
in ``src/`` outside its own body, as a name or as an attribute, or when
the package exports it (``rankcodes._EXPORTS``).  Module hooks such as
``__getattr__`` are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcodes"

# name -> why it stays without a use in src/
KEPT = {
    "linalg.subspace_bases": "the tests' reference enumerator; perfbench wraps it by name",
    "grw.degeneracy_report": "awaits its CLI report (ROADMAP item 7)",
}


def _names(node):
    """Every name and attribute that occurs under ``node``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _unreferenced(sources, exported=()):
    """``module.name`` of each top-level def or class of ``sources`` (module
    -> source text) that nothing else uses and ``exported`` does not list."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    stmts = [(module, stmt, _names(stmt)) for module, tree in trees.items() for stmt in tree.body]
    found = []
    for module, stmt, _ in stmts:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if (name.startswith("__") and name.endswith("__")) or name in exported:
            continue
        if not any(name in names for _, other, names in stmts if other is not stmt):
            found.append(f"{module}.{name}")
    return sorted(found)


def test_check_finds_an_unreferenced_def():
    sources = {
        "a": "def used():\n    pass\n\ndef orphan():\n    return orphan\n\n"
             "def public():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b": "from . import a\n\nclass Lonely:\n    pass\n\nVALUE = a.used()\n",
    }
    assert _unreferenced(sources, exported=("public",)) == ["a.orphan", "b.Lonely"]


def test_src_defines_nothing_unreferenced():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    sources = {path.stem: path.read_text() for path in files}
    exports = ast.literal_eval(next(
        stmt.value for stmt in ast.parse(sources["__init__"]).body
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "_EXPORTS"))
    exported = {name for names in exports.values() for name in names}
    assert _unreferenced(sources, exported) == sorted(KEPT)
