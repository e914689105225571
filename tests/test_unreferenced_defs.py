"""Every top-level ``def`` and ``class`` in ``src/rankcodes``, and every
method and property of its classes, has a use.

A helper whose last caller is deleted stays behind unless something finds
it; this AST check does.  A top-level definition counts as used when its
name occurs in ``src/`` outside its own body, as a name or as an
attribute, or when the package exports it (``rankcodes._EXPORTS``).  A
method or property is reached through an attribute, so it counts as used
when its name occurs as an attribute outside its own body; a local
variable of the same name is no use of it.  Dunders such as module
``__getattr__`` or a class's ``__repr__`` are called by Python itself and
are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcodes"

# name -> why it stays without a use in src/
KEPT = {
    "linalg.subspace_bases": "the tests' reference enumerator; perfbench wraps it by name",
    "grw.degeneracy_report": "awaits its CLI report (ROADMAP item 7)",
    "field.FieldTower.sub": "perfbench counts it as a field operation by name",
    "codes.Reduction.generator": "perfbench takes a reduction's last row group from it",
    "grw.GrwReport.table": "perfbench reads each report's weights through it",
    "cli._Parser.error": "argparse calls it on a bad flag",
}


def _names(node, skip=None, kinds=(ast.Name, ast.Attribute)):
    """Every name and attribute (or only those of ``kinds``) that occurs
    under ``node``, outside the subtree ``skip``."""
    found, todo = set(), [node]
    while todo:
        sub = todo.pop()
        if sub is skip:
            continue
        if isinstance(sub, kinds):
            found.add(sub.id if isinstance(sub, ast.Name) else sub.attr)
        todo.extend(ast.iter_child_nodes(sub))
    return found


def _unreferenced(sources, exported=()):
    """``module.name`` of each top-level def or class of ``sources`` (module
    -> source text), and ``module.Class.name`` of each method, that nothing
    else uses and ``exported`` does not list."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    stmts = [(module, stmt, _names(stmt), _names(stmt, kinds=ast.Attribute))
             for module, tree in trees.items() for stmt in tree.body]
    found = []
    for module, stmt, _, _ in stmts:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        defs = [(stmt.name, stmt.name, [names for _, other, names, _ in stmts if other is not stmt])]
        if isinstance(stmt, ast.ClassDef):
            attrs = [attrs for _, other, _, attrs in stmts if other is not stmt]
            defs += [(f"{stmt.name}.{sub.name}", sub.name,
                      attrs + [_names(stmt, skip=sub, kinds=ast.Attribute)])
                     for sub in stmt.body if isinstance(sub, ast.FunctionDef)]
        for qualname, name, scopes in defs:
            if (name.startswith("__") and name.endswith("__")) or qualname in exported:
                continue
            if not any(name in names for names in scopes):
                found.append(f"{module}.{qualname}")
    return sorted(found)


def test_check_finds_an_unreferenced_def():
    sources = {
        "a": "def used():\n    pass\n\ndef orphan():\n    return orphan\n\n"
             "def public():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b": "from . import a\n\nclass Lonely:\n    pass\n\nVALUE = a.used()\n",
        "c": "class Pair:\n    def __init__(self):\n        self.first()\n\n"
             "    def first(self):\n        return self.first\n\n"
             "    @property\n    def unread(self):\n        return self.unread\n\n"
             "    def solo(self):\n        return self.solo()\n\n"
             "def shadow(solo):\n    return solo\n\nPAIR = shadow(Pair())\n",
    }
    assert _unreferenced(sources, exported=("public",)) == [
        "a.orphan", "b.Lonely", "c.Pair.solo", "c.Pair.unread"]


def test_src_defines_nothing_unreferenced():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    sources = {path.stem: path.read_text() for path in files}
    exports = ast.literal_eval(next(
        stmt.value for stmt in ast.parse(sources["__init__"]).body
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "_EXPORTS"))
    exported = {name for names in exports.values() for name in names}
    assert _unreferenced(sources, exported) == sorted(KEPT)
