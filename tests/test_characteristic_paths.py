"""Only the field and the rank-metric kernels branch on the characteristic.

``field.py`` keeps a binary fast path for its scalar arithmetic, and
``rankmetric.py`` chooses the packed digit kernel (XOR over F_2, digit
addition for odd p) that every row walk and the joint leakage enumeration
share.  Any other module that compares the characteristic with 2 is a
third code path for odd p.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcodes"
ALLOWED = {"field.py", "rankmetric.py"}


def _is_characteristic(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "p"
            or isinstance(node, ast.Attribute) and node.attr == "p")


def _characteristic_forks(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(_is_characteristic(x) for x in operands)
                    and any(isinstance(x, ast.Constant) and x.value == 2 for x in operands)):
                yield f"{path.name}:{node.lineno}: compares the characteristic with 2"


def test_only_kernels_branch_on_characteristic():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [hit for path in files if path.name not in ALLOWED
             for hit in _characteristic_forks(path)]
    assert found == []
    # not vacuous: the forks the two allowed modules do have are seen
    for name in ALLOWED:
        assert list(_characteristic_forks(SRC / name)), name
