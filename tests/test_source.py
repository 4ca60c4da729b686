"""Source-level rules that no behavioural test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latticeopt"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so an invariant that guards
    # exactness must raise explicitly to hold under -O.
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)]
    assert found == []
