"""No library assert decides control flow: `python -O` strips them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uavee"


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements under src/uavee: {found}"
