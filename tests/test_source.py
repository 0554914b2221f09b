"""Properties of the package source itself."""

import ast
from pathlib import Path

import hcolour

SRC = Path(hcolour.__file__).resolve().parent


def test_no_check_relies_on_assert():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
