"""Static checks on the package source."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "coxsph"


def test_no_assert_statements():
    # `python -O` strips asserts, so a correctness check must raise instead;
    # pytest rewrites asserts only in test_*.py and conftest.py, so the tests'
    # helper modules are held to the same rule
    helpers = [
        path for path in sorted(TESTS.glob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]
    paths = sorted(SRC.glob("*.py")) + helpers
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and helpers
    assert found == []
