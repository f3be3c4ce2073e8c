"""Rules the package source keeps, checked on its syntax trees."""

import ast
import pathlib

import splitspecies

PACKAGE_DIR = pathlib.Path(splitspecies.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants raise package errors, so they hold under ``python -O`` too."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
