"""Static checks on the package source."""

import ast
from pathlib import Path

import hyperk3

SRC = Path(hyperk3.__file__).parent


def test_no_bare_assert_in_package():
    """Invariants raise explicitly: ``python -O`` strips ``assert`` statements."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found
