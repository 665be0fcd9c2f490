"""Static checks on the package source."""

import ast
import re
from collections import Counter
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


def test_every_definition_is_referenced():
    """Each function, method and class under src/hyperk3 has a use besides its definition.

    A use is the name as a word anywhere in src/, tests/ or pyproject.toml
    (the console-script entry point lives there); dunder methods are exempt.
    """
    root = Path(__file__).resolve().parents[1]
    defined = Counter()
    where = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
                    where.setdefault(node.name, f"{path.relative_to(SRC)}:{node.lineno}")
    texts = [p.read_text() for d in ("src", "tests") for p in sorted((root / d).rglob("*.py"))]
    texts.append((root / "pyproject.toml").read_text())
    words = Counter(re.findall(r"\w+", "\n".join(texts)))
    unused = sorted(f"{where[name]} {name}" for name, n in defined.items() if words[name] <= n)
    assert not unused, unused
