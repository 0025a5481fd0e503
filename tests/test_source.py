import ast
from pathlib import Path

import minfact

SOURCES = sorted(Path(minfact.__file__).parent.glob("*.py"))


def test_invariants_are_raised_not_asserted():
    # python -O strips assert statements, and with them any check they make
    assert {p.name for p in SOURCES} >= {"action.py", "parking.py", "surjection.py"}
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
