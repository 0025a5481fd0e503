import ast
from pathlib import Path

import pytest

import minfact

SOURCES = sorted(Path(minfact.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def test_every_file_parses_as_python_3_10():
    # pyproject.toml promises python >= 3.10: no except*, no 3.11+ syntax
    assert {p.name for p in TESTS} >= {"helpers.py", "test_source.py"}
    for path in SOURCES + TESTS:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_the_3_10_grammar_rejects_except_star():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
