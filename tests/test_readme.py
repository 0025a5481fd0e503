"""The README's command-line examples, run as written.

Each ``$ minfact ...`` line in a ``sh`` block of the README is one example:
its argv is run through ``cli.run`` in process, and its stdout must equal
the lines printed under it, up to the next blank line, prompt or fence.
"""

import re
import shlex
from pathlib import Path

import pytest

from minfact.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples(text):
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ minfact "):
                prompt, *out = chunk.split("\n\n")[0].splitlines()
                examples.append((shlex.split(prompt[len("$ minfact "):]), out))
    return examples


EXAMPLES = _examples(README.read_text())


def test_every_example_is_found():
    assert [argv[0] for argv, _ in EXAMPLES] == ["count", "map", "park", "verify"]


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(argv, expected, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
