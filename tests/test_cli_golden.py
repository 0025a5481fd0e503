"""CLI output pinned byte for byte.

``cli_golden.json`` holds, per argv, the exit status and the SHA-256 of
stdout, recorded with the code as it was before the enumeration was
streamed and the duplicate parsers and sorters were merged.  The argvs
cover every subcommand and both formats for n <= 6, chains given as text
and as JSON, members and non-members, plus domain errors (exit 1) and
usage errors (exit 2).
"""

import hashlib
import json
from pathlib import Path

from minfact.cli import run

CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
SUBCOMMANDS = {
    "count", "enumerate", "verify", "validate", "map",
    "section", "fiber", "park", "act", "involute",
}


def outcome(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_corpus_covers_every_subcommand_and_exit_status():
    assert {case["argv"][0] for case in CASES if case["argv"]} >= SUBCOMMANDS
    assert {case["exit"] for case in CASES} == {0, 1, 2}


def test_cli_matches_golden_corpus(capsys):
    mismatches = [
        case["argv"]
        for case in CASES
        if outcome(case["argv"], capsys) != (case["exit"], case["stdout_sha256"])
    ]
    assert mismatches == []
