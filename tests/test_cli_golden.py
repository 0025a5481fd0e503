"""CLI output pinned byte for byte.

``cli_golden.json`` is the one table of CLI output pins.  It holds, per
argv, the exit status and the SHA-256 of stdout.  The test here runs every
entry in process, and CI runs every entry through ``python -m minfact``.
No other file writes a CLI digest out, except the benchmark's two, which a
test here holds equal to their entries.

The first 441 entries were recorded with the code as it was before the
enumeration was streamed and the duplicate parsers and sorters were merged.
They cover every subcommand and both formats for n <= 6, chains given as
text and as JSON, members and non-members, plus domain errors (exit 1) and
usage errors (exit 2).  The entries after them pin the larger runs, and
carry two more fields:

- ``why``: what the pin guards, such as the memo level a walk takes or the
  conversion that keeps a count fast;
- ``timeout_s``: the seconds CI allows the run, on entries whose speed is
  part of the pin.  An entry without one gets 60 s in CI.

A new entry is recorded at the parent commit, before ``src/`` is edited,
so that it pins the bytes the change must keep rather than the bytes it
makes.
"""

import contextlib
import hashlib
import json
import re
import runpy
from pathlib import Path

from minfact.cli import run

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
SUBCOMMANDS = {
    "count", "enumerate", "verify", "validate", "map",
    "section", "fiber", "park", "act", "involute",
}


class _HashingSink:
    # a stdout that keeps only the digest: enumerate -n 9 -k 8 writes
    # about 190 MB of text
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def outcome(argv):
    sink = _HashingSink()
    with contextlib.redirect_stdout(sink):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, sink.digest.hexdigest()


def test_corpus_covers_every_subcommand_and_exit_status():
    assert {case["argv"][0] for case in CASES if case["argv"]} >= SUBCOMMANDS
    assert {case["exit"] for case in CASES} == {0, 1, 2}


def test_no_argv_appears_twice():
    argvs = [tuple(case["argv"]) for case in CASES]
    assert len(set(argvs)) == len(argvs)


def test_every_timeout_is_a_positive_number():
    timeouts = [case["timeout_s"] for case in CASES if "timeout_s" in case]
    assert timeouts
    for t in timeouts:
        assert type(t) in (int, float) and t > 0, t


def test_workflow_writes_no_digest_out():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"[0-9a-f]{64}", workflow) == []


def test_benchmark_digests_are_the_table_entries():
    # bench/ checks its workloads' output against its own two constants
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    digests = {tuple(case["argv"]): case["stdout_sha256"] for case in CASES}
    assert workloads["ENUM_SHA256"] == digests["enumerate", "-n", "9", "-k", "5"]
    assert workloads["VERIFY_SHA256"] == digests["verify", "-n", "6"]


def test_cli_matches_golden_corpus():
    mismatches = [
        case["argv"]
        for case in CASES
        if outcome(case["argv"]) != (case["exit"], case["stdout_sha256"])
    ]
    assert mismatches == [], mismatches
