"""Fuzz the CLI boundary: every argv ends in exit 0, 1 or 2, an exit 1
leaves exactly one ``error:`` line on stderr, and no exception escapes
``run`` (which ``main`` would print as a traceback)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
from hypothesis import given, settings

from minfact.cli import run

small = st.integers(-1, 7)
ints_text = st.lists(st.integers(-1, 9), max_size=5).map(lambda xs: ",".join(map(str, xs)))
junk = st.text(alphabet="()[]{},: -0123456789nabsteptrue\"", max_size=12)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "steps", "a", "b"]), inner, max_size=3),
    max_leaves=8,
)
pair_steps = st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8)), max_size=4)


def steps_text(steps):
    return "".join(f"({i} {j})" for i, j in steps)


chain = st.one_of(
    pair_steps.map(steps_text),
    st.builds(lambda n, ps: json.dumps({"n": n, "steps": ps}), small, pair_steps),
    json_value.map(json.dumps),
    junk,
)
pair = st.one_of(
    st.builds(
        lambda n, a, b: json.dumps({"n": n, "a": a, "b": b}),
        small,
        st.lists(st.integers(-1, 8), max_size=4),
        st.lists(st.integers(-1, 8), max_size=5),
    ),
    json_value.map(json.dumps),
    junk,
)

OPTIONS = {
    "-n": small.map(str),
    "-k": small.map(str),
    "--format": st.sampled_from(["text", "json"]),
    "--cap": st.integers(-1, 10**4).map(str),
    "--chain": chain,
    "--a": ints_text | junk,
    "--b": ints_text | junk,
    "--pair": pair,
    "--trace": st.none(),
    "-l": small.map(str),
    "--perm": ints_text | pair_steps.map(steps_text) | junk,
}
# verify -n 5 alone takes a fifth of a second
VERIFY_N = st.integers(-1, 4).map(str)
# per subcommand: the groups of flags of which one each is given, then the
# optional flags
GRAMMAR = {
    "count": ([["-n"], ["-k"]], []),
    "enumerate": ([["-n"], ["-k"]], ["--format", "--cap"]),
    "verify": ([["-n"]], ["--format", "--cap"]),
    "validate": ([["-n"], ["--chain"]], ["--format"]),
    "map": ([["--pair", "--b"]], ["-n", "--format", "--a"]),
    "section": ([["-n"], ["--chain"]], ["--format"]),
    "fiber": ([["-n"], ["--chain"]], ["--format"]),
    "park": ([["-n"], ["--b"]], ["--format", "--a", "--trace"]),
    "act": ([["-n"], ["--chain"], ["-l", "--perm"]], ["--format"]),
    "involute": ([["-n"], ["--chain"]], ["--format"]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    groups, optional = GRAMMAR[command]
    flags = [draw(st.sampled_from(group)) for group in groups]
    flags += draw(st.lists(st.sampled_from(optional), unique=True, max_size=3)) if optional else []
    if draw(st.integers(0, 9)) == 0:  # now and then a flag the command lacks, or one missing
        extra = draw(st.sampled_from(sorted(OPTIONS)))
        flags = flags[1:] if draw(st.booleans()) else flags + [extra]
    argv = [command]
    for flag in flags:
        value = draw(VERIFY_N if (command, flag) == ("verify", "-n") else OPTIONS[flag])
        if value is None:
            argv.append(flag)
        elif flag.startswith("--"):  # one token, so argparse takes a value like "-1,2" as given
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=200)
@given(argvs())
def test_every_argv_ends_in_an_exit_status_and_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
