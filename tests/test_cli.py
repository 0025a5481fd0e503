import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import minfact
from minfact import surjection
from minfact.cli import _print_ab, build_parser, run


def lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def child_env():
    # a subprocess imports minfact from the tree these tests import it from
    return {**os.environ, "PYTHONPATH": str(Path(minfact.__file__).resolve().parents[1])}


def peak_mib(pid):
    with open(f"/proc/{pid}/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


class TestCount:
    def test_worked_value(self, capsys):
        assert run(["count", "-n", "8", "-k", "4"]) == 0
        assert lines(capsys) == ["28672"]

    def test_prints_counts_past_the_int_str_digit_limit(self, capsys):
        # CPython refuses int <-> str past 4300 digits by default
        assert run(["count", "-n", "10000", "-k", "1200"]) == 0
        out = capsys.readouterr().out
        digits = out.rstrip("\n")
        assert out == digits + "\n" and digits.isdigit() and digits[0] != "0"
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start:start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == minfact.count_formula(10000, 1200)

    def test_prints_counts_split_by_bit_length(self, capsys):
        # 156,572 bits, several times past the bit length above which count
        # splits a number before converting it
        assert run(["count", "-n", "50000", "-k", "8000"]) == 0
        assert capsys.readouterr().out == f"{Decimal(minfact.count_formula(50000, 8000))}\n"

    def test_k_at_least_n_is_zero_at_once(self, capsys):
        start = time.perf_counter()
        assert run(["count", "-n", "10", "-k", str(10**12)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "0\n"


class TestMapSectionFiber:
    def test_map_text(self, capsys):
        rc = run(["map", "-n", "8", "--a", "1,3,7,1", "--b", "1,3,5,6,7"])
        assert rc == 0
        assert lines(capsys) == ["(3 8)(5 7)(1 8)(3 7)"]

    def test_json_round_trip(self, capsys):
        run(["map", "-n", "8", "--a", "1,3,7,1", "--b", "1,3,5,6,7", "--format", "json"])
        chain_json = lines(capsys)[0]
        assert json.loads(chain_json)["steps"] == [[3, 8], [5, 7], [1, 8], [3, 7]]

        run(["section", "--chain", chain_json, "--format", "json"])
        pair_json = lines(capsys)[0]
        assert json.loads(pair_json) == {"n": 8, "a": [3, 5, 1, 3], "b": [1, 3, 5, 7, 8]}

        run(["map", "--pair", pair_json])
        assert lines(capsys) == ["(3 8)(5 7)(1 8)(3 7)"]

    def test_section_text(self, capsys):
        run(["section", "-n", "8", "--chain", "(3 8)(5 7)(1 8)(3 7)"])
        assert lines(capsys) == ["a=3,5,1,3 b=1,3,5,7,8"]

    def test_fiber(self, capsys):
        rc = run(["fiber", "-n", "2", "--chain", "(1 2)"])
        assert rc == 0
        assert sorted(lines(capsys)) == ["a=1 b=1,2", "a=2 b=1,2"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_fiber_lines_are_the_orbit(self, fmt, capsys):
        # the CLI makes the rotations one by one; fiber()'s list is the oracle
        parser = build_parser()
        for n in range(1, 7):
            for k in range(n):
                for c in minfact.iter_sigma(n, k):
                    for pair in minfact.fiber(c):
                        _print_ab(pair.n, pair.a, pair.b, fmt)
                    expected = capsys.readouterr().out
                    args = parser.parse_args(
                        ["fiber", "--chain", json.dumps(c.to_json()), "--format", fmt]
                    )
                    assert args.handler(args) == 0
                    assert capsys.readouterr() == (expected, ""), c

    @pytest.mark.parametrize(
        "n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 4), (6, 2)]
    )
    def test_map_round_trips_for_every_member(self, n, k, capsys):
        run(["enumerate", "-n", str(n), "-k", str(k)])
        chains = lines(capsys)
        for text in chains:
            run(["section", "-n", str(n), "--chain", text, "--format", "json"])
            pair_json = lines(capsys)[0]
            run(["map", "--pair", pair_json])
            assert lines(capsys) == [text]


class TestEnumerate:
    def test_text(self, capsys):
        assert run(["enumerate", "-n", "3", "-k", "1"]) == 0
        assert lines(capsys) == ["(1 2)", "(1 3)", "(2 3)"]

    def test_json_lines(self, capsys):
        run(["enumerate", "-n", "3", "-k", "2", "--format", "json"])
        rows = [json.loads(line) for line in lines(capsys)]
        assert len(rows) == 3
        assert all(row["n"] == 3 and len(row["steps"]) == 2 for row in rows)

    def test_k_at_least_n_is_empty_under_small_cap(self, capsys):
        assert run(["enumerate", "-n", "11", "-k", "11", "--cap", "10"]) == 0
        assert capsys.readouterr().out == ""

    def test_cap_exceeded_is_domain_error(self, capsys):
        assert run(["enumerate", "-n", "8", "-k", "7", "--cap", "1000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_k_at_least_n_is_empty_at_once(self, capsys):
        start = time.perf_counter()
        assert run(["enumerate", "-n", "3", "-k", str(10**12)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "fmt,line",
        [("text", ""), ("json", json.dumps({"n": 10**30, "steps": []}))],
        ids=["text", "json"],
    )
    def test_k0_is_the_empty_chain_for_any_n(self, fmt, line, capsys):
        start = time.perf_counter()
        assert run(["enumerate", "-n", str(10**30), "-k", "0", "--format", fmt]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (line + "\n", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lines_match_the_chains(self, fmt, capsys):
        # the lines are folded straight from the DFS; Chain rendering is the oracle
        render = str if fmt == "text" else lambda c: json.dumps(c.to_json())
        for n in range(1, 8):
            for k in range(n + 1):
                assert run(["enumerate", "-n", str(n), "-k", str(k), "--format", fmt]) == 0
                expected = "".join(render(c) + "\n" for c in minfact.iter_sigma(n, k))
                assert capsys.readouterr() == (expected, ""), (n, k)


class TestVerify:
    def test_n4_table(self, capsys):
        assert run(["verify", "-n", "4"]) == 0
        out = lines(capsys)
        assert out[-1] == "PASS"
        counts = [row.split()[2] for row in out[1:-1]]
        assert counts == ["1", "6", "16", "16"]

    def test_json(self, capsys):
        run(["verify", "-n", "3", "--format", "json"])
        data = json.loads(lines(capsys)[0])
        assert data["passed"] is True
        assert [row["enumerated"] for row in data["rows"]] == [1, 3, 3]

    def test_rows_are_flushed_as_each_k_is_checked(self, monkeypatch):
        # what stdout has flushed when the first chain of the last row reaches
        # gamma's tail: the header and every earlier row
        class Recorder(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        n = 5
        out = Recorder()
        seen = []
        real_tail = surjection._gamma_normalized

        def tail(a, b):
            if len(a) == n - 1 and not seen:
                seen.append(out.flushed)
            return real_tail(a, b)

        monkeypatch.setattr(surjection, "_gamma_normalized", tail)
        monkeypatch.setattr(sys, "stdout", out)
        assert run(["verify", "-n", str(n)]) == 0
        written = out.getvalue().splitlines(keepends=True)
        assert len(written) == n + 2 and written[-1] == "PASS\n"
        assert seen == ["".join(written[:n])]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_n_below_one(self, n, capsys):
        assert run(["verify", "-n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"


class TestValidate:
    def test_member(self, capsys):
        assert run(["validate", "-n", "8", "--chain", "(3 8)(5 7)(1 8)(3 7)"]) == 0
        out = lines(capsys)
        assert out[0] == "member: yes"
        assert out[3] == "nondecreasing: no"

    def test_non_member(self, capsys):
        run(["validate", "-n", "4", "--chain", "(1 3)(2 4)", "--format", "json"])
        data = json.loads(lines(capsys)[0])
        assert data["is_member"] is False
        assert data["is_geodesic"] is True
        assert data["is_below"] is False


class TestPark:
    def test_outcome(self, capsys):
        assert run(["park", "-n", "8", "--a", "1,1,3,7", "--b", "1,3,5,6,7"]) == 0
        assert lines(capsys) == ["spaces: 6,3,5,1", "residue: 7"]

    def test_trace_narration(self, capsys):
        run(["park", "-n", "8", "--a", "1,1,3,7", "--b", "1,3,5,6,7", "--trace"])
        out = lines(capsys)
        assert out[0] == "car 1: enters after 7, probes 8 1, parks at 1"
        assert out[1] == "car 2: enters after 3, probes 4 5, parks at 5"
        assert out[2] == "car 3: enters after 1, probes 2 3, parks at 3"
        assert out[3] == "car 4: enters after 1, probes 2 3 4 5 6, parks at 6"
        assert out[-1] == "residue: 7"

    def test_json_trace(self, capsys):
        run(["park", "-n", "3", "--a", "1", "--b", "2,3", "--format", "json", "--trace"])
        data = json.loads(lines(capsys)[0])
        assert data == {
            "spaces": [2],
            "residue": 3,
            "trace": [{"entry": 1, "probed": [2], "parked": 2}],
        }

    @pytest.mark.parametrize(
        "fmt,out",
        [("text", b"spaces: 1\nresidue: 2\n"), ("json", b'{"spaces": [1], "residue": 2}\n')],
        ids=["text", "json"],
    )
    def test_huge_n_parks_without_walking_the_circle(self, fmt, out):
        # the car entering after 3 wraps past 10^8 spaces to space 1
        argv = ["park", "-n", "100000000", "--a", "3", "--b", "1,2", "--format", fmt]
        proc = subprocess.run(
            [sys.executable, "-m", "minfact", *argv], capture_output=True, env=child_env(), timeout=10
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, b"")


class TestAct:
    def test_single_generator(self, capsys):
        assert run(["act", "-n", "3", "--chain", "(1 2)(2 3)", "-l", "1"]) == 0
        assert lines(capsys) == ["(2 3)(1 3)"]

    def test_permutation_cycle_notation(self, capsys):
        run(["act", "-n", "8", "--chain", "(1 3)(3 8)(3 5)(5 7)", "--perm", "(1 3)(2 4)"])
        assert lines(capsys) == ["(3 8)(5 7)(1 8)(3 7)"]

    def test_permutation_one_line(self, capsys):
        run(["act", "-n", "8", "--chain", "(1 3)(3 8)(3 5)(5 7)", "--perm", "3,4,1,2"])
        assert lines(capsys) == ["(3 8)(5 7)(1 8)(3 7)"]

    @pytest.mark.parametrize("chain,k", [("()", 0), ("(1 2)", 1)])
    def test_generator_on_a_chain_without_adjacent_positions(self, chain, k, capsys):
        assert run(["act", "-n", "3", "--chain", chain, "-l", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a chain of length {k} has no adjacent positions, got index 1\n"


class TestInvolute:
    def test_worked(self, capsys):
        assert run(["involute", "-n", "8", "--chain", "(1 3)(3 8)(3 5)(5 7)"]) == 0
        assert lines(capsys) == ["(2 4)(4 6)(1 6)(6 8)"]


def _flag_help(command, flag, capsys):
    # the help text of one option in ``minfact COMMAND --help``, whitespace
    # folded; the usage line also names the option, so the last match is taken
    with pytest.raises(SystemExit):
        run([command, "--help"])
    out = capsys.readouterr().out.splitlines()
    start = max(i for i, line in enumerate(out) if line.strip().startswith(flag + " "))
    text = [out[start]]
    for line in out[start + 1:]:
        if not line.strip() or line.lstrip().startswith("-"):
            break
        text.append(line)
    return " ".join(" ".join(text).split()[2:])


@pytest.mark.parametrize(
    "flag,commands",
    [("--chain", ["validate", "section", "fiber", "act", "involute"]), ("--cap", ["enumerate", "verify"])],
)
def test_shared_flag_is_described_alike(flag, commands, capsys):
    helps = {command: _flag_help(command, flag, capsys) for command in commands}
    assert len(set(helps.values())) == 1 and "" not in helps.values(), helps


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        assert run(["map", "-n", "3", "--a", "1,2", "--b", "1,2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_member_chain_is_domain_error(self, capsys):
        assert run(["involute", "-n", "4", "--chain", "(1 3)(2 4)"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["section"], ["fiber"], ["act", "-l", "1"], ["involute"]])
    def test_non_member_error_names_the_chain(self, command, capsys):
        assert run([*command, "-n", "4", "--chain", "(1 3)(2 4)"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")
        assert "(1 3)(2 4)" in err
        assert "apply_permutation" not in err and "Chain(" not in err

    def test_missing_n_for_text_chain_is_usage_error(self, capsys):
        assert run(["validate", "--chain", "(1 2)"]) == 2
        assert "usage error:" in capsys.readouterr().err

    def test_n_contradicting_the_pair_json_is_usage_error(self, capsys):
        pair = '{"n": 3, "a": [1], "b": [1, 2]}'
        assert run(["map", "--pair", pair, "-n", "4"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "usage error: -n 4 contradicts the pair JSON (n=3)\n")
        assert run(["map", "--pair", pair, "-n", "3"]) == 0
        assert lines(capsys) == ["(1 2)"]

    def test_argparse_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["count", "-n", "4"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_failed_verify_exits_one(self):
        # guard: verify propagates the cap as a domain error
        assert run(["verify", "-n", "9", "--cap", "10"]) == 1

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["map", "--pair", "[1,2]"], "must be an object"),
            (["map", "--pair", '"pair"'], "must be an object"),
            (["map", "--pair", '{"n":8,"a":[1]}'], "'b'"),
            (["map", "--pair", '{"n":8,"a":[1],"b":3}'], "'b'"),
            (["map", "--pair", '{"n":3,"a":1,"b":[1,2]}'], "'a'"),
            (["map", "--pair", '{"n":"3","a":[1],"b":[1,2]}'], "'n'"),
            (["map", "--pair", '{"n":3,"a":[1.0],"b":[1,2]}'], "'a'"),
            (["map", "--pair", '{"n":3,"a":[true],"b":[1,2]}'], "'a'"),
            (["validate", "--chain", '{"n":"8","steps":[[3,8]]}'], "'n'"),
            (["validate", "--chain", '{"n":true,"steps":[]}'], "'n'"),
            (["validate", "--chain", '{"n":8.0,"steps":[]}'], "'n'"),
            (["validate", "--chain", '{"n":8}'], "'steps'"),
            (["validate", "--chain", '{"steps":[]}'], "'n'"),
            (["validate", "--chain", '{"n":8,"steps":5}'], "'steps'"),
            (["validate", "--chain", '{"n":8,"steps":[3,8]}'], "'steps'"),
            (["validate", "--chain", '{"n":8,"steps":[[3,8,5]]}'], "'steps'"),
            (["validate", "--chain", '{"n":8,"steps":[["3","8"]]}'], "'steps'"),
            (["section", "--chain", '{"n":8,"steps":[[3,null]]}'], "'steps'"),
            (["map", "--pair", "[" * 100_000], "nested too deeply"),
            (["validate", "--chain", '{"n": 3, "steps": ' + "[" * 100_000], "nested too deeply"),
            # an n past C's sizes reaches list(range(1, n + 1))
            (["validate", "-n", str(10**30), "--chain", "()"], "too large"),
            (["section", "-n", str(10**30), "--chain", "()"], "too large"),
            (["involute", "-n", str(10**30), "--chain", "()"], "too large"),
            (["map", "-n", str(10**30), "--b", "5"], "too large"),
            (["act", "-n", str(10**30), "--chain", "()", "--perm", "()"], "too large"),
        ],
    )
    def test_malformed_json_is_one_error_line(self, argv, names, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert names in err
        assert "Traceback" not in err


def test_closed_pipe_ends_quietly():
    # as in `minfact enumerate -n 8 -k 4 | head -n 1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "minfact", "enumerate", "-n", "8", "-k", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        assert proc.stdout.readline() == b"(1 2)(2 3)(3 4)(4 5)\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 1
    assert b"Traceback" not in err
    assert len(err.splitlines()) <= 1


def test_closed_pipe_ends_verify_quietly():
    # as in `minfact verify -n 8 | head -n 2`: each row is flushed when its k
    # is checked, so the closed pipe is met at the next row, long before the
    # last of the 262,144 chains of k = 7
    proc = subprocess.Popen(
        [sys.executable, "-m", "minfact", "verify", "-n", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        assert proc.stdout.readline().split()[:2] == [b"k", b"formula"]
        assert proc.stdout.readline().split() == [b"0", b"1", b"1", b"ok", b"ok", b"ok"]
        proc.stdout.close()
        code = proc.wait(timeout=10)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 1
    assert b"Traceback" not in err
    assert len(err.splitlines()) <= 1


@pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's RLIMIT_AS")
def test_out_of_memory_is_one_error_line():
    # as under `ulimit -v 400000`: neither the chain's one-line product of 10^8
    # entries nor the trace of a car probing 10^8 - 1 spaces can be allocated
    limit = 400 * 2**20
    code = (
        "import resource; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "from minfact.cli import main; main()"
    )
    for argv in (
        ["validate", "-n", "100000000", "--chain", "()"],
        ["park", "-n", "100000000", "--a", "2", "--b", "1,2", "--trace"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, env=child_env(), timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"error: out of memory\n"), argv


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/<pid>/status")
def test_large_n_streams_in_flat_memory():
    # `enumerate -n 3000 -k 1` has 4,498,500 lines; nothing of the walk that
    # grows with them may be kept, so the first line comes at once and peak RSS
    # stays that of an idle interpreter with the CLI imported
    def run_until(argv, lines):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env())
        try:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            for _ in range(lines):
                proc.stdout.readline()
            return first, elapsed, peak_mib(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdin.close()
            proc.stdout.close()

    idle = [sys.executable, "-c", "import sys, minfact.cli; print(flush=True); sys.stdin.read()"]
    _, _, baseline = run_until(idle, 0)
    enumerate_ = [sys.executable, "-m", "minfact", "enumerate", "-n", "3000", "-k", "1"]
    first, elapsed, peak = run_until(enumerate_, 500_000)
    assert first == b"(1 2)\n"
    assert elapsed < 1.0
    assert peak - baseline < 2.0, (peak, baseline)

    # at n = 200,000 a streamed batch is cut to at most the memo's budget of
    # leaves and the root's one block is not sorted: the walk adds about 19 MiB
    # to the idle interpreter, against 59 MiB with whole-row batches
    huge = [sys.executable, "-m", "minfact", "enumerate", "-n", "200000", "-k", "1",
            "--cap", str(10**13)]
    first, elapsed, peak = run_until(huge, 2_000_000)
    assert first == b"(1 2)\n"
    assert elapsed < 1.0
    assert peak - baseline < 30.0, (peak, baseline)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/<pid>/status")
def test_fiber_streams_in_flat_memory():
    # the million rotations of the section are written as they are made, so
    # the first line comes once the section is made and peak RSS does not grow
    # while the pairs follow; a list of them took over 500 MiB.  Making the
    # section checks membership in O(n) memory, a peak RSS of about 154 MiB at
    # this n
    argv = [sys.executable, "-m", "minfact", "fiber", "-n", "1000000", "--chain", "(1 2)(2 3)"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env())
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        at_first = peak_mib(proc.pid)
        for t in range(1, 100_001):
            line = proc.stdout.readline()
        at_last = peak_mib(proc.pid)
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
    assert first == b"a=1,2 b=1,2,3\n"
    assert line == b"a=100001,100002 b=100001,100002,100003\n"
    assert elapsed < 5.0
    assert at_last - at_first < 2.0, (at_first, at_last)
    assert at_first < 250.0, at_first
