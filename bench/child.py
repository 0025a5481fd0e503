"""One pass of one workload, in a fresh process.

Protocol on stdin/stdout, one JSON line each way: the child imports
``minfact`` and prints ``ready``; the parent then sends the job, and the
child runs it once and prints its measurements and raw outputs.  A job
without a workload only measures start-up.  Start with ``src`` on
``PYTHONPATH``; the parent does that.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
from time import perf_counter

import minfact
import minfact.cli


class Sink(io.RawIOBase):
    """Stands in for stdout: hashes and counts the output bytes, notes when
    the first byte arrived and keeps the requested lines (or everything)."""

    def __init__(self, wanted: list[int], keep_all: bool) -> None:
        self.digest = hashlib.sha256()
        self.lines = 0
        self.first: float | None = None
        self.wanted = sorted(wanted, reverse=True)
        self.captured: dict[int, str] = {}
        self.kept: list[bytes] | None = [] if keep_all else None
        self.partial = b""

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        data = bytes(b)
        if self.first is None:
            self.first = perf_counter()
        self.digest.update(data)
        if self.kept is not None:
            self.kept.append(data)
        n = data.count(b"\n")
        if self.wanted and self.wanted[-1] < self.lines + n:
            parts = (self.partial + data).split(b"\n")
            while self.wanted and self.wanted[-1] < self.lines + n:
                idx = self.wanted.pop()
                self.captured[idx] = parts[idx - self.lines].decode()
            self.partial = parts[-1]
        elif n:
            self.partial = data[data.rfind(b"\n") + 1:]
        else:
            self.partial += data
        self.lines += n
        return len(data)


def run_cli(job: dict) -> dict:
    """``minfact.cli.run`` on the job's argv, stdout sent to a Sink."""
    sink = Sink(job.get("sample", []), job.get("keep_output", False))
    stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    saved = sys.stdout
    sys.stdout = stream
    start = perf_counter()
    try:
        code = minfact.cli.run(job["argv"])
        stream.flush()
    finally:
        end = perf_counter()
        sys.stdout = saved
    return {
        "wall_s": end - start,
        "first_outputs_s": [(sink.first if sink.first is not None else end) - start],
        "latencies_s": [end - start],
        "lines": sink.lines,
        "outputs": {
            "exit": code,
            "lines": sink.lines,
            "sha256": sink.digest.hexdigest(),
            "sample": {str(k): v for k, v in sink.captured.items()},
            "text": b"".join(sink.kept).decode() if sink.kept is not None else None,
        },
    }


def run_map(job: dict) -> dict:
    """Closed loop of round trips: PairAB from plain data, ``gamma``, then
    ``section`` of the chain; each starts when the previous one returns.
    A round trip's first output is the chain ``gamma`` returns."""
    PairAB, gamma, section = minfact.PairAB, minfact.gamma, minfact.section
    latencies = []
    firsts = []
    results = []
    start = perf_counter()
    for n, a, b in job["pairs"]:
        t0 = perf_counter()
        chain = gamma(PairAB(n, a, b))
        t1 = perf_counter()
        back = section(chain)
        t2 = perf_counter()
        firsts.append(t1 - t0)
        latencies.append(t2 - t0)
        results.append((chain, back))
    end = perf_counter()
    return {
        "wall_s": end - start,
        "first_outputs_s": firsts,
        "latencies_s": latencies,
        "lines": 0,
        "results": results,
    }


RUNNERS = {"cli": run_cli, "map": run_map}


def main() -> None:
    out = sys.stdout
    print("ready", file=out, flush=True)
    job = json.loads(sys.stdin.readline())
    if job.get("runner") is None:
        return
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = RUNNERS[job["runner"]](job)
    # read before the harness's own conversions below can raise the high-water mark
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if job.get("dump"):
            tracer.dump(job["dump"])
    if "results" in result:
        # converted to plain data only now, outside the timed pass and the trace
        result["outputs"] = [
            [chain.to_json()["steps"], back.to_json()] for chain, back in result.pop("results")
        ]
    out.write(json.dumps(result) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
