"""Benchmark harness for minfact.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
single-threaded child process (``bench/child.py``), one child at a time,
until the next pass would end after ``--seconds``.  With ``--trace 0`` the
last line of stdout is a JSON object with every end-to-end metric; with
``--trace 1`` passes alternate untraced and traced, and the metrics are the
per-layer ones.  The line before it is the full record: environment, sizes,
sample counts and per-pass values.  The same record, and the spans of the
first traced pass, are written under ``.bench_out/``.  Exits 2 without a
result when ``src/minfact`` is missing, 1 when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from measure import tail
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> tuple[float, dict | None]:
    """Start a child, time it until it is ready, hand it the job and
    return (set-up seconds, its result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(CHILD)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        try:
            out, _ = proc.communicate(json.dumps(job) + "\n", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"child did not finish within {CHILD_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def git_sha() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(
    passes: list[dict], setups: list[float], items: int, attempted: int, failed: int
) -> tuple[dict, dict]:
    walls = [p["wall_s"] for p in passes]
    latencies_ms = [x * 1000 for p in passes for x in p["latencies_s"]]
    # the tail of each pass, then the median over passes: pooled, the tenth
    # slowest call of the run is set by whichever pass met a burst of host noise
    tails = [tail([x * 1000 for x in p["latencies_s"]]) for p in passes]
    _, tail_pct, beyond = tails[0]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "first_output_s": (statistics.median(x for p in passes for x in p["first_outputs_s"]), "s"),
        "items_per_s": (items * len(passes) / sum(walls), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MiB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "latency_samples": len(latencies_ms),
        "latency_samples_per_pass": len(passes[0]["latencies_s"]),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "setup_samples": len(setups),
        "passes": len(passes),
        "items_per_pass": items,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, details


def layer_values(summary: dict, lines: int) -> dict:
    """The per-layer metrics of one traced pass."""
    layers, counters = summary["layers"], summary["counters"]

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    gamma_calls = get("surjection.gamma", "calls")
    return {
        "chains.enumerate_sigma.self_s": (get("chains.enumerate_sigma", "self_s"), "s"),
        "chains.chains_emitted": (counters["chains.chains_emitted"], "count"),
        "runtime.gc_s": (get("runtime.gc", "total_s"), "s"),
        "runtime.gc_collections": (get("runtime.gc", "calls"), "count"),
        "cli.run.self_s": (get("cli.run", "self_s"), "s"),
        "cli.lines": (lines, "count"),
        "chains.validate.calls": (get("chains.validate", "calls"), "count"),
        "chains.validate.self_s": (get("chains.validate", "self_s"), "s"),
        "perms.precedes.calls": (get("perms.precedes", "calls"), "count"),
        "perms.precedes.self_s": (get("perms.precedes", "self_s"), "s"),
        "parking.park.calls": (get("parking.park", "calls"), "count"),
        "parking.park.self_s": (get("parking.park", "self_s"), "s"),
        "parking.residue.calls": (get("parking.residue", "calls"), "count"),
        "parking.normalize.self_s": (get("parking.normalize", "self_s"), "s"),
        "parking.probes": (counters["parking.probes"], "count.computed"),
        "parking.parks_per_gamma": (
            get("parking.park", "calls") / gamma_calls if gamma_calls else 0.0, "ratio"),
        "action.apply_permutation.calls": (get("action.apply_permutation", "calls"), "count"),
        "action.apply_permutation.self_s": (get("action.apply_permutation", "self_s"), "s"),
        "action.sort_chain.self_s": (get("action.sort_chain", "self_s"), "s"),
        "action.braid_moves": (counters["action.braid_moves"], "count.computed"),
        "surjection.gamma.calls": (gamma_calls, "count"),
        "surjection.gamma.self_s": (get("surjection.gamma", "self_s"), "s"),
        "surjection.section.self_s": (get("surjection.section", "self_s"), "s"),
        "surjection.verify.self_s": (get("surjection.verify", "self_s"), "s"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    per_pass = [layer_values(p["trace"], p["lines"]) for p in traced]
    metrics = {
        name: {"value": statistics.median(v[name][0] for v in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
    ratio = (statistics.median(p["wall_s"] for p in traced)
             / statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minfact" / "__init__.py").is_file():
        print(f"error: no minfact package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    job = workload.make_job(random.Random(args.seed))
    load_before = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    try:
        spawn({})  # warm-up: byte-code caches are written once, as for a user
        setups: list[float] = []
        untraced: list[dict] = []
        traced: list[dict] = []
        began = perf_counter()
        while True:
            setup_s, result = spawn(job)
            setups.append(setup_s)
            untraced.append(result)
            if args.trace:
                dump = str(OUT / f"{stem}.spans.jsonl") if not traced else None
                setup_s, result = spawn({**job, "trace": True, "dump": dump})
                setups.append(setup_s)
                traced.append(result)
            elapsed = perf_counter() - began
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn({})[0])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    sys.path.insert(0, str(SRC))
    import minfact

    attempted = failed = 0
    verdicts_of: dict[str, list[bool]] = {}  # passes with equal outputs share a verdict
    for result in untraced + traced:
        key = json.dumps(result["outputs"], sort_keys=True)
        if key not in verdicts_of:
            verdicts_of[key] = workload.check(job, result["outputs"], minfact)
        attempted += len(verdicts_of[key])
        failed += verdicts_of[key].count(False)
    items = workload.items_per_pass(job, minfact)
    if args.trace:
        metrics, details = per_layer(traced, untraced), {"trace_passes": len(traced)}
        details["spans"] = [p["trace"]["spans"] for p in traced]
        details["hook_failures"] = sum(p["trace"]["hook_failures"] for p in traced)
    else:
        metrics, details = end_to_end(untraced, setups, items, attempted, failed)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "env": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
        "details": details,
        "per_pass": {
            "wall_s": [p["wall_s"] for p in untraced],
            "traced_wall_s": [p["wall_s"] for p in traced],
            "setup_s": setups,
        },
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
