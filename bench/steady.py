"""Steadiness check: two sets of runs of the same code must agree.

    python3 bench/steady.py [--workloads a,b]

For every workload in ``BENCHMARK.json`` (or those named), each of two sets
runs ``bench/run.py`` once per seed for ``run_seconds``, with seeds 1..10 in
the first set and 11..20 in the second, one run at a time.  For every
end-to-end metric it prints each set's quartiles, the spread
(Q3 - Q1) / median, and the drift |median2 - median1| / median1.  A metric
passes when both spreads and the drift are within its bound.  It also flags
spreads above a third of the bound, the margin the benchmark aims for.
Results go to ``.bench_out/steady.json``; the exit status is 1 when any
metric fails or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import drift, quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for seeds in (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1)):
            runs = [one_run(workload, seed, spec["run_seconds"]) for seed in seeds]
            ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
            sets.append(runs)
        report[workload] = {}
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            stats = [quartiles(v) for v in values]
            spreads = [spread(v) for v in values]
            moved = drift(stats[1][1], stats[0][1])
            passed = moved <= bound and max(spreads) <= bound
            margin = max(spreads) < bound / 3
            ok &= passed
            report[workload][name] = {
                "values": values, "quartiles": stats, "spreads": spreads,
                "drift": moved, "bound": bound, "passed": passed, "within_third": margin,
            }
            cells = "  ".join(f"[{q1:.4g} {q2:.4g} {q3:.4g}] spread {sp:.3f}"
                              for (q1, q2, q3), sp in zip(stats, spreads))
            flag = "ok" if passed else "FAIL"
            flag += "" if margin else " (spread over bound/3)"
            print(f"  {name:16s} {cells}  drift {moved:.3f} / bound {bound}  {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
