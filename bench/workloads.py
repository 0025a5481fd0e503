"""The four workloads: how their inputs are made from the seed, and how
their outputs are checked.

Each workload is a closed loop with one caller.  ``make_job`` turns a
``random.Random`` into the plain data a child process receives; ``check``
takes that job and the ``outputs`` of one pass and returns one verdict per
operation (True for correct).  Checks run in the parent, outside any timed
region, against the library imported from ``src``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

ENUM_N, ENUM_K = 9, 5
ENUM_LINES = 551_124  # count_formula(9, 5); the check compares the two
ENUM_SAMPLE = 200
VERIFY_N = 6
DENSE_PAIRS, DENSE_N = 16, (300, 400)
SPARSE_PAIRS, SPARSE_N, SPARSE_K = 160, (5000, 10000), 8

# Output bytes are part of the library's contract, so they are pinned.
ENUM_SHA256 = "0f09e4cc0a3a3b4c8de22e964d886c5209d1bf708cda2dc7b8fe9981ea1337af"
VERIFY_SHA256 = "0115d649fb67dabb9201d45875a5b2f21d5017369bdb719d3f479107a9ebc758"


@dataclass(frozen=True)
class Workload:
    name: str
    make_job: Callable[[random.Random], dict]
    check: Callable[[dict, dict, object], list[bool]]
    items_per_pass: Callable[[dict, object], int]
    sizes: dict = field(default_factory=dict)


def _spread_sizes(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    # Every seed gets the same mix of sizes, so the seed moves only contents
    # and order.  Shuffled, the largest inputs are spread over the pass, and
    # a burst of host noise cannot slow all of them, and the tail, at once.
    sizes = [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


# -- enumerate ---------------------------------------------------------------

def _enumerate_job(rng: random.Random) -> dict:
    return {
        "runner": "cli",
        "argv": ["enumerate", "-n", str(ENUM_N), "-k", str(ENUM_K)],
        "sample": sorted(rng.sample(range(ENUM_LINES), ENUM_SAMPLE)),
    }


def _enumerate_check(job: dict, out: dict, mf) -> list[bool]:
    ok = (
        out["exit"] == 0
        and out["lines"] == mf.count_formula(ENUM_N, ENUM_K)
        and out["sha256"] == ENUM_SHA256
        and len(out["sample"]) == len(job["sample"])
    )
    previous = None
    for idx in job["sample"]:
        if not ok:
            break
        try:
            chain = mf.Chain.parse(out["sample"][str(idx)], ENUM_N)
        except ValueError:
            return [False]
        steps = [(t.i, t.j) for t in chain.steps]
        ok = len(steps) == ENUM_K and mf.validate(chain).is_member
        ok = ok and (previous is None or previous < steps)
        previous = steps
    return [ok]


# -- verify ------------------------------------------------------------------

def _verify_job(rng: random.Random) -> dict:
    return {"runner": "cli", "argv": ["verify", "-n", str(VERIFY_N)], "keep_output": True}


def _verify_check(job: dict, out: dict, mf) -> list[bool]:
    lines = out["text"].splitlines()
    return [
        out["exit"] == 0
        and bool(lines)
        and lines[-1] == "PASS"
        and out["sha256"] == VERIFY_SHA256
    ]


# -- map_dense / map_sparse --------------------------------------------------

def _dense_job(rng: random.Random) -> dict:
    pairs = []
    for n in _spread_sizes(rng, *DENSE_N, DENSE_PAIRS):
        a = [rng.randint(1, n) for _ in range(n - 1)]
        pairs.append([n, a, list(range(1, n + 1))])
    return {"runner": "map", "pairs": pairs}


def _sparse_job(rng: random.Random) -> dict:
    pairs = []
    for n in _spread_sizes(rng, *SPARSE_N, SPARSE_PAIRS):
        a = [rng.randint(1, n) for _ in range(SPARSE_K)]
        b = sorted(rng.sample(range(1, n + 1), SPARSE_K + 1))
        pairs.append([n, a, b])
    return {"runner": "map", "pairs": pairs}


def _shift(values, t: int, n: int) -> list[int]:
    return [(x - 1 + t) % n + 1 for x in values]


def round_trip_ok(n: int, a: list[int], b: list[int], steps, back: dict, mf) -> bool:
    """The four checks on one round trip (A, B) -> chain -> section:
    the chain is a member with k steps, its i-sequence is A rotated to
    residue 1 (found with the ``park_trace`` oracle), the section is a
    rotation of (A, B), and the section's residue is 1."""
    def residue(aa, bb) -> int:
        return mf.park_trace(mf.ParkingInput(n, tuple(aa), frozenset(bb)))[0].residue

    try:
        chain = mf.Chain.from_pairs(n, [tuple(s) for s in steps])
        if len(chain.steps) != len(a) or not mf.validate(chain).is_member:
            return False
        t = (1 - residue(a, b)) % n
        if [s.i for s in chain.steps] != _shift(a, t, n):
            return False
        back_a, back_b = back["a"], back["b"]
        shift = (back_a[0] - a[0]) % n
        if back_a != _shift(a, shift, n) or sorted(back_b) != sorted(_shift(b, shift, n)):
            return False
        return residue(back_a, back_b) == 1
    except (ValueError, KeyError, IndexError, TypeError):  # malformed output
        return False


def _map_check(job: dict, out: dict, mf) -> list[bool]:
    if len(out) != len(job["pairs"]):
        return [False] * len(job["pairs"])
    return [
        round_trip_ok(n, a, b, steps, back, mf)
        for (n, a, b), (steps, back) in zip(job["pairs"], out)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            _enumerate_job,
            _enumerate_check,
            lambda job, mf: mf.count_formula(ENUM_N, ENUM_K),
            {"n": ENUM_N, "k": ENUM_K, "sampled_lines": ENUM_SAMPLE},
        ),
        Workload(
            "verify",
            _verify_job,
            _verify_check,
            lambda job, mf: sum(mf.count_formula(VERIFY_N, k) for k in range(VERIFY_N)),
            {"n": VERIFY_N},
        ),
        Workload(
            "map_dense",
            _dense_job,
            _map_check,
            lambda job, mf: len(job["pairs"]),
            {"pairs": DENSE_PAIRS, "n": list(DENSE_N), "k": "n-1"},
        ),
        Workload(
            "map_sparse",
            _sparse_job,
            _map_check,
            lambda job, mf: len(job["pairs"]),
            {"pairs": SPARSE_PAIRS, "n": list(SPARSE_N), "k": SPARSE_K},
        ),
    )
}
