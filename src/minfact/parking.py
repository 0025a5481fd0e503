"""Circular parking of entry points into open spaces.

``n`` spaces sit on a circle, labelled 1..n in cyclic order, and k + 1 of
them are open.  Cars are processed from the LAST entry point to the first:
a car entering after space ``e`` takes the first open, still-free space
strictly after ``e`` in cyclic order (``e`` itself is reached again only
after a full loop).  Since open spaces always outnumber the cars still to
park, every car parks, and exactly one open space is left over — the
*residue*.

The process commutes with rotating every label by a constant, permuting the
entries permutes the taken spaces as a multiset and fixes the residue, and
when the residue is 1 every car parks strictly above its entry point.
``normalize`` applies the unique rotation that makes the residue 1.

The residue needs no simulation.  Weight each space p by [p open] minus the
number of cars that probe p first (a car entering after e probes e mod n + 1
first), and let C(x) be the running sum of the weights over 1..x; C(n) = 1.
No car reaches the leftover space r, so no arc ending just before r has more
arrivals than open spaces, and as the k cars fill the other k open spaces,
every arc starting just after r has at least as many.  That is, C(x) <= C(r)
for x > r and C(x) < C(r) for x < r: the residue is the first point that
maximises C.  This is the cycle lemma of Dvoretzky and Motzkin, as in
Pollak's circular argument.  ``park`` and ``park_trace`` keep the simulation
and are the oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "ParkingInput",
    "ParkingOutcome",
    "CarTrace",
    "park",
    "park_trace",
    "residue",
    "shift_value",
    "shift_pair",
    "normalize",
]

_Pair = tuple[tuple[int, ...], frozenset[int]]


@dataclass(frozen=True)
class ParkingInput:
    """Entry points (length k, repeats allowed) and k + 1 open spaces."""

    n: int
    entries: tuple[int, ...]
    open_spaces: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "open_spaces", frozenset(self.open_spaces))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for x in self.entries:
            if not 1 <= x <= self.n:
                raise ValueError(f"entry point {x} outside 1..{self.n}")
        for x in self.open_spaces:
            if not 1 <= x <= self.n:
                raise ValueError(f"open space {x} outside 1..{self.n}")
        if len(self.open_spaces) != len(self.entries) + 1:
            raise ValueError(
                f"need exactly {len(self.entries) + 1} distinct open spaces, "
                f"got {len(self.open_spaces)}"
            )


@dataclass(frozen=True)
class ParkingOutcome:
    """Taken spaces, aligned with the entries, and the leftover open space."""

    spaces: tuple[int, ...]
    residue: int

    def to_json(self) -> dict:
        return {"spaces": list(self.spaces), "residue": self.residue}


@dataclass(frozen=True)
class CarTrace:
    """One car's walk: where it entered, every space it probed, where it parked."""

    entry: int
    probed: tuple[int, ...]
    parked: int


def park_trace(inp: ParkingInput) -> tuple[ParkingOutcome, tuple[CarTrace, ...]]:
    """Run the parking process, also returning per-car traces in entrance
    order (last entry first)."""
    free = set(inp.open_spaces)
    spaces = [0] * len(inp.entries)
    visits = []
    for l in range(len(inp.entries) - 1, -1, -1):
        entry = inp.entries[l]
        probed = []
        x = entry
        for _ in range(inp.n):
            x = x % inp.n + 1
            probed.append(x)
            if x in free:
                break
        free.remove(x)
        spaces[l] = x
        visits.append(CarTrace(entry, tuple(probed), x))
    (leftover,) = free
    return ParkingOutcome(tuple(spaces), leftover), tuple(visits)


def park(inp: ParkingInput) -> ParkingOutcome:
    """The parking process: spaces (p1, ..., pk) computed from pk backwards,
    plus the residue.

    >>> park(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7)))
    ParkingOutcome(spaces=(6, 3, 5, 1), residue=7)
    """
    return park_trace(inp)[0]


def residue(inp: ParkingInput) -> int:
    """The single open space left over by the parking process.

    The first maximiser of the running weight sum (module docstring).  Only
    open spaces and first-probe points carry weight, so this costs
    O(k log k) and never walks the n spaces.

    >>> residue(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7)))
    7
    """
    return _residue(inp.n, inp.entries, inp.open_spaces)


def _residue(n: int, entries: tuple[int, ...], open_spaces: frozenset[int]) -> int:
    weight = dict.fromkeys(open_spaces, 1)
    for e in entries:
        p = e % n + 1
        weight[p] = weight.get(p, 0) - 1
    best, rho, running = 0, 0, 0
    for p in sorted(weight):
        running += weight[p]
        if running > best:
            best, rho = running, p
    return rho


def shift_value(x: int, t: int, n: int) -> int:
    """x + t reduced into 1..n."""
    return (x - 1 + t) % n + 1


def shift_pair(a: Iterable[int], b: Iterable[int], t: int, n: int) -> _Pair:
    """Add ``t`` modulo n to every entry of ``a`` and every element of ``b``."""
    a = tuple(a)
    b = frozenset(b)
    for x in (*a, *b):
        if not 1 <= x <= n:
            raise ValueError(f"value {x} outside 1..{n}")
    return _shift(a, b, t, n)


def _shift(a: tuple[int, ...], b: frozenset[int], t: int, n: int) -> _Pair:
    # shift_value inlined: verify rotates every pair of every fibre
    return tuple((x - 1 + t) % n + 1 for x in a), frozenset((x - 1 + t) % n + 1 for x in b)


def normalize(
    a: Iterable[int], b: Iterable[int], n: int
) -> tuple[tuple[int, ...], frozenset[int], int]:
    """Rotate the pair so its residue becomes 1.

    Returns the rotated pair and the applied shift, reduced into 0..n-1.
    Rotating a residue-1 pair is the identity with shift 0.  Raises
    ``RuntimeError`` if the rotated pair's residue is not 1, which would be
    a fault in this module, not in the input.
    """
    inp = ParkingInput(n, a, b)
    return _normalize(n, inp.entries, inp.open_spaces)


def _normalize(
    n: int, a: tuple[int, ...], b: frozenset[int]
) -> tuple[tuple[int, ...], frozenset[int], int]:
    t = (1 - _residue(n, a, b)) % n
    a2, b2 = _shift(a, b, t, n)
    rho = _residue(n, a2, b2)
    if rho != 1:
        raise RuntimeError(f"normalize: rotating by {t} left residue {rho}, not 1")
    return a2, b2, t
