"""Circular parking of entry points into open spaces.

``n`` spaces sit on a circle, labelled 1..n in cyclic order, and k + 1 of
them are open.  Cars are processed from the LAST entry point to the first:
a car entering after space ``e`` takes the first open, still-free space
strictly after ``e`` in cyclic order (``e`` itself is reached again only
after a full loop).  That space is e's successor in the sorted list of free
open spaces, wrapping to its smallest element, so each car costs one
bisection and no work grows with n.  Since open spaces always outnumber the
cars still to park, every car parks, and exactly one open space is left
over: the *residue*.

The process commutes with rotating every label by a constant, permuting the
entries permutes the taken spaces as a multiset and fixes the residue, and
when the residue is 1 every car parks strictly above its entry point.  By
the cycle lemma of Dvoretzky and Motzkin, as in Pollak's circular argument,
exactly one rotation of a pair has residue 1; ``normalize`` applies it.
"""

from __future__ import annotations

from bisect import bisect_right
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

    def to_json(self) -> dict:
        return {"entry": self.entry, "probed": list(self.probed), "parked": self.parked}


def _park(entries: tuple[int, ...], open_spaces: Iterable[int]) -> tuple[tuple[int, ...], int]:
    # the taken spaces, aligned with the entries, and the leftover open space
    free = sorted(open_spaces)
    spaces = []
    for e in reversed(entries):
        i = bisect_right(free, e)
        spaces.append(free.pop(i) if i < len(free) else free.pop(0))
    spaces.reverse()
    return tuple(spaces), free[0]


def park(inp: ParkingInput) -> ParkingOutcome:
    """The parking process: spaces (p1, ..., pk) computed from pk backwards,
    plus the residue.

    >>> park(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7)))
    ParkingOutcome(spaces=(6, 3, 5, 1), residue=7)
    """
    return ParkingOutcome(*_park(inp.entries, inp.open_spaces))


def park_trace(inp: ParkingInput) -> tuple[ParkingOutcome, tuple[CarTrace, ...]]:
    """Run the parking process, also returning per-car traces in entrance
    order (last entry first).

    A car probes the cyclic run e + 1, ..., p from its entry e to its space
    p, so the traces hold O(n) spaces when a car wraps round the circle.
    """
    outcome = park(inp)
    n = inp.n
    visits = tuple(
        CarTrace(e, tuple((e + d) % n + 1 for d in range((p - e - 1) % n + 1)), p)
        for e, p in zip(reversed(inp.entries), reversed(outcome.spaces))
    )
    return outcome, visits


def residue(inp: ParkingInput) -> int:
    """The single open space left over by the parking process.

    >>> residue(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7)))
    7
    """
    return _park(inp.entries, inp.open_spaces)[1]


def shift_value(x: int, t: int, n: int) -> int:
    """x + t reduced into 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (x - 1 + t) % n + 1


def shift_pair(a: Iterable[int], b: Iterable[int], t: int, n: int) -> _Pair:
    """Add ``t`` modulo n to every entry of ``a`` and every element of ``b``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = tuple(a)
    b = frozenset(b)
    for x in (*a, *b):
        if not 1 <= x <= n:
            raise ValueError(f"value {x} outside 1..{n}")
    return _shift(a, b, t, n)


def _shift(a: tuple[int, ...], b: frozenset[int], t: int, n: int) -> _Pair:
    # shift_value inlined: _normalize shifts every rotation that verify checks
    return tuple([(x - 1 + t) % n + 1 for x in a]), frozenset([(x - 1 + t) % n + 1 for x in b])


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
    rho = _park(a, b)[1]
    if rho == 1:
        # the second park would repark this very pair
        return a, b, 0
    t = (1 - rho) % n
    a2, b2 = _shift(a, b, t, n)
    rho = _park(a2, b2)[1]
    if rho != 1:
        raise RuntimeError(f"normalize: rotating by {t} left residue {rho}, not 1")
    return a2, b2, t
