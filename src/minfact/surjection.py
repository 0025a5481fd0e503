"""From (sequence, set) pairs to prefix chains, and back.

A pair (A, B), with A a length-k sequence over {1..n} and B a (k+1)-subset,
maps to a k-prefix chain in three moves: rotate the pair so the parking
residue becomes 1, park the sorted rotated entries into B to obtain the
larger step entries of a non-decreasing chain, then push that chain through
the position action so its i-sequence is the rotated A.  The map ``gamma``
is onto, constant on rotation orbits of pairs, and every fibre is one full
orbit of size n; counting pairs therefore counts chains:
n**k * C(n, k+1) pairs / n per fibre = n**(k-1) * C(n, k+1) chains.

``section`` produces the unique residue-1 pair of a fibre, ``fiber`` the
whole orbit, and ``verify`` cross-checks everything against exhaustive
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .action import _act, projection
from .chains import DEFAULT_CAP, Chain, _json_fields, _json_int, _json_ints, iter_sigma
from .chains import _require_member, _sorted_criterion
from .counting import count_formula
from .parking import ParkingInput, _normalize, _park, _shift
from .perms import Transposition

__all__ = [
    "PairAB",
    "gamma",
    "section",
    "fiber",
    "verify",
    "VerifyRow",
    "VerifyReport",
]


@dataclass(frozen=True)
class PairAB:
    """A sequence A over {1..n} of length k with a (k+1)-subset B of {1..n}."""

    n: int
    a: tuple[int, ...]
    b: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        # ParkingInput enforces the shared invariants: sizes and ranges
        ParkingInput(self.n, self.a, self.b)

    @property
    def k(self) -> int:
        return len(self.a)

    @classmethod
    def from_json(cls, data: object) -> PairAB:
        """Build from decoded JSON ``{"n": 8, "a": [...], "b": [...]}``;
        input of the wrong shape raises ValueError naming the field."""
        n, a, b = _json_fields(data, "pair", "n", "a", "b")
        return cls(_json_int(n, "n"), tuple(_json_ints(a, "a")), frozenset(_json_ints(b, "b")))

    def to_json(self) -> dict:
        return {"n": self.n, "a": list(self.a), "b": sorted(self.b)}

    def residue(self) -> int:
        """The parking residue of the pair, entries of A parking into B."""
        return _park(self.a, self.b)[1]

    def shifted(self, t: int) -> PairAB:
        """Add ``t`` modulo n to every value of the pair."""
        return PairAB(self.n, *_shift(self.a, self.b, t, self.n))

    def normalized(self) -> tuple[PairAB, int]:
        """The rotation of the pair with residue 1, plus the applied shift."""
        a2, b2, t = _normalize(self.n, self.a, self.b)
        return PairAB(self.n, a2, b2), t

    def orbit(self) -> list[PairAB]:
        """All n rotations of the pair; pairwise distinct."""
        return [self.shifted(t) for t in range(self.n)]


def gamma(pair: PairAB) -> Chain:
    """The k-prefix chain attached to (A, B).

    Constant on rotation orbits; the i-sequence of the result is the
    rotated A.  Malformed pairs are rejected when the :class:`PairAB` is
    built (B must hold exactly k + 1 values of 1..n, which also forces
    k <= n - 1).
    """
    a2, b2, _ = _normalize(pair.n, pair.a, pair.b)
    return _require_member(Chain(pair.n, _gamma_normalized(a2, b2)))


def _gamma_normalized(a: tuple[int, ...], b: frozenset[int]) -> tuple[Transposition, ...]:
    # gamma's steps for a checked (a, b) of residue 1: park the sorted entries, un-sort
    order = tuple(sorted(range(len(a)), key=a.__getitem__))
    entries = tuple(a[t] for t in order)
    taken = _park(entries, b)[0]
    return _act(tuple(map(Transposition, entries, taken)), order)


def section(c: Chain) -> PairAB:
    """The unique residue-1 pair that ``gamma`` maps to ``c``.

    A is the i-sequence of ``c``; B collects the larger entries of the
    sorted form of ``c`` together with 1.
    """
    _require_member(c)
    return PairAB(c.n, *_section(c)[:2])


def _section(c: Chain) -> tuple[tuple[int, ...], frozenset[int], tuple[Transposition, ...]]:
    # section's A and B of a member, and the sorted form B is read from
    a = projection(c)
    ordered = _act(c.steps, a)
    return a, frozenset(t.j for t in ordered) | {1}, ordered


def fiber(c: Chain) -> list[PairAB]:
    """All n pairs mapping to ``c``: the rotation orbit of ``section(c)``."""
    return section(c).orbit()


@dataclass(frozen=True)
class VerifyRow:
    k: int
    formula: int
    enumerated: int
    sections_ok: bool
    fibers_ok: bool

    @property
    def counts_match(self) -> bool:
        return self.formula == self.enumerated

    @property
    def passed(self) -> bool:
        return self.counts_match and self.sections_ok and self.fibers_ok

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "formula": self.formula,
            "enumerated": self.enumerated,
            "counts_match": self.counts_match,
            "sections_ok": self.sections_ok,
            "fibers_ok": self.fibers_ok,
        }


@dataclass(frozen=True)
class VerifyReport:
    n: int
    rows: tuple[VerifyRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "rows": [row.to_json() for row in self.rows],
        }


def verify(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Cross-check the closed-form count and the fibre structure for every
    k in 0..n-1.

    Per k the enumerated chains must match the formula count.  For every
    enumerated chain ``c`` with section ``s``, made by ``section``'s own kernel:

    - sections: ``c`` is a member, by ``check_sorted_criterion`` on its sorted
      form, and the tail of ``gamma`` after the rotation maps ``s`` to ``c``;
    - fibres: that holds, and for every t in 0..n-1 ``normalize`` takes the
      rotation of ``s`` by t back to ``s`` with shift -t mod n.  As
      ``normalize`` reports the shift it applies, the n rotations are then
      distinct and ``s`` is the one with residue 1.

    ``gamma(p)`` is that tail applied to ``normalize(p)``, so these checks
    imply ``gamma(p) == c`` for all n pairs of the orbit while running the
    tail (a park and an un-sort) once per chain instead of once per pair.
    ``normalize`` parks the rotation of residue 1 once and every other
    rotation twice, so a chain costs 2n parking runs: 39,216 for n = 6.

    Raises :class:`CapExceeded` before any chain is made when the count of
    some k exceeds ``cap``.
    """
    return VerifyReport(n, tuple(_verify_rows(n, cap)))


def _verify_rows(n: int, cap: int) -> Iterator[VerifyRow]:
    # verify's rows, each made when it is asked for; n and the caps of all n
    # walks are checked at the call, before the first row
    if n < 1:
        raise ValueError("n must be >= 1")
    streams = [iter_sigma(n, k, cap) for k in range(n)]
    return (_verify_row(n, k, chains) for k, chains in enumerate(streams))


def _verify_row(n: int, k: int, chains: Iterable[Chain]) -> VerifyRow:
    # orbit[x][t] is x shifted by t, so one zip makes all n rotations of a pair
    orbit = [()] + [(*range(x, n + 1), *range(1, x)) for x in range(1, n + 1)]
    enumerated = 0
    sections_ok = True
    fibers_ok = True
    for c in chains:
        enumerated += 1
        a, b, ordered = _section(c)
        member = _sorted_criterion(ordered)
        back = member and _gamma_normalized(a, b) == c.steps
        sections_ok = sections_ok and back
        rotations = zip(*map(orbit.__getitem__, (*a, *b)))
        fibers_ok = fibers_ok and back and all(
            _normalize(n, r[:k], frozenset(r[k:])) == (a, b, -t % n)
            for t, r in enumerate(rotations)
        )
    return VerifyRow(k, count_formula(n, k), enumerated, sections_ok, fibers_ok)
