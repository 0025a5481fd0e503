"""Permutations of {1, ..., n} under the all-transpositions Cayley metric.

Permutations are stored in one-line form: ``images[x - 1]`` is the image of
``x``, and every interface speaks 1-based values.  Products compose with the
right factor acting first, ``(a * b)(x) == a(b(x))``, so a chain of
transpositions ``t1, t2, ..., tk`` multiplies out as ``t1 * t2 * ... * tk``
with ``tk`` applied to a point first.

With all transpositions as generators, the distance of a permutation from
the identity is ``n`` minus its number of cycles (fixed points included).
``precedes`` is the partial order in which ``a`` comes before ``b`` when
``a`` lies on a shortest path from the identity to ``b``.  Below the full
cycle ``(1 2 ... n)`` this order has a purely geometric description, tested
by :func:`below_long_cycle_geometric`: the cycles must be increasing and
pairwise non-crossing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "Transposition",
    "multiply",
    "precedes",
    "below_long_cycle_geometric",
]

_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


def _cycle_groups(text: str, what: str) -> list[tuple[str, list[int]]]:
    # (body, entries) per parenthesised group; entries split at spaces or commas
    if _CYCLE_TOKEN.sub("", text).strip():
        raise ValueError(f"unparsable {what} text: {text!r}")
    return [
        (body, [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok])
        for body in _CYCLE_TOKEN.findall(text)
    ]


@dataclass(frozen=True, order=True)
class Transposition:
    """An unordered pair of the ground set, always written ``(i j)`` with i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j:
            raise ValueError(
                f"transpositions are written (i j) with 1 <= i < j, got ({self.i} {self.j})"
            )

    def apply(self, x: int) -> int:
        if x == self.i:
            return self.j
        if x == self.j:
            return self.i
        return x

    def as_permutation(self, n: int) -> Permutation:
        if self.j > n:
            raise ValueError(f"step {self} leaves the ground set 1..{n}")
        return Permutation.from_cycles(n, [(self.i, self.j)])

    def __str__(self) -> str:
        return f"({self.i} {self.j})"


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} in one-line form.

    The empty permutation (n = 0) is allowed so that the group acting on
    positions of a length-0 chain is still inhabited.

    >>> p = Permutation((2, 3, 1))
    >>> p(1), p(2), p(3)
    (2, 3, 1)
    >>> str(p)
    '(1 2 3)'
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        seen = [False] * (n + 1)
        for x in self.images:
            if not 1 <= x <= n or seen[x]:
                raise ValueError(f"not a bijection of 1..{n}: {self.images!r}")
            seen[x] = True

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def long_cycle(cls, n: int) -> Permutation:
        """The full cycle sending 1 -> 2 -> ... -> n -> 1."""
        if n < 1:
            raise ValueError("the full cycle needs n >= 1")
        return cls(tuple(range(2, n + 1)) + (1,))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Product of the given cycles, right factor acting first.

        Disjointness is not required; overlapping cycles multiply like any
        other product.
        """
        cycles = list(cycles)
        for cycle in reversed(cycles):
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated element in cycle {tuple(cycle)}")
            for x in cycle:
                if not 1 <= x <= n:
                    raise ValueError(f"cycle entry {x} outside 1..{n}")
        images = list(range(1, n + 1))
        for cycle in cycles:
            # right-multiplying by c moves the image at each c(x) to x
            moved = [images[y - 1] for y in (*cycle[1:], *cycle[:1])]
            for x, y in zip(cycle, moved):
                images[x - 1] = y
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, n: int) -> Permutation:
        """Parse cycle notation such as ``"(1 3 5 7 8)"`` or ``"(1 3)(2 4)"``.

        ``"()"`` and the empty string denote the identity; entries may be
        separated by spaces or commas and cycles multiply right factor
        first.
        """
        groups = _cycle_groups(text, "permutation")
        return cls.from_cycles(n, [entries for _, entries in groups if entries])

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside 1..{self.n}")
        return self.images[x - 1]

    def __mul__(self, other: object) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.images[y - 1] for y in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles in traversal order, each starting at its smallest
        element, listed by increasing smallest element."""
        seen: set[int] = set()
        out = []
        for x in range(1, self.n + 1):
            if x not in seen:
                out.append(self.cycle_of(x))
                seen.update(out[-1])
        return out

    def cycle_of(self, x: int) -> tuple[int, ...]:
        """The cycle through ``x`` in traversal order, starting at ``x``."""
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside 1..{self.n}")
        cycle = [x]
        y = self.images[x - 1]
        while y != x:
            cycle.append(y)
            y = self.images[y - 1]
        return tuple(cycle)

    def cycle_count(self) -> int:
        """Number of cycles, fixed points included.

        >>> Permutation.identity(5).cycle_count()
        5
        """
        seen = [False] * (self.n + 1)
        count = 0
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.images[x - 1]
        return count

    def norm(self) -> int:
        """Cayley distance from the identity: n minus the cycle count."""
        return self.n - self.cycle_count()

    def support(self) -> frozenset[int]:
        """The set of non-fixed points."""
        return frozenset(
            x for x, y in enumerate(self.images, start=1) if y != x
        )

    def __str__(self) -> str:
        parts = [
            "(" + " ".join(map(str, cycle)) + ")"
            for cycle in self.cycles()
            if len(cycle) > 1
        ]
        return "".join(parts) or "()"


def multiply(a: Permutation, b: Permutation) -> Permutation:
    """The composition in which the right factor acts first.

    >>> t = lambda i, j: Transposition(i, j).as_permutation(3)
    >>> str(multiply(t(1, 2), t(2, 3)))
    '(1 2 3)'
    """
    return a * b


def precedes(a: Permutation, b: Permutation) -> bool:
    """Whether ``a`` lies on a geodesic from the identity to ``b``.

    Holds exactly when norm(b) == norm(a) + norm(a^-1 * b).
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return b.norm() == a.norm() + (a.inverse() * b).norm()


def below_long_cycle_geometric(p: Permutation) -> bool:
    """Geometric test for ``precedes(p, Permutation.long_cycle(n))``.

    True iff every cycle of ``p`` is increasing when read from its smallest
    element and no two cycles cross, i.e. no quadruple i < j < k < l has
    i, k in one cycle and j, l in another.
    """
    return _noncrossing(enumerate(p.images, start=1), [0] * (p.n + 1))


def _noncrossing(points: Iterable[tuple[int, int]], owner: list[int] | dict[int, int]) -> bool:
    # One scan over the pairs (x, p(x)) by increasing x; ``owner`` holds the
    # block handed to each point, 0 for none.  A point that no smaller point maps
    # to opens a block, and x < p(x) hands x's block on to p(x); the cycles are
    # increasing iff each x with p(x) <= x maps to its block's first point.  Open
    # blocks form a stack, and a point whose block is open but not on top is a
    # crossing (Kreweras).  A fixed point opens no block, so it may be left out.
    stack: list[int] = []
    for x, y in points:
        block = owner[x] or x
        if block != x and stack[-1] != block:
            return False
        if y > x:
            owner[y] = block
            if block == x:
                stack.append(x)
        elif y != block:
            return False
        elif block != x:
            stack.pop()
    return True
