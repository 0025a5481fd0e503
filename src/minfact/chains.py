"""Chains of transpositions and the prefixes of minimal factorizations.

A chain over {1, ..., n} is a finite sequence of transpositions
``((i1 j1), ..., (ik jk))``.  The chains of interest are the *k-prefixes*:
those whose step product (right factor first) has norm exactly k and
precedes the full cycle ``(1 2 ... n)``, which is the same as saying the
chain extends to a product of n - 1 transpositions equal to the full cycle.
``validate`` reports the membership conditions separately and
``enumerate_sigma`` lists all members for given n and k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .counting import count_formula
from .perms import Permutation, Transposition, precedes

__all__ = [
    "Chain",
    "ValidityReport",
    "CapExceeded",
    "DEFAULT_CAP",
    "intermediate",
    "validate",
    "enumerate_sigma",
    "involute",
    "support",
    "check_sorted_criterion",
]

DEFAULT_CAP = 10_000_000

_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


class CapExceeded(ValueError):
    """Enumeration refused because it would exceed the configured cap."""


@dataclass(frozen=True)
class Chain:
    """A sequence of transposition steps over the ground set {1, ..., n}."""

    n: int
    steps: tuple[Transposition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.n < 1:
            raise ValueError("ground-set size must be at least 1")
        for t in self.steps:
            if t.j > self.n:
                raise ValueError(f"step {t} leaves the ground set 1..{self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Chain:
        return cls(n, tuple(Transposition(i, j) for i, j in pairs))

    @classmethod
    def parse(cls, text: str, n: int) -> Chain:
        """Parse the text form ``"(3 8)(5 7)(1 8)(3 7)"``.

        The empty string and ``"()"`` denote the empty chain; pair entries
        may be separated by spaces or commas.
        """
        if _CYCLE_TOKEN.sub("", text).strip():
            raise ValueError(f"unparsable chain text: {text!r}")
        pairs = []
        for body in _CYCLE_TOKEN.findall(text):
            entries = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if not entries:
                continue
            if len(entries) != 2:
                raise ValueError(f"each chain step must be a pair (i j), got ({body})")
            pairs.append((entries[0], entries[1]))
        return cls.from_pairs(n, pairs)

    @classmethod
    def from_json(cls, data: dict) -> Chain:
        return cls.from_pairs(data["n"], data["steps"])

    def to_json(self) -> dict:
        return {"n": self.n, "steps": [[t.i, t.j] for t in self.steps]}

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Transposition]:
        return iter(self.steps)

    def __str__(self) -> str:
        return "".join(str(t) for t in self.steps)


@dataclass(frozen=True)
class ValidityReport:
    """The two membership conditions of a chain, plus sortedness."""

    is_geodesic: bool
    is_below: bool
    is_nondecreasing: bool

    @property
    def is_member(self) -> bool:
        return self.is_geodesic and self.is_below

    def to_json(self) -> dict:
        return {
            "is_member": self.is_member,
            "is_geodesic": self.is_geodesic,
            "is_below": self.is_below,
            "is_nondecreasing": self.is_nondecreasing,
        }


def intermediate(c: Chain, l: int) -> Permutation:
    """Product of the first ``l`` steps, right factor first; l = 0 gives the
    identity."""
    if not 0 <= l <= len(c.steps):
        raise ValueError(f"prefix length {l} outside 0..{len(c.steps)}")
    # right-multiplying by (i j) swaps the one-line entries at slots i and j
    images = list(range(1, c.n + 1))
    for t in c.steps[:l]:
        images[t.i - 1], images[t.j - 1] = images[t.j - 1], images[t.i - 1]
    return Permutation(tuple(images))


def validate(c: Chain) -> ValidityReport:
    """Check the two membership conditions from scratch.

    ``is_geodesic``: the step product has norm exactly k.
    ``is_below``: the step product precedes the full cycle.
    A chain is a k-prefix exactly when both hold.
    """
    product = intermediate(c, len(c.steps))
    return ValidityReport(
        is_geodesic=product.norm() == len(c.steps),
        is_below=precedes(product, Permutation.long_cycle(c.n)),
        is_nondecreasing=all(a.i <= b.i for a, b in zip(c.steps, c.steps[1:])),
    )


def _require_member(c: Chain, what: str) -> None:
    if not validate(c).is_member:
        raise ValueError(f"{what} requires a prefix chain, got non-member {c!r}")


def _cycle_blocks(images: list[int], n: int) -> list[int]:
    """Cycle id per element (slot 0 unused) of a 1-based one-line array."""
    block = [0] * (n + 1)
    bid = 0
    for start in range(1, n + 1):
        if block[start] == 0:
            bid += 1
            x = start
            while block[x] == 0:
                block[x] = bid
                x = images[x]
    return block


def _iter_sigma(n: int, k: int) -> Iterator[Chain]:
    # Depth-first extension of valid prefixes, trying steps in lexicographic
    # order.  gamma holds the running product (1-based one-line, slot 0
    # unused) and phi = gamma^-1 * long_cycle with its inverse phi_inv.
    # Appending (i, j) keeps the prefix property iff i and j lie in distinct
    # cycles of gamma (the norm must grow by one) and in the same cycle of
    # phi (the distance to the full cycle must shrink by one); both tests
    # are O(1) against block ids recomputed once per node.  The equivalence
    # with the from-scratch ``validate`` check is shadow-tested.
    gamma = list(range(n + 1))
    phi = [0] + [x % n + 1 for x in range(1, n + 1)]
    phi_inv = [0] + [(x - 2) % n + 1 for x in range(1, n + 1)]
    steps: list[Transposition] = []

    def swap_phi_values(i: int, j: int) -> None:
        a, b = phi_inv[i], phi_inv[j]
        phi[a], phi[b] = j, i
        phi_inv[i], phi_inv[j] = b, a

    def extend(depth: int) -> Iterator[Chain]:
        if depth == k:
            yield Chain(n, tuple(steps))
            return
        gamma_block = _cycle_blocks(gamma, n)
        phi_block = _cycle_blocks(phi, n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if gamma_block[i] != gamma_block[j] and phi_block[i] == phi_block[j]:
                    gamma[i], gamma[j] = gamma[j], gamma[i]
                    swap_phi_values(i, j)
                    steps.append(Transposition(i, j))
                    yield from extend(depth + 1)
                    steps.pop()
                    swap_phi_values(i, j)
                    gamma[i], gamma[j] = gamma[j], gamma[i]

    return extend(0)


def enumerate_sigma(n: int, k: int, cap: int = DEFAULT_CAP) -> list[Chain]:
    """All k-prefixes over {1, ..., n}, in lexicographic step order.

    The result is empty when k >= n.  Raises :class:`CapExceeded` when the
    closed-form count exceeds ``cap``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    expected = count_formula(n, k)
    if expected > cap:
        raise CapExceeded(
            f"enumeration of n={n}, k={k} has {expected} chains, over the cap {cap}"
        )
    if k >= n:
        # the DFS would walk every (n-1)-prefix before finding nothing
        return []
    return list(_iter_sigma(n, k))


def involute(c: Chain) -> Chain:
    """Reverse the chain and reflect every entry through x -> n + 1 - x.

    Maps prefixes to prefixes and is its own inverse.
    """
    _require_member(c, "involute")
    m = c.n + 1
    return Chain(c.n, tuple(Transposition(m - t.j, m - t.i) for t in reversed(c.steps)))


def support(c: Chain) -> frozenset[int]:
    """Union of all step entries.

    For a prefix chain this equals the set of points moved by the step
    product.
    """
    _require_member(c, "support")
    return frozenset(x for t in c.steps for x in (t.i, t.j))


def check_sorted_criterion(c: Chain) -> bool:
    """Pairwise membership test for chains whose i-sequence is sorted.

    Requires i1 <= ... <= ik and returns True iff for all l < m either
    j_l <= i_m or j_l > j_m.  On sorted chains this decides membership
    exactly as ``validate`` does.
    """
    steps = c.steps
    if any(a.i > b.i for a, b in zip(steps, steps[1:])):
        raise ValueError("check_sorted_criterion requires a non-decreasing i-sequence")
    for l in range(len(steps)):
        for m in range(l + 1, len(steps)):
            if steps[m].i < steps[l].j <= steps[m].j:
                return False
    return True
