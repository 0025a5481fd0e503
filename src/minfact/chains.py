"""Chains of transpositions and the prefixes of minimal factorizations.

A chain over {1, ..., n} is a finite sequence of transpositions
``((i1 j1), ..., (ik jk))``.  The chains of interest are the *k-prefixes*:
those whose step product (right factor first) has norm exactly k and
precedes the full cycle ``(1 2 ... n)``, which is the same as saying the
chain extends to a product of n - 1 transpositions equal to the full cycle.
``validate`` reports the membership conditions separately.

One depth-first search over noncrossing blocks makes every member for given n
and k, each from its parent by one step.  It is written once, as a fold:
``iter_sigma`` folds it into a stream of chains, ``enumerate_sigma`` lists
them, and ``minfact enumerate`` folds it into output lines.  A chain's next
steps are the pairs inside the blocks of the permutation still to go to the
full cycle, so all below a chain depends on that block set alone; the last
steps of the many chains that reach one block set are made as one value, and
kept, room permitting, in a memo whose depth the closed-form counts set before
the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, repeat
from math import comb
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .counting import count_formula
from .perms import Permutation, Transposition, _cycle_groups, precedes

__all__ = [
    "Chain",
    "ValidityReport",
    "CapExceeded",
    "DEFAULT_CAP",
    "intermediate",
    "validate",
    "iter_sigma",
    "enumerate_sigma",
    "involute",
    "support",
    "check_sorted_criterion",
]

DEFAULT_CAP = 10_000_000
T = TypeVar("T")
L = TypeVar("L")


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
        pairs = []
        for body, entries in _cycle_groups(text, "chain"):
            if not entries:
                continue
            if len(entries) != 2:
                raise ValueError(f"each chain step must be a pair (i j), got ({body})")
            pairs.append((entries[0], entries[1]))
        return cls.from_pairs(n, pairs)

    @classmethod
    def from_json(cls, data: object) -> Chain:
        """Build from decoded JSON ``{"n": 8, "steps": [[3, 8], ...]}``;
        input of the wrong shape raises ValueError naming the field."""
        n, steps = _json_fields(data, "chain", "n", "steps")
        if not isinstance(steps, list) or not all(
            isinstance(s, list) and len(s) == 2 for s in steps
        ):
            raise ValueError(f"field 'steps' must be a list of [i, j] pairs, got {steps!r}")
        return cls.from_pairs(_json_int(n, "n"), [_json_ints(s, "steps") for s in steps])

    def to_json(self) -> dict:
        return {"n": self.n, "steps": [[t.i, t.j] for t in self.steps]}

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Transposition]:
        return iter(self.steps)

    def __str__(self) -> str:
        return "".join(str(t) for t in self.steps)


def _json_fields(data: object, what: str, *keys: str) -> list:
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} JSON lacks the field {key!r}")
    return [data[key] for key in keys]


def _json_int(value: object, field: str) -> int:
    # bool is a subclass of int, but JSON true and false are not numbers
    if type(value) is not int:
        raise ValueError(f"field {field!r} takes JSON integers, got {value!r}")
    return value


def _json_ints(value: object, field: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"field {field!r} must be a list, got {value!r}")
    return [_json_int(x, field) for x in value]


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
    return Permutation.from_cycles(c.n, [(t.i, t.j) for t in c.steps[:l]])


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


def _require_member(c: Chain) -> Chain:
    report = validate(c)
    if not report.is_member:
        why = "is not below the full cycle" if report.is_geodesic else f"has norm below {len(c)}"
        raise ValueError(f"requires a prefix chain; {c} over 1..{c.n} is not one: its product {why}")
    return c


# Suffixes one walk may keep in its memo, over all the block sets it keeps
_MEMO_PAIRS = 1 << 16
_Blocks = tuple[tuple[int, ...], ...]


def _memo_level(n: int, k: int) -> int:
    # 1 unless the largest 2-step entry, one block of n - k + 2 points, fits; then
    # up from 2 while the next level fits, its suffixes estimated as the block sets
    # at its depth d, a Narayana number (Kreweras 1972), times the mean completions,
    # rounded up: ~ C(n, d) count_formula(n, k) / n^d, which only grows as d falls
    if k < 2 or count_formula(n - k + 2, 2) > _MEMO_PAIRS:
        return 1
    total = count_formula(n, k)
    for d in range(k - 3, 1, -1):  # the depth of level k - d, from 3 up
        if comb(n, d + 1) * comb(n, d) // n * -(-total // count_formula(n, d)) > _MEMO_PAIRS:
            return k - d - 1
    return max(2, k - 2)


def _walk(
    n: int,
    k: int,
    cap: int,
    root: T,
    grow: Callable[[T, int, int], T],
    leaf: Callable[[int, int], L],
) -> Iterator[tuple[T, Sequence]]:
    """The DFS over the k-prefixes, folded: the empty chain is ``root``, a chain
    with children is ``grow(its parent, i, j)`` for its last step (i j), and
    chains come in batches ``(acc, suffixes)``: ``acc`` plus each of its suffixes
    of r = k - len(chain acc) steps, grown from ``root[:0]`` to a ``leaf(i, j)``,
    as lines joined by newlines for a str ``root``, else as one flat tuple of r
    items each.  Chains come in lexicographic step order; arguments and ``cap``
    are checked at the call.  No batch comes for k >= n, nor for k = 0, whose
    one chain is ``root`` itself."""
    expected = count_formula(n, k)
    if expected > cap:
        raise CapExceeded(
            f"enumeration of n={n}, k={k} has {expected} chains, over the cap {cap}"
        )
    if k == 0 or k >= n:  # no blocks to build, whatever n is
        return iter(())

    # phi = gamma^-1 * long_cycle, for the running product gamma, lies below the
    # full cycle, so its cycles are increasing and noncrossing and phi is held as
    # its blocks, sorted tuples (``below_long_cycle_geometric``).  (i j) keeps the
    # prefix property iff i and j share a block b: (i j) phi splits b at their
    # positions s < t into b[s:t] and b[:s] + b[t:], one norm less, and then
    # norm(gamma (i j)) + norm((i j) phi) >= n - 1 = norm(gamma) + norm(phi) makes
    # gamma one norm more, so gamma is not kept.  A block of one point holds no
    # step and is dropped.  Shadow-tested against ``validate``.
    #
    # A split keeps the pairs that do not cross it, in their order: a pair (x y)
    # of b stays iff x and y both lie in b[s:t], the points of b in [i, j), or
    # neither does, and a pair of another block always stays, as blocks do not
    # cross, so its two points lie both in [i, j) or both outside it.  Hence a
    # 2-step entry needs no child set: each of the set's pairs (i j) is a head,
    # and its leaves are the set's pairs with both or neither point in [i, j).
    #
    # So all below a chain depends on its block set alone, not on the path to
    # it.  The set fixes gamma, and Dénes' m^(m-2) minimal factorisations of an
    # m-cycle, shuffled over gamma's cycles c, give d! prod |c|^(|c|-2) /
    # (|c|-1)! chains of length d to it: Sigma(9, 3) has 10,206 chains over
    # 1,176 block sets.  So every chain at depth k - r, for r = _memo_level(n, k),
    # takes all its suffixes as one value, the entry of its block set: built
    # when the set is first met, and kept in a memo keyed by the set if its
    # suffixes fit the room left of _MEMO_PAIRS, else built again when the set
    # recurs.  An entry holds at most the level's suffixes, which r is chosen
    # to fit, or, where r falls back to 2, one block's 2-step suffixes, which
    # hold the most at that depth and fit.  The memo has no room at k - r < 2,
    # as each chain of 0 or 1 steps has its own set.  At r = 1 there is no memo:
    # every leaf-parent streams its leaves in batches of at most _MEMO_PAIRS per
    # smaller entry i.  So memo and batches are bounded.
    memo: dict[_Blocks, Sequence] = {}
    shared = cache(leaf)
    text = isinstance(root, str)
    packed = "\n".join if text else tuple
    level = _memo_level(n, k)
    room = _MEMO_PAIRS if k - level >= 2 else 0
    cut = max(_MEMO_PAIRS, 1)

    def steps(blocks: _Blocks) -> Iterable[tuple[int, int, int]]:
        # (i, block, position) by i; a block's last point has no larger partner,
        # and a lone block, such as the root's, streams in order with no copy
        if len(blocks) == 1:
            return zip(blocks[0], repeat(0), range(len(blocks[0]) - 1))
        return sorted((i, b, s) for b, block in enumerate(blocks) for s, i in enumerate(block[:-1]))

    def stream(acc: T, blocks: _Blocks) -> Iterator[tuple[T, Sequence]]:
        # a batch per smaller entry i, cut to the memo's budget of leaves
        for i, b, s in steps(blocks):
            block = blocks[b]
            for t in range(s + 1, len(block), cut):
                yield acc, packed([leaf(i, j) for j in block[t:t + cut]])

    def suffixes(blocks: _Blocks, r: int) -> Sequence:
        # every r-step suffix of the block set: a tail of 3 or more steps is made
        # from each child's entry, kept or built by recall; a 2-step tail is cut
        # from the set's own pairs, so no child's row of leaves is built for it
        if r > 2:
            tails = [(head, recall(child, r - 1)) for head, child in children(root[:0], blocks)]
            if text:
                return "\n".join(head + tail.replace("\n", "\n" + head) for head, tail in tails)
            return tuple(
                x for head, tail in tails for c in range(0, len(tail), r - 1) for x in head + tail[c:c + r - 1]
            )
        pairs = sorted(p for block in blocks for p in combinations(block, 2))
        # each pair (i j) is a head, followed by the pairs that do not cross it
        row = [(x, y, shared(x, y) if text else (shared(x, y),)) for x, y in pairs]
        lines = [
            head + leaf for i, j in pairs for head in (grow(root[:0], i, j),)
            for x, y, leaf in row if not (x < i <= y < j or i <= x < j <= y)
        ]
        return "\n".join(lines) if text else tuple(x for line in lines for x in line)

    def recall(blocks: _Blocks, r: int) -> Sequence:
        # the set's entry, kept or built
        nonlocal room
        key = tuple(sorted(blocks))  # the block set, as one sorted tuple
        kept = memo.get(key)
        if kept is None:
            kept = suffixes(blocks, r)
            size = kept.count("\n") + 1 if text else len(kept) // r
            if size <= room:
                room -= size
                memo[key] = kept
        return kept

    def children(acc: T, blocks: _Blocks) -> Iterator[tuple[T, _Blocks]]:
        for i, b, s in steps(blocks):
            block, rest = blocks[b], blocks[:b] + blocks[b + 1:]
            for t in range(s + 1, len(block)):
                child = rest
                if t - s > 1:
                    child += (block[s:t],)
                if len(block) - (t - s) > 1:
                    child += (block[:s] + block[t:],)
                yield grow(acc, i, block[t]), child

    def batches() -> Iterator[tuple[T, Sequence]]:
        # stack[-1] makes the chains of length len(stack) - 1, the root's one
        # block first, so every batch is yielded from this one frame, not
        # handed up through k generators; the chains level steps short of k
        # push nothing, and take their entries, the root's too at k = 2
        stack = [iter(((root, (tuple(range(1, n + 1)),)),))]
        keyed = k + 1 - level
        while stack:
            for acc, blocks in stack[-1]:
                if len(stack) < keyed:
                    stack.append(children(acc, blocks))
                    break
                if level > 1:
                    yield acc, recall(blocks, level)
                else:
                    yield from stream(acc, blocks)
            else:
                stack.pop()

    return batches()


def iter_sigma(n: int, k: int, cap: int = DEFAULT_CAP) -> Iterator[Chain]:
    """All k-prefixes over {1, ..., n}, lazily, in lexicographic step order;
    the arguments and ``cap`` (:class:`CapExceeded`) are checked at the call."""
    # a node's steps are shared by all below it, and the walk's memo shares the
    # leaves it keeps; streamed leaves are not kept
    batches = _walk(n, k, cap, (), lambda steps, i, j: (*steps, Transposition(i, j)), Transposition)
    if k == 0:
        return iter((Chain(n, ()),))
    return (  # r = k - len(steps) steps in each run of ``flat``
        Chain(n, steps + flat[c:c + r])
        for steps, flat in batches
        for r in (k - len(steps),)
        for c in range(0, len(flat), r)
    )


def enumerate_sigma(n: int, k: int, cap: int = DEFAULT_CAP) -> list[Chain]:
    """All k-prefixes over {1, ..., n} as a list: ``list(iter_sigma(n, k, cap))``."""
    return list(iter_sigma(n, k, cap))


def involute(c: Chain) -> Chain:
    """Reverse the chain and reflect every entry through x -> n + 1 - x.

    Maps prefixes to prefixes and is its own inverse.
    """
    _require_member(c)
    m = c.n + 1
    return Chain(c.n, tuple(Transposition(m - t.j, m - t.i) for t in reversed(c.steps)))


def support(c: Chain) -> frozenset[int]:
    """Union of all step entries.

    For a prefix chain this equals the set of points moved by the step
    product.
    """
    _require_member(c)
    return frozenset(x for t in c.steps for x in (t.i, t.j))


def check_sorted_criterion(c: Chain) -> bool:
    """Pairwise membership test for chains whose i-sequence is sorted.

    Requires i1 <= ... <= ik and returns True iff for all l < m either
    j_l <= i_m or j_l > j_m.  On sorted chains this decides membership
    exactly as ``validate`` does.
    """
    return _sorted_criterion(c.steps)


def _sorted_criterion(steps: tuple[Transposition, ...]) -> bool:
    if any(a.i > b.i for a, b in zip(steps, steps[1:])):
        raise ValueError("check_sorted_criterion requires a non-decreasing i-sequence")
    for l in range(len(steps)):
        for m in range(l + 1, len(steps)):
            if steps[m].i < steps[l].j <= steps[m].j:
                return False
    return True
