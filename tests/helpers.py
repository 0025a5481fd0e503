"""Brute-force oracles and shared strategies for the test suite."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import hypothesis.strategies as st

from minfact import (
    CarTrace,
    Chain,
    PairAB,
    ParkingInput,
    ParkingOutcome,
    Permutation,
    Transposition,
    VerifyReport,
    VerifyRow,
    apply_generator,
    count_formula,
    enumerate_sigma,
    fiber,
    gamma,
    park,
    validate,
)
from minfact import chains
from minfact.action import _generator_move
from minfact.perms import _noncrossing


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(images) for images in permutations(range(1, n + 1))]


def all_transpositions(n: int) -> list[Transposition]:
    return [Transposition(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def brute_sigma(n: int, k: int) -> list[Chain]:
    """Independent oracle: filter every length-k step tuple through validate."""
    return [
        chain
        for chain in (
            Chain(n, steps) for steps in product(all_transpositions(n), repeat=k)
        )
        if validate(chain).is_member
    ]


@lru_cache(maxsize=None)
def sigma(n: int, k: int) -> tuple[Chain, ...]:
    return tuple(enumerate_sigma(n, k))


@lru_cache(maxsize=None)
def sigma_all(n: int) -> tuple[Chain, ...]:
    return tuple(c for k in range(n) for c in sigma(n, k))


def verify_oracle(n: int) -> VerifyReport:
    """The per-pair ``verify``: ``gamma`` on all n pairs of every fibre, and
    the residue of each pair from the parking simulation."""
    rows = []
    for k in range(n):
        chains = enumerate_sigma(n, k)
        sections_ok = True
        fibers_ok = True
        for c in chains:
            pairs = fiber(c)
            back = [gamma(p) == c for p in pairs]
            if not back[0]:
                sections_ok = False
            if not (
                len(set(pairs)) == n
                and all(back)
                and sum(park(ParkingInput(n, p.a, p.b)).residue == 1 for p in pairs) == 1
            ):
                fibers_ok = False
        rows.append(VerifyRow(k, count_formula(n, k), len(chains), sections_ok, fibers_ok))
    return VerifyReport(n, tuple(rows))


def block_pairs(blocks) -> list[tuple[int, int]]:
    """The pairs inside a block set's blocks, sorted: the steps the walk may take."""
    return sorted(p for block in blocks for p in combinations(block, 2))


def split(blocks, i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """The block set after the step (i j): the block b holding i and j splits at
    their positions s < t into b[s:t] and b[:s] + b[t:], and a block of one
    point is dropped."""
    (b,) = [block for block in blocks if i in block]
    s, t = b.index(i), b.index(j)
    parts = [block for block in blocks if block is not b] + [b[s:t], b[:s] + b[t:]]
    return tuple(part for part in parts if len(part) > 1)


def reachable_blocks(n: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every block set that the walk over 1..n reaches after d steps, once each."""
    sets = {(tuple(range(1, n + 1)),)}
    for _ in range(d):
        sets = {tuple(sorted(split(blocks, i, j))) for blocks in sets for i, j in block_pairs(blocks)}
    return sorted(sets)


def completions(blocks, r: int) -> int:
    """Dénes' count of the r-step suffixes below a block set: a block of m
    points is the walk's root for n = m, and blocks' steps shuffle."""
    return _shuffled(tuple(sorted(map(len, blocks))), r)


@lru_cache(maxsize=None)
def _shuffled(sizes: tuple[int, ...], r: int) -> int:
    if r == 1:
        return sum(m * (m - 1) // 2 for m in sizes)
    ways = [1] + [0] * r
    for m in sizes:
        for t in range(r, 0, -1):
            ways[t] += sum(comb(t, s) * count_formula(m, s) * ways[t - s] for s in range(1, t + 1))
    return ways[r]


@lru_cache(maxsize=None)
def _subtrees(blocks, left: int):
    """The steps of a block set in lexicographic order, with ``left`` steps
    still to take: the rank at which each step's subtree starts, the step, and
    the block set after it, each as one tuple."""
    starts, steps, children = [], [], []
    start = 0
    for i, j in block_pairs(blocks):
        child = tuple(sorted(split(blocks, i, j)))
        starts.append(start)
        steps.append((i, j))
        children.append(child)
        start += completions(child, left - 1)
    return tuple(starts), tuple(steps), tuple(children)


def unrank_lex(n: int, k: int, index: int) -> Chain:
    """The chain at ``index`` in the lexicographic order of the k-prefixes over
    1..n, found from the root down by skipping whole subtrees by their sizes,
    ``completions``: no chain before it is made."""
    if not 0 <= index < count_formula(n, k):
        raise IndexError(f"no chain at index {index} of the {count_formula(n, k)} for n={n}, k={k}")
    blocks, steps = (tuple(range(1, n + 1)),), []
    for left in range(k, 0, -1):
        starts, pairs, children = _subtrees(blocks, left)
        at = bisect_right(starts, index) - 1
        index -= starts[at]
        steps.append(pairs[at])
        blocks = children[at]
    return Chain.from_pairs(n, steps)


def rank_lex(c: Chain) -> int:
    """The index of a k-prefix in the lexicographic order of its n and k: the
    sizes of the subtrees before it, summed from the root down.  A chain that
    is not a member raises ValueError at its first step that no block holds."""
    blocks, index = (tuple(range(1, c.n + 1)),), 0
    for left, t in zip(range(len(c), 0, -1), c.steps):
        starts, pairs, children = _subtrees(blocks, left)
        at = pairs.index((t.i, t.j))
        index += starts[at]
        blocks = children[at]
    return index


def two_steps_by_children(blocks, root, grow, leaf):
    """Oracle for the walk's 2-step entry of a block set, built child by child:
    each pair (i j) of the set, in order, is a head, and under it go the leaves
    of its child's row, the sorted pairs of the set after (i j).  Lines joined
    by newlines for a str ``root``, else one flat tuple of 2 items a line."""
    tails = [
        (grow(root[:0], i, j), [leaf(x, y) for x, y in block_pairs(split(blocks, i, j))])
        for i, j in block_pairs(blocks)
    ]
    if isinstance(root, str):
        return "\n".join(head + "\n".join(row).replace("\n", "\n" + head) for head, row in tails)
    return tuple(x for head, row in tails for step in row for x in head + (step,))


def walk_suffixes(n: int, root, grow, leaf):
    """The entry builder ``suffixes(blocks, r)`` of a ``_walk`` over 1..n with
    this fold, taken from the closure of the ``recall`` that its unstarted
    generator holds."""
    batches = chains._walk(n, n - 1, n**n, root, grow, leaf)
    recall = batches.gi_frame.f_locals["recall"]
    return recall.__closure__[recall.__code__.co_freevars.index("suffixes")].cell_contents


def blocks_of(steps) -> tuple[tuple[int, ...], ...] | None:
    """The cycles of a chain's step product, right factor first, each as the
    sorted tuple of its points, or None unless they are increasing and
    noncrossing, as those of a k-prefix's product are: they are the blocks of
    a noncrossing partition, read as increasing cycles (Stanley, "Parking
    functions and noncrossing partitions", 1997; Biane, "Parking functions of
    types A and B", 2002).  The product is a dict on the moved points alone,
    so no work grows with n."""
    image: dict[int, int] = {}
    for t in steps:
        # right-multiplying by (i j) swaps the images at i and j
        image[t.i], image[t.j] = image.get(t.j, t.j), image.get(t.i, t.i)
    moved = sorted((x, y) for x, y in image.items() if y != x)
    owner: defaultdict[int, int] = defaultdict(int)
    if not _noncrossing(moved, owner):
        return None
    # a block's least point is the one the scan handed no block; the block's
    # cycle is increasing, so following the images from there reads it sorted
    blocks = []
    for x, _ in moved:
        if not owner[x]:
            block = [x]
            while image[block[-1]] != x:
                block.append(image[block[-1]])
            blocks.append(tuple(block))
    return tuple(blocks)


def is_member(steps) -> bool:
    """Membership on the support: the product's blocks exist and have norm k."""
    blocks = blocks_of(steps)
    return blocks is not None and sum(map(len, blocks)) - len(blocks) == len(steps)


def rebuild(blocks, i_seq) -> tuple[Transposition, ...]:
    """The member chain whose product has these blocks (sorted tuples, as
    ``blocks_of`` gives them) and whose i-sequence is ``i_seq``, built from
    the left with no braid move.

    Step l takes the block C holding a_l, at position s.  A left factor
    (a_l C[t]) splits C into C[s:t] and C[:s] + C[t:], and the later steps
    factor each block of m points in m - 1 steps whose i's lie in it.  So the
    later i's in C[s:t], those equal to a_l included, number t - s - 1; the
    rule takes the first t > s at which they do, the step of the
    parking-function bijection for maximal chains of noncrossing partitions
    (Stanley, "Parking functions and noncrossing partitions", 1997; Biane,
    "Parking functions of types A and B", 2002).  Raises ValueError when no
    t does: then no member has these blocks and this i-sequence."""
    holder = {x: block for block in blocks for x in block}
    later = Counter(i_seq)
    steps = []
    for a in i_seq:
        later[a] -= 1
        c = holder.get(a, (a,))
        s = c.index(a)
        seen = 0
        for t in range(s + 1, len(c)):
            seen += later[c[t - 1]]
            if seen == t - s - 1:
                break
        else:
            raise ValueError(f"no member has blocks {tuple(blocks)} and i-sequence {tuple(i_seq)}")
        steps.append(Transposition(a, c[t]))
        for part in (c[s:t], c[:s] + c[t:]):
            holder.update(dict.fromkeys(part, part))
    return tuple(steps)


def park_by_walking(inp: ParkingInput) -> tuple[ParkingOutcome, tuple[CarTrace, ...]]:
    """Oracle for ``park`` and ``park_trace``: every car walks the circle
    one space at a time until it finds a free open space."""
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


def sorted_i_chains(n: int, k: int):
    """Every length-k step sequence whose i-entries never decrease."""
    prefix: list[Transposition] = []

    def extend(min_i: int):
        if len(prefix) == k:
            yield Chain(n, tuple(prefix))
            return
        for i in range(min_i, n):
            for j in range(i + 1, n + 1):
                prefix.append(Transposition(i, j))
                yield from extend(i)
                prefix.pop()

    yield from extend(1)


def apply_word(chain: Chain, word) -> Chain:
    for l in word:
        chain = apply_generator(chain, l)
    return chain


def act_by_bubbling(steps: tuple[Transposition, ...], keys) -> tuple[Transposition, ...]:
    """The un-sort as ``action._act`` once made it: repeated bubble passes over
    ``keys`` until nothing moves, one generator move per swap."""
    w = list(keys)
    changed = True
    while changed:
        changed = False
        for l in range(1, len(w)):
            if w[l - 1] > w[l]:
                w[l - 1], w[l] = w[l], w[l - 1]
                steps = _generator_move(steps, l)
                changed = True
    return steps


def adjacent_transposition(l: int, k: int) -> Permutation:
    images = list(range(1, k + 1))
    images[l - 1], images[l] = images[l], images[l - 1]
    return Permutation(tuple(images))


def perm_of_word(word, k: int) -> Permutation:
    """The position permutation whose action equals applying ``word`` in order."""
    p = Permutation.identity(k)
    for l in word:
        p = adjacent_transposition(l, k) * p
    return p


def act_on_sequence(p: Permutation, seq):
    """The natural action on sequences: slot x receives seq[p^-1(x)]."""
    inv = p.inverse()
    return tuple(seq[inv(x) - 1] for x in range(1, len(seq) + 1))


@st.composite
def permutations_st(draw, min_n: int = 1, max_n: int = 8) -> Permutation:
    n = draw(st.integers(min_n, max_n))
    return Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))


@st.composite
def parking_inputs_st(draw, min_n: int = 1, max_n: int = 12, max_k: int = 6) -> ParkingInput:
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(0, min(max_k, n - 1)))
    entries = tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    opens = draw(st.sets(st.integers(1, n), min_size=k + 1, max_size=k + 1))
    return ParkingInput(n, entries, frozenset(opens))


@st.composite
def pairs_st(draw, min_n: int = 1, max_n: int = 30) -> PairAB:
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(0, n - 1))
    a = tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    b = frozenset(draw(st.sets(st.integers(1, n), min_size=k + 1, max_size=k + 1)))
    return PairAB(n, a, b)


@st.composite
def reachable_blocks_st(draw, max_n: int = 14):
    """(n, a block set the walk over 1..n reaches with at least 2 steps still
    to go), its blocks in a drawn order."""
    n = draw(st.integers(3, max_n))
    blocks = (tuple(range(1, n + 1)),)
    for _ in range(draw(st.integers(0, n - 3))):
        blocks = split(blocks, *draw(st.sampled_from(block_pairs(blocks))))
    return n, tuple(draw(st.permutations(blocks)))
