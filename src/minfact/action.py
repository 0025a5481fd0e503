"""Action of the symmetric group of step positions on prefix chains.

The adjacent transposition of positions l, l+1 acts on a prefix chain by
doing nothing when the two steps share their smaller entry, and otherwise
by swapping the two steps and conjugating the one with the smaller i by the
other — a braid move that leaves the step product unchanged.  These moves
satisfy the Coxeter relations, so every permutation of positions acts the
same way through any decomposition into adjacent transpositions.
``apply_permutation`` therefore insertion-sorts the permutation's one-line
form and applies each swap's move as the sort makes it, keeping no word.

Projecting a chain to its i-sequence intertwines this action with the
natural action on sequences and preserves stabilizers, so each orbit
contains exactly one chain with a non-decreasing i-sequence; ``sort_chain``
computes it.
"""

from __future__ import annotations

from .chains import Chain, _require_member
from .perms import Permutation, Transposition

__all__ = [
    "projection",
    "braid_step",
    "apply_generator",
    "apply_permutation",
    "sort_chain",
]


def projection(c: Chain) -> tuple[int, ...]:
    """The sequence (i1, ..., ik) of smaller step entries."""
    return tuple(t.i for t in c.steps)


def _conjugated(t: Transposition, by: Transposition) -> Transposition:
    a, b = by.apply(t.i), by.apply(t.j)
    return Transposition(min(a, b), max(a, b))


def _braid(
    steps: tuple[Transposition, ...], l: int, inverse: bool
) -> tuple[Transposition, ...]:
    g, h = steps[l - 1], steps[l]
    pair = (_conjugated(h, by=g), g) if inverse else (h, _conjugated(g, by=h))
    return steps[: l - 1] + pair + steps[l + 1 :]


def _check_index(l: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"a chain of length {k} has no adjacent positions, got index {l}")
    if not 1 <= l <= k - 1:
        raise ValueError(f"generator index must lie in 1..{k - 1}, got {l}")


def braid_step(c: Chain, l: int, inverse: bool = False) -> Chain:
    """Replace (g_l, g_{l+1}) by (g_{l+1}, g_{l+1} g_l g_{l+1}), or by
    (g_l g_{l+1} g_l, g_l) when ``inverse``.  The step product is unchanged
    and membership is preserved."""
    _require_member(c)
    _check_index(l, len(c.steps))
    return Chain(c.n, _braid(c.steps, l, inverse))


def _generator_move(
    steps: tuple[Transposition, ...], l: int
) -> tuple[Transposition, ...]:
    if steps[l - 1].i == steps[l].i:
        return steps
    return _braid(steps, l, inverse=steps[l - 1].i > steps[l].i)


def apply_generator(c: Chain, l: int) -> Chain:
    """Act by the adjacent transposition of positions (l, l+1).

    Identity when the two steps share their smaller entry, forward braid
    move when i_l < i_{l+1}, inverse braid move when i_l > i_{l+1}.  The
    i-sequence of the result is that of ``c`` with slots l, l+1 swapped.
    """
    _require_member(c)
    _check_index(l, len(c.steps))
    return Chain(c.n, _generator_move(c.steps, l))


def apply_permutation(c: Chain, p: Permutation) -> Chain:
    """Act by an arbitrary permutation of the k step positions.

    The result is independent of the decomposition into adjacent
    transpositions, and its i-sequence is ``p`` acting on the i-sequence of
    ``c``.
    """
    if p.n != len(c.steps):
        raise ValueError(f"need a permutation of {len(c.steps)} positions, got size {p.n}")
    _require_member(c)
    return Chain(c.n, _act(c.steps, p.images))


def _act(steps: tuple[Transposition, ...], keys: tuple[int, ...]) -> tuple[Transposition, ...]:
    # insertion-sort ``keys`` by adjacent swaps, one generator move per swap: with
    # keys p.images, p times the swaps' adjacent transpositions, in the order
    # made, is the identity.  Equal keys never swap, so the i-sequence sorts stably.
    w = list(keys)
    for m in range(1, len(w)):
        l = m
        while l and w[l - 1] > w[l]:
            w[l - 1], w[l] = w[l], w[l - 1]
            steps = _generator_move(steps, l)
            l -= 1
    return steps


def sort_chain(c: Chain) -> tuple[Permutation, Chain]:
    """The stable sorting permutation ``p`` and the canonical orbit
    representative ``apply_permutation(c, p)``, whose i-sequence is the
    sorted i-sequence of ``c``.  Ties keep their original relative order."""
    order = sorted(range(len(c)), key=lambda t: c.steps[t].i)  # slots by i, ties in slot order
    # each slot to its rank: the ranks, sorted by the slot each one holds
    p = Permutation(tuple(sorted(range(1, len(c) + 1), key=lambda rank: order[rank - 1])))
    return p, apply_permutation(c, p)
