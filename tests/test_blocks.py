"""Shadow tests of the block kernel and the rebuild rule in ``helpers``
against the membership check and the braid-move un-sort they are to replace."""

import random
import time
from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from minfact import (
    Chain,
    PairAB,
    ParkingInput,
    Transposition,
    apply_permutation,
    park,
    projection,
    validate,
)
from minfact.surjection import _gamma_normalized

from helpers import (
    act_on_sequence,
    all_permutations,
    all_transpositions,
    block_pairs,
    blocks_of,
    is_member,
    rebuild,
    sigma_all,
    split,
)


class TestBlocksOf:
    def test_worked_chain(self):
        steps = Chain.parse("(3 8)(5 7)(1 8)(3 7)", 8).steps
        assert blocks_of(steps) == ((1, 3, 5, 7, 8),)
        assert blocks_of(Chain.parse("(1 3)(2 4)", 4).steps) is None
        assert blocks_of(()) == ()

    def test_membership_on_every_short_chain(self):
        # members and non-members alike: 12,793 chains
        seen = 0
        for n in range(1, 6):
            for k in range(5):
                for steps in product(all_transpositions(n), repeat=k):
                    assert is_member(steps) == validate(Chain(n, steps)).is_member, steps
                    seen += 1
        assert seen == 12_793

    @given(st.data())
    def test_membership_on_drawn_chains(self, data):
        # a random chain is almost never a member: walk member steps, the pairs
        # inside the blocks still to go, and put a random step in half the time
        n = data.draw(st.integers(1, 12))
        blocks, steps = (tuple(range(1, n + 1)),), []
        for _ in range(data.draw(st.integers(0, n - 1))):
            i, j = data.draw(st.sampled_from(block_pairs(blocks)))
            blocks = split(blocks, i, j)
            steps.append(Transposition(i, j))
        if n > 1 and data.draw(st.booleans()):
            extra = data.draw(st.sampled_from(all_transpositions(n)))
            steps.insert(data.draw(st.integers(0, len(steps))), extra)
        c = Chain(n, tuple(steps))
        assert is_member(c.steps) == validate(c).is_member

    def test_no_work_grows_with_n(self):
        n = 10**9
        start = time.perf_counter()
        assert blocks_of((Transposition(1, 2), Transposition(2, n))) == ((1, 2, n),)
        assert blocks_of((Transposition(1, n), Transposition(2, n))) is None
        assert time.perf_counter() - start < 0.01


class TestRebuild:
    def test_every_member_from_its_blocks_and_i_sequence(self):
        seen = 0
        for n in range(1, 8):
            for c in sigma_all(n):
                assert rebuild(blocks_of(c.steps), projection(c)) == c.steps, c
                seen += 1
        assert seen == 46_427

    def test_equals_the_braid_move_action(self):
        # apply_permutation's i-sequence is p acting on c's: slot l's i goes to slot p(l)
        seen = 0
        for n in range(1, 6):
            for c in sigma_all(n):
                blocks, a = blocks_of(c.steps), projection(c)
                for p in all_permutations(len(c)):
                    assert rebuild(blocks, act_on_sequence(p, a)) == apply_permutation(c, p).steps
                    seen += 1
        assert seen == 4_009

    def test_is_gammas_tail(self):
        # park the sorted entries, take the sorted chain's blocks, rebuild with A
        rng = random.Random(2002)
        for q in range(300):
            n = (5, 9, 50, 80)[q % 4]
            k = rng.randrange(n)
            drawn = PairAB(n, [rng.randint(1, n) for _ in range(k)], rng.sample(range(1, n + 1), k + 1))
            pair = drawn.normalized()[0]
            entries = tuple(sorted(pair.a))
            taken = park(ParkingInput(n, entries, pair.b)).spaces
            blocks = blocks_of(tuple(map(Transposition, entries, taken)))
            assert rebuild(blocks, pair.a) == _gamma_normalized(pair.a, pair.b), pair

    @pytest.mark.parametrize(
        "blocks,i_seq", [(((1, 2, 3),), (3, 1)), (((1, 2),), (1, 1)), ((), (1,))]
    )
    def test_raises_when_no_member_fits(self, blocks, i_seq):
        with pytest.raises(ValueError, match="no member has blocks"):
            rebuild(blocks, i_seq)
