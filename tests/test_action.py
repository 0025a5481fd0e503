import random
from collections import deque

import pytest
from hypothesis import given

from minfact import action
from minfact import (
    Chain,
    Permutation,
    apply_generator,
    apply_permutation,
    braid_step,
    gamma,
    intermediate,
    projection,
    sort_chain,
    validate,
)

from helpers import (
    act_by_bubbling,
    act_on_sequence,
    all_permutations,
    apply_word,
    pairs_st,
    perm_of_word,
    sigma,
    sigma_all,
)

WORKED = Chain.parse("(3 8)(5 7)(1 8)(3 7)", 8)
SORTED_WORKED = Chain.from_pairs(8, [(1, 3), (3, 8), (3, 5), (5, 7)])


class TestProjection:
    def test_examples(self):
        assert projection(WORKED) == (3, 5, 1, 3)
        assert projection(SORTED_WORKED) == (1, 3, 3, 5)
        assert projection(Chain(5, ())) == ()


class TestBraidStep:
    def test_forward(self):
        c = Chain.from_pairs(3, [(1, 2), (2, 3)])
        assert braid_step(c, 1) == Chain.from_pairs(3, [(2, 3), (1, 3)])

    def test_inverse_undoes_forward(self):
        c = Chain.from_pairs(3, [(2, 3), (1, 3)])
        assert braid_step(c, 1, inverse=True) == Chain.from_pairs(3, [(1, 2), (2, 3)])

    def test_single_step_chain_has_no_generator(self):
        with pytest.raises(ValueError, match="^a chain of length 1 has no adjacent positions"):
            braid_step(Chain.from_pairs(2, [(1, 2)]), 1)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            braid_step(Chain.from_pairs(4, [(1, 3), (2, 4)]), 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_preserves_product_and_membership(self, n):
        for c in sigma_all(n):
            for l in range(1, len(c)):
                for inverse in (False, True):
                    d = braid_step(c, l, inverse)
                    assert validate(d).is_member
                    assert intermediate(d, len(d)) == intermediate(c, len(c))

    @pytest.mark.parametrize("n", [3, 4])
    def test_forward_and_inverse_are_two_sided_inverses(self, n):
        for c in sigma_all(n):
            for l in range(1, len(c)):
                assert braid_step(braid_step(c, l), l, inverse=True) == c
                assert braid_step(braid_step(c, l, inverse=True), l) == c

    @pytest.mark.parametrize("n", [3, 4])
    def test_underlying_braid_relation(self, n):
        # beta_l beta_{l+1} beta_l = beta_{l+1} beta_l beta_{l+1} on raw moves
        for c in sigma_all(n):
            for l in range(1, len(c) - 1):
                left = braid_step(braid_step(braid_step(c, l), l + 1), l)
                right = braid_step(braid_step(braid_step(c, l + 1), l), l + 1)
                assert left == right


class TestApplyGenerator:
    def test_fixed_when_smaller_entries_equal(self):
        c = Chain.from_pairs(3, [(1, 3), (1, 2)])
        assert apply_generator(c, 1) == c

    def test_forward_case(self):
        c = Chain.from_pairs(3, [(1, 2), (2, 3)])
        assert apply_generator(c, 1) == Chain.from_pairs(3, [(2, 3), (1, 3)])

    def test_inverse_case(self):
        c = Chain.from_pairs(3, [(2, 3), (1, 3)])
        assert apply_generator(c, 1) == Chain.from_pairs(3, [(1, 2), (2, 3)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_generator(WORKED, 4)
        with pytest.raises(ValueError):
            apply_generator(WORKED, 0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_transposes_i_sequence(self, n):
        for c in sigma_all(n):
            seq = projection(c)
            for l in range(1, len(c)):
                expected = list(seq)
                expected[l - 1], expected[l] = expected[l], expected[l - 1]
                assert projection(apply_generator(c, l)) == tuple(expected)


class TestApplyPermutation:
    def test_worked_example(self):
        p = Permutation.parse("(1 3)(2 4)", 4)
        assert apply_permutation(SORTED_WORKED, p) == WORKED

    def test_worked_example_generator_sweep(self):
        # the same permutation as the generator word s2, s3, s1, s2
        x = apply_generator(SORTED_WORKED, 2)
        assert x == SORTED_WORKED
        x = apply_generator(x, 3)
        assert x == Chain.from_pairs(8, [(1, 3), (3, 8), (5, 7), (3, 7)])
        x = apply_generator(x, 1)
        assert x == Chain.from_pairs(8, [(3, 8), (1, 8), (5, 7), (3, 7)])
        x = apply_generator(x, 2)
        assert x == WORKED

    def test_identity_fixes(self):
        assert apply_permutation(WORKED, Permutation.identity(4)) == WORKED

    def test_stabilized_chain(self):
        c = Chain.from_pairs(3, [(1, 3), (1, 2)])
        assert apply_permutation(c, Permutation.parse("(1 2)", 2)) == c

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_permutation(WORKED, Permutation.identity(3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_group_action_properties(self, n):
        for c in sigma_all(n):
            k = len(c)
            prod = intermediate(c, k)
            seq = projection(c)
            for p in all_permutations(k):
                d = apply_permutation(c, p)
                assert validate(d).is_member
                assert intermediate(d, k) == prod
                assert projection(d) == act_on_sequence(p, seq)
                # stabilizer preservation, both directions
                assert (act_on_sequence(p, seq) == seq) == (d == c)

    @pytest.mark.parametrize("n", [3, 4])
    def test_action_is_compatible_with_composition(self, n):
        for c in sigma_all(n):
            k = len(c)
            for p in all_permutations(k):
                for q in all_permutations(k):
                    assert apply_permutation(c, p * q) == apply_permutation(
                        apply_permutation(c, q), p
                    )

    def test_random_words_and_their_permutations_agree(self):
        rng = random.Random(1724)
        members = sigma(5, 4) + sigma(5, 3)
        for _ in range(150):
            c = rng.choice(members)
            k = len(c)
            word = [rng.randint(1, k - 1) for _ in range(rng.randint(0, 10))]
            assert apply_word(c, word) == apply_permutation(c, perm_of_word(word, k))

    def test_one_generator_move_per_inversion(self, monkeypatch):
        # the un-sort applies a reduced word, inv(p) moves, which is what the
        # benchmark's action.braid_moves counts
        moves = []
        real = action._generator_move

        def counting(steps, l):
            moves.append(l)
            return real(steps, l)

        monkeypatch.setattr(action, "_generator_move", counting)
        rng = random.Random(3114)
        for n in range(1, 7):
            for c in sigma_all(n):
                images = list(range(1, len(c) + 1))
                rng.shuffle(images)
                moves.clear()
                apply_permutation(c, Permutation(tuple(images)))
                pairs = [(x, y) for s, x in enumerate(images) for y in images[s + 1:]]
                assert len(moves) == sum(x > y for x, y in pairs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_un_sort_equals_the_bubble_sort_oracle(self, n, monkeypatch):
        # the insertion sort against the bubble passes it replaced, on the keys
        # section sorts by (the i-sequence, ties included) and on shuffled
        # positions as apply_permutation passes them; equal keys never swap, so
        # the moves number the strict inversions of the keys
        moves = []
        real = action._generator_move

        def counting(steps, l):
            moves.append(l)
            return real(steps, l)

        monkeypatch.setattr(action, "_generator_move", counting)
        rng = random.Random(2705)
        for c in sigma_all(n):
            keyings = [projection(c)]
            for _ in range(3):
                positions = list(range(1, len(c) + 1))
                rng.shuffle(positions)
                keyings.append(tuple(positions))
            for keys in keyings:
                moves.clear()
                assert action._act(c.steps, keys) == act_by_bubbling(c.steps, keys)
                pairs = [(x, y) for s, x in enumerate(keys) for y in keys[s + 1:]]
                assert len(moves) == sum(x > y for x, y in pairs)


class TestCoxeterRelations:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generators_are_involutions(self, n):
        for c in sigma_all(n):
            for l in range(1, len(c)):
                assert apply_generator(apply_generator(c, l), l) == c

    @pytest.mark.parametrize("n", [4, 5])
    def test_distant_generators_commute(self, n):
        for c in sigma_all(n):
            k = len(c)
            for l in range(1, k):
                for m in range(l + 2, k):
                    assert apply_word(c, [l, m]) == apply_word(c, [m, l])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_braid_relation_has_order_three(self, n):
        for c in sigma_all(n):
            for l in range(1, len(c) - 1):
                assert apply_word(c, [l + 1, l] * 3) == c


class TestOrbits:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_orbit_has_one_sorted_chain_and_injective_projection(self, n):
        for k in range(n):
            seen = set()
            for c in sigma(n, k):
                if c in seen:
                    continue
                orbit = {c}
                queue = deque([c])
                while queue:
                    d = queue.popleft()
                    for l in range(1, k):
                        e = apply_generator(d, l)
                        if e not in orbit:
                            orbit.add(e)
                            queue.append(e)
                seen |= orbit
                sorted_members = [d for d in orbit if validate(d).is_nondecreasing]
                assert len(sorted_members) == 1
                projections = {projection(d) for d in orbit}
                assert len(projections) == len(orbit)


class TestSortChain:
    def test_worked_example(self):
        p, d = sort_chain(WORKED)
        assert d == SORTED_WORKED
        assert apply_permutation(WORKED, p) == d

    def test_sorted_chain_is_fixed(self):
        p, d = sort_chain(SORTED_WORKED)
        assert p == Permutation.identity(4)
        assert d == SORTED_WORKED

    def test_two_step_example(self):
        p, d = sort_chain(Chain.from_pairs(3, [(2, 3), (1, 3)]))
        assert p == Permutation.parse("(1 2)", 2)
        assert d == Chain.from_pairs(3, [(1, 2), (2, 3)])

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="requires a prefix chain"):
            sort_chain(Chain.parse("(1 3)(2 4)", 4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_result_is_sorted_member(self, n):
        for c in sigma_all(n):
            p, d = sort_chain(c)
            assert validate(d).is_nondecreasing
            assert apply_permutation(c, p) == d
            assert projection(d) == tuple(sorted(projection(c)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ranks_are_the_inverse_of_the_stable_order(self, n):
        # sort_chain builds the ranks directly; the old expression inverted
        # the stable order as a second Permutation
        for c in sigma_all(n):
            order = sorted(range(1, len(c) + 1), key=lambda t: c.steps[t - 1].i)
            assert sort_chain(c)[0] == Permutation(tuple(order)).inverse()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_un_sort_by_i_sequence_is_the_stable_sort(self, n):
        # the one un-sort, keyed by the i-sequence, against apply_permutation
        # by the stable sorting permutation
        for c in sigma_all(n):
            assert action._act(c.steps, projection(c)) == sort_chain(c)[1].steps

    @given(pairs_st(max_n=30))
    def test_un_sort_by_i_sequence_is_the_stable_sort_on_random_pairs(self, pair):
        c = gamma(pair)
        assert action._act(c.steps, projection(c)) == sort_chain(c)[1].steps
