import time
from collections import defaultdict

import pytest
from hypothesis import given
import hypothesis.strategies as st

from minfact import (
    Permutation,
    Transposition,
    below_long_cycle_geometric,
    multiply,
    precedes,
)
from minfact.perms import _noncrossing

from helpers import all_permutations, all_transpositions, permutations_st


def t(i, j, n):
    return Transposition(i, j).as_permutation(n)


class TestTransposition:
    def test_ordering_is_lexicographic(self):
        assert Transposition(1, 2) < Transposition(1, 3) < Transposition(2, 3)

    @pytest.mark.parametrize("i,j", [(2, 2), (3, 1), (0, 2), (-1, 4)])
    def test_rejects_unordered_pairs(self, i, j):
        with pytest.raises(ValueError):
            Transposition(i, j)

    def test_apply(self):
        s = Transposition(2, 5)
        assert (s.apply(2), s.apply(5), s.apply(3)) == (5, 2, 3)

    def test_as_permutation_range_check(self):
        with pytest.raises(ValueError):
            Transposition(1, 4).as_permutation(3)


class TestConstruction:
    def test_rejects_non_bijections(self):
        for bad in [(1, 1), (0, 1), (2, 3), (1, 2, 2)]:
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_empty_permutation_allowed(self):
        p = Permutation(())
        assert p.n == 0 and p.norm() == 0 and str(p) == "()"

    def test_long_cycle(self):
        assert Permutation.long_cycle(4).images == (2, 3, 4, 1)
        assert Permutation.long_cycle(1).is_identity()
        with pytest.raises(ValueError):
            Permutation.long_cycle(0)

    def test_call_range_check(self):
        with pytest.raises(ValueError):
            Permutation.identity(3)(4)


class TestMultiply:
    def test_right_factor_acts_first(self):
        # (1 2) * (2 3) sends 1 -> 2 -> 3 -> 1
        got = multiply(t(1, 2, 3), t(2, 3, 3))
        assert got.images == (2, 3, 1)

    def test_four_step_product(self):
        got = t(3, 8, 8) * t(5, 7, 8) * t(1, 8, 8) * t(3, 7, 8)
        assert got == Permutation.parse("(1 3 5 7 8)", 8)

    def test_identity_is_neutral(self):
        for p in all_permutations(4):
            assert multiply(Permutation.identity(4), p) == p
            assert multiply(p, Permutation.identity(4)) == p

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(Permutation.identity(3), Permutation.identity(4))

    @given(permutations_st(max_n=6), st.data())
    def test_associative_and_inverse(self, a, data):
        b = Permutation(tuple(data.draw(st.permutations(list(range(1, a.n + 1))))))
        c = Permutation(tuple(data.draw(st.permutations(list(range(1, a.n + 1))))))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == Permutation.identity(a.n)
        assert a.inverse() * a == Permutation.identity(a.n)


class TestCycleStructure:
    def test_cycle_count_identity(self):
        assert Permutation.identity(5).cycle_count() == 5

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_cycle_count_transposition(self, n):
        for s in all_transpositions(n):
            assert s.as_permutation(n).cycle_count() == n - 1

    def test_cycle_count_five_cycle(self):
        assert Permutation.parse("(1 3 5 7 8)", 8).cycle_count() == 4

    def test_norm_examples(self):
        assert Permutation.identity(6).norm() == 0
        assert Permutation.parse("(1 3 5 7 8)", 8).norm() == 4
        p = Permutation.parse("(1 2 3)", 3)
        assert p.norm() == p.inverse().norm() == 2

    @given(permutations_st())
    def test_norm_invariant_under_inverse(self, p):
        assert p.norm() == p.inverse().norm()

    @given(permutations_st(min_n=2), st.data())
    def test_transposition_changes_cycle_count_by_one(self, p, data):
        s = data.draw(st.sampled_from(all_transpositions(p.n)))
        assert abs((p * s.as_permutation(p.n)).cycle_count() - p.cycle_count()) == 1

    def test_cycle_of(self):
        assert Permutation.identity(4).cycle_of(3) == (3,)
        assert Permutation.parse("(1 3 5 7 8)", 8).cycle_of(5) == (5, 7, 8, 1, 3)
        assert Permutation.parse("(1 2)(3 4)", 4).cycle_of(4) == (4, 3)
        with pytest.raises(ValueError):
            Permutation.identity(4).cycle_of(5)

    def test_support(self):
        assert Permutation.parse("(1 3 5 7 8)", 8).support() == frozenset({1, 3, 5, 7, 8})
        assert Permutation.identity(5).support() == frozenset()


class TestPrecedes:
    def test_identity_below_everything(self):
        for p in all_permutations(4):
            assert precedes(Permutation.identity(4), p)

    def test_five_cycle_below_long_cycle(self):
        assert precedes(Permutation.parse("(1 3 5 7 8)", 8), Permutation.long_cycle(8))

    def test_crossing_pair_not_below(self):
        assert not precedes(Permutation.parse("(1 3)(2 4)", 4), Permutation.long_cycle(4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            precedes(Permutation.identity(3), Permutation.identity(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_is_partial_order(self, n):
        perms = all_permutations(n)
        below = {p: {q for q in perms if precedes(p, q)} for p in perms}
        for p in perms:
            assert p in below[p]
            for q in below[p]:
                # antisymmetry and transitivity
                if p != q:
                    assert p not in below[q]
                assert below[q].issubset(below[p])


class TestGeometricCharacterization:
    def test_examples(self):
        assert below_long_cycle_geometric(Permutation.parse("(1 3 5 7 8)", 8))
        assert not below_long_cycle_geometric(Permutation.parse("(1 3 2)", 3))
        assert not below_long_cycle_geometric(Permutation.parse("(1 3)(2 4)", 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_agrees_with_order_oracle(self, n):
        target = Permutation.long_cycle(n)
        for p in all_permutations(n):
            assert below_long_cycle_geometric(p) == precedes(p, target)

    def test_scan_of_the_moved_points_alone_agrees(self):
        # the premise of running the scan on a chain's support: a fixed point
        # opens no block and is handed none, so skipping it changes nothing
        perms = [p for n in range(1, 7) for p in all_permutations(n)]
        assert len(perms) == 873
        for p in perms:
            moved = [(x, y) for x, y in enumerate(p.images, start=1) if y != x]
            assert _noncrossing(moved, defaultdict(int)) == below_long_cycle_geometric(p)

    @given(st.data())
    def test_agrees_with_order_oracle_near_the_long_cycle(self, data):
        # random permutations of n <= 40 points almost never lie below the full
        # cycle: draw noncrossing blocks by splitting (1..n) as the DFS does,
        # read them as increasing cycles, and swap two images half the time
        n = data.draw(st.integers(1, 40))
        blocks = [tuple(range(1, n + 1))]
        for _ in range(data.draw(st.integers(0, n))):
            b = data.draw(st.sampled_from(blocks))
            if len(b) > 1:
                s, t = sorted(data.draw(st.sets(st.integers(0, len(b) - 1), min_size=2, max_size=2)))
                blocks.remove(b)
                blocks += [b[s:t], b[:s] + b[t:]]
        images = list(range(1, n + 1))
        for b in blocks:
            for x, y in zip(b, b[1:] + b[:1]):
                images[x - 1] = y
        if n > 1 and data.draw(st.booleans()):
            x, y = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2)))
            images[x], images[y] = images[y], images[x]
        p = Permutation(tuple(images))
        assert below_long_cycle_geometric(p) == precedes(p, Permutation.long_cycle(n))


class TestTextForm:
    def test_str_examples(self):
        assert str(Permutation.identity(4)) == "()"
        assert str(Permutation.parse("(1 3)(2 4)", 4)) == "(1 3)(2 4)"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        for p in all_permutations(n):
            assert Permutation.parse(str(p), n) == p

    def test_parse_accepts_whitespace_and_commas(self):
        p = Permutation.parse(" (1 3) (2,4) ", 4)
        assert p == Permutation.parse("(1 3)(2 4)", 4)

    def test_parse_overlapping_cycles_uses_product_convention(self):
        assert Permutation.parse("(1 2)(2 3)", 3).images == (2, 3, 1)

    @given(st.integers(1, 7), st.data())
    def test_from_cycles_is_the_product_of_its_cycles(self, n, data):
        # overlapping cycles multiply too, right factor first
        cycles = data.draw(st.lists(st.lists(st.integers(1, n), unique=True), max_size=4))
        expected = Permutation.identity(n)
        for cycle in cycles:
            images = list(range(1, n + 1))
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                images[x - 1] = y
            expected = expected * Permutation(tuple(images))
        assert Permutation.from_cycles(n, cycles) == expected

    @pytest.mark.parametrize(
        "cycles,message",
        [
            ([(1, 1), (5,)], "cycle entry 5 outside 1..3"),
            ([(5,), (1, 1)], "repeated element in cycle (1, 1)"),
            ([(2, 9, 2)], "repeated element in cycle (2, 9, 2)"),
            ([(1, 2), (3, 0, 7)], "cycle entry 0 outside 1..3"),
        ],
    )
    def test_from_cycles_checks_the_right_factor_first(self, cycles, message):
        with pytest.raises(ValueError) as exc:
            Permutation.from_cycles(3, cycles)
        assert str(exc.value) == message

    def test_from_cycles_is_linear(self):
        # one pass over each cycle's own points: 10^4 disjoint 2-cycles at
        # n = 20,000 took 4.9 s when all n images were rebuilt per cycle
        text = "".join(f"({x} {x + 1})" for x in range(1, 20_000, 2))
        start = time.perf_counter()
        p = Permutation.parse(text, 20_000)
        assert time.perf_counter() - start < 0.5
        assert p.images == tuple(x + 1 if x % 2 else x - 1 for x in range(1, 20_001))

    @pytest.mark.parametrize("bad", ["(1 2", "(1 9)", "(1 1)", "(a b)", "junk"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            Permutation.parse(bad, 3)
