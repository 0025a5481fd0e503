import hashlib
import time
import tracemalloc
from collections import Counter
from itertools import islice, zip_longest
from math import comb

import pytest
from hypothesis import given

from minfact import chains
from minfact import (
    CapExceeded,
    Chain,
    Permutation,
    Transposition,
    check_sorted_criterion,
    count_formula,
    enumerate_sigma,
    intermediate,
    involute,
    iter_sigma,
    support,
    validate,
)
from minfact.cli import run

from helpers import (
    brute_sigma,
    completions,
    rank_lex,
    reachable_blocks,
    reachable_blocks_st,
    sigma,
    sigma_all,
    sorted_i_chains,
    two_steps_by_children,
    unrank_lex,
    walk_suffixes,
)

WORKED = Chain.parse("(3 8)(5 7)(1 8)(3 7)", 8)


class TestChainType:
    def test_parse_and_str_round_trip(self):
        assert str(WORKED) == "(3 8)(5 7)(1 8)(3 7)"
        assert Chain.parse(str(WORKED), 8) == WORKED
        assert Chain.parse("", 5) == Chain(5, ())
        assert Chain.parse("()", 5) == Chain(5, ())

    def test_json_round_trip(self):
        data = WORKED.to_json()
        assert data == {"n": 8, "steps": [[3, 8], [5, 7], [1, 8], [3, 7]]}
        assert Chain.from_json(data) == WORKED

    def test_iterates_over_its_steps(self):
        assert list(WORKED) == list(WORKED.steps)
        assert len(WORKED) == 4
        assert list(Chain(3, ())) == []

    def test_rejects_steps_outside_ground_set(self):
        with pytest.raises(ValueError):
            Chain.from_pairs(3, [(1, 4)])
        with pytest.raises(ValueError):
            Chain(0, ())

    def test_parse_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            Chain.parse("(1 2 3)", 4)
        with pytest.raises(ValueError):
            Chain.parse("(2 1)", 4)


class TestIntermediate:
    def test_zero_prefix_is_identity(self):
        assert intermediate(WORKED, 0).is_identity()

    def test_full_worked_product(self):
        assert intermediate(WORKED, 4) == Permutation.parse("(1 3 5 7 8)", 8)

    def test_single_step(self):
        c = Chain.from_pairs(2, [(1, 2)])
        assert intermediate(c, 1) == Permutation.parse("(1 2)", 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            intermediate(WORKED, 5)
        with pytest.raises(ValueError):
            intermediate(WORKED, -1)


class TestValidate:
    def test_empty_chain_is_member(self):
        for n in (1, 4):
            report = validate(Chain(n, ()))
            assert report.is_member and report.is_nondecreasing

    def test_worked_chain(self):
        report = validate(WORKED)
        assert report.is_member
        assert report.is_geodesic and report.is_below
        assert not report.is_nondecreasing

    def test_repeated_step_not_geodesic(self):
        report = validate(Chain.from_pairs(3, [(1, 2), (1, 2)]))
        assert not report.is_geodesic
        assert not report.is_member

    def test_member_requires_both_conditions(self):
        # norm 2 but the product (1 3 2) is not below the full cycle
        report = validate(Chain.from_pairs(3, [(1, 2), (1, 3)]))
        assert report.is_geodesic
        assert not report.is_below
        assert not report.is_member


class TestEnumerate:
    def test_k1_is_all_transpositions(self):
        assert [str(c) for c in sigma(3, 1)] == ["(1 2)", "(1 3)", "(2 3)"]

    def test_small_counts(self):
        assert len(sigma(4, 3)) == 16
        assert len(sigma(5, 2)) == 50
        assert sigma(1, 0) == (Chain(1, ()),)
        assert sigma(3, 3) == ()
        assert sigma(2, 5) == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_formula(self, n):
        for k in range(n + 1):
            assert len(sigma(n, k)) == count_formula(n, k)

    def test_lexicographic_and_distinct(self):
        chains = sigma(6, 3)
        keys = [c.steps for c in chains]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n,max_k", [(2, 2), (3, 3), (4, 4), (5, 3), (6, 4), (7, 3)])
    def test_shadow_against_brute_force(self, n, max_k):
        # the optimized DFS check must agree with filtering by validate
        for k in range(max_k + 1):
            assert enumerate_sigma(n, k) == brute_sigma(n, k)

    @pytest.mark.parametrize(
        "n,k,digest",
        [
            (7, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (7, 1, "887aeb8d07462e52aaac66a6a9d68c39dd2e1b4b7d653938ebaf4a532420490b"),
            (7, 2, "cfb4b94480c02351f0aac4a0befb64a723b42f92be256abd697ae5c05a8b3970"),
            (7, 3, "f74dd2ea98e3f525596be6a8018e097e851213fb25624445b60b9fe1eab5d47b"),
            (7, 4, "f37a85bef7c5453807e109da1df5f1ec54b636a230bf7a88667575f12990a071"),
            (7, 5, "c282f814b7c87572e262e8a9428afba5d58822bda59fe764fcba7bbcb8e0f415"),
            (7, 6, "fe3e5fb2f95cc68b4f905dedb4b8b854827b69cff78877a66010907122c6cc53"),
            (7, 7, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (8, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (8, 1, "87e2ff7058c9e486f1243962ec555232e7c9c3d781c61e26748dd11d27888cb5"),
            (8, 2, "8e27206939c3ed5f346fa8625bdab52598b97ab1fe0ca480ee9f96bdd167010f"),
            (8, 3, "d41dae7916484033610c2bec89f0de59ef97cfa57f4e6b7409cb9cca76641e33"),
            (8, 4, "1c4354c910b70047dd9a604ac0b8a646812527add05fe180212a389ed127eee9"),
            # the deepest walk at n = 8: every leaf-parent has one leaf
            (8, 7, "157adbda58ec11f1c13246e33a5c5af2738d00d4c899455e6d9beca7d5c4bf0e"),
        ],
    )
    def test_order_pinned_beyond_brute_force(self, n, k, digest):
        # the lexicographic order where brute force does not reach (it stops
        # at n = 7, k = 3)
        text = "\n".join(map(str, iter_sigma(n, k)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_cap_guard(self):
        with pytest.raises(CapExceeded):
            enumerate_sigma(8, 4, cap=1000)
        # a cap equal to the count is not exceeded
        assert len(enumerate_sigma(3, 1, cap=3)) == 3

    def test_k_at_least_n_returns_at_once(self):
        start = time.perf_counter()
        assert enumerate_sigma(8, 8) == []
        assert time.perf_counter() - start < 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_sigma(0, 1)
        with pytest.raises(ValueError):
            enumerate_sigma(3, -1)

    def test_iter_sigma_checks_when_called(self):
        # a generator function would raise only on the first next()
        with pytest.raises(CapExceeded):
            iter_sigma(8, 4, cap=1000)
        with pytest.raises(ValueError):
            iter_sigma(0, 1)

    def test_iter_sigma_streams(self):
        start = time.perf_counter()
        first = next(iter_sigma(10, 6, cap=10**8))
        assert time.perf_counter() - start < 0.5
        assert str(first) == "(1 2)(2 3)(3 4)(4 5)(5 6)(6 7)"
        assert list(iter_sigma(5, 3)) == list(sigma(5, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_prefixes_of_members_are_members(self, n):
        tables = {k: set(sigma(n, k)) for k in range(n)}
        for k in range(1, n):
            for c in tables[k]:
                assert Chain(n, c.steps[:-1]) in tables[k - 1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_prefixes_validate_as_members(self, n):
        for c in sigma_all(n):
            for l in range(len(c) + 1):
                assert validate(Chain(n, c.steps[:l])).is_member

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_members_are_exactly_prefixes_of_minimal_factorizations(self, n):
        # independent description of the same sets: truncating the
        # factorizations of the full cycle into n - 1 transpositions yields
        # every k-prefix, and nothing else
        factorizations = sigma(n, n - 1)
        for k in range(n):
            truncated = {Chain(n, c.steps[:k]) for c in factorizations}
            assert truncated == set(sigma(n, k))


def _enumerated(capsys, n, k, fmt):
    assert run(["enumerate", "-n", str(n), "-k", str(k), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _level(n, k, r):
    # the walk's estimate of the suffixes r steps short of k: the block sets at
    # depth k - r, a Narayana number, times the mean completions, rounded up
    return comb(n, k - r + 1) * comb(n, k - r) // n * -(-count_formula(n, k) // count_formula(n, k - r))


def _same(chains, expected):
    # compared in step, so that neither list is held
    return all(c == d for c, d in zip_longest(chains, expected))


class TestLeafMemo:
    # The memo of suffixes by block set is a cache: a walk with no room for it
    # streams every leaf-parent, one with a little room keeps a few block sets,
    # and one with half the room its level needs keeps about half of that
    # level and builds the other entries again each time their set recurs.
    # All must give what the default budget gives.

    @pytest.mark.parametrize("n", range(1, 9))
    def test_budget_changes_nothing(self, n, monkeypatch, capsys):
        # for n < 8 the lines equal the Chain folds by
        # test_cli.py::TestEnumerate::test_lines_match_the_chains
        for k in range(n + 1):
            lines = [_enumerated(capsys, n, k, fmt) for fmt in ("text", "json")]
            level = chains._memo_level(n, k)
            half = _level(n, k, level) // 2 if 3 <= k < n else 0
            for budget, fixed in ((0, False), (40, False), (half, True)):
                memo = iter_sigma(n, k)  # made under the default budget
                monkeypatch.setattr(chains, "_MEMO_PAIRS", budget)
                if fixed:  # keep the level the default budget chooses
                    monkeypatch.setattr(chains, "_memo_level", lambda n, k: level)
                assert [_enumerated(capsys, n, k, fmt) for fmt in ("text", "json")] == lines, (k, budget)
                assert _same(iter_sigma(n, k), memo), (k, budget)
                if comb(n, 2) ** k <= 20_000:
                    assert list(iter_sigma(n, k)) == brute_sigma(n, k), (k, budget)
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "n,k,level",
        [
            (9, 5, 2), (8, 7, 4), (9, 8, 3), (6, 5, 3), (10, 5, 2), (14, 4, 2),
            (16, 3, 2), (9, 3, 2), (9, 2, 2), (26, 2, 1), (9, 1, 1),
        ],
    )
    def test_level_from_the_closed_forms(self, n, k, level):
        # the deepest level in 2..k-2 whose estimated suffixes fit the budget:
        # (9, 5) keeps 2 steps, estimated at 63,504 suffixes, as 3 would need
        # 244,944.  Where none fits, as at k <= 3, the level is 2 if the largest
        # 2-step entry, one block of n - k + 2 points, fits the budget: 25 * 2,300
        # suffixes at (25, 2), but 26 * 2,600 at (26, 2), whose leaf-parents stream
        budget = chains._MEMO_PAIRS
        assert chains._memo_level(n, k) == level
        assert all(_level(n, k, r) > budget for r in range(level + 1, k - 1))
        if level <= k - 2 and _level(n, k, level) <= budget:
            return
        assert all(_level(n, k, r) > budget for r in range(2, k - 1))
        assert (level == 2) == (k >= 2 and count_formula(n - k + 2, 2) <= budget)

    def test_level_climbs_to_what_a_full_scan_picks(self, monkeypatch):
        # the climb stops at the first level whose estimate misses, as the
        # estimate never falls as r grows; so it picks what a scan of every r
        # in 2..k-2 picks, with its fallback to 2, or 1, where none fits
        def scanned(n, k, budget):
            fits = [r for r in range(2, k - 1) if _level(n, k, r) <= budget]
            return max(fits, default=2 if k >= 2 and count_formula(n - k + 2, 2) <= budget else 1)

        for budget in (0, 40, 1 << 14, 1 << 16, 1 << 17, 1 << 20):
            monkeypatch.setattr(chains, "_MEMO_PAIRS", budget)
            for n in range(1, 80):
                for k in range(n + 1):
                    assert chains._memo_level(n, k) == scanned(n, k, budget), (n, k, budget)

    @pytest.mark.parametrize("n,k,level", [(4000, 2000, 1), (20000, 10000, 1), (20000, 19990, 2)])
    def test_level_is_cheap_at_any_size(self, n, k, level):
        # a scan of every level evaluates O(k) big estimates, seconds' worth at
        # (4000, 2000); the climb needs one small count where the largest 2-step
        # entry misses, and at (20000, 19990), whose entry of 12 points fits,
        # one estimate, of level 3
        start = time.perf_counter()
        assert chains._memo_level(n, k) == level
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n", range(3, 10))
    def test_largest_two_step_entry_is_one_block(self, n):
        # what the fallback to level 2 sizes: of the sets d = k - 2 steps from
        # the root, the one block of n - d points has the most 2-step suffixes
        for d in range(n - 2):
            assert max(completions(blocks, 2) for blocks in reachable_blocks(n, d)) == count_formula(n - d, 2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_completions_count_the_suffixes(self, n):
        # the chains of length k that extend a chain of length d, counted from
        # the walk, against the closed form on the blocks of what is left of
        # the full cycle
        for k in range(2, n):
            for d in range(1, k):
                below = Counter(Chain(n, c.steps[:d]) for c in iter_sigma(n, k))
                for c, count in below.items():
                    phi = intermediate(c, d).inverse() * Permutation.long_cycle(n)
                    blocks = tuple(cycle for cycle in phi.cycles() if len(cycle) > 1)
                    assert completions(blocks, k - d) == count, (c, k)

    def test_refused_entries_are_built_not_walked_under(self, monkeypatch):
        # at a budget of 2^17, (8, 7) keeps 5 steps, and more than fits: the
        # entries that find no room are built again, so no chain grown from the
        # root "R" passes k - 5 = 2 steps (the heads that suffixes grows start
        # from "", and are not counted)
        def lines(depths):
            def grow(acc, i, j):
                if acc.startswith("R"):
                    depths.add(acc.count("(") + 1)
                return f"{acc}({i} {j})"

            batches = chains._walk(8, 7, 10**6, "R", grow, "({} {})".format)
            return (acc + line for acc, tail in batches for line in tail.split("\n"))

        expected = lines(set())
        monkeypatch.setattr(chains, "_MEMO_PAIRS", 1 << 17)
        assert chains._memo_level(8, 7) == 5
        depths = set()
        assert _same(lines(depths), expected)
        assert max(depths) == 2

    def test_batches_hold_at_most_the_budget(self, monkeypatch):
        # the README's bound on a batch of output lines: an entry holds at
        # most its level's suffixes, or, at a fallback to 2, the largest 2-step
        # entry's, and a streamed row is cut to the budget.  (16, 3), (12, 4)
        # and (25, 2) fall back to 2, and add about 0.8 s to this test
        def largest(n, k):
            batches = chains._walk(n, k, 10**7, (), lambda acc, i, j: (*acc, (i, j)), lambda i, j: (i, j))
            return max((len(flat) // (k - len(acc)) for acc, flat in batches), default=0)

        assert all(largest(n, k) <= chains._MEMO_PAIRS for n in range(1, 9) for k in range(n + 1))
        assert all(largest(n, k) <= chains._MEMO_PAIRS for n, k in ((16, 3), (12, 4), (25, 2)))
        monkeypatch.setattr(chains, "_MEMO_PAIRS", 1 << 17)
        assert largest(8, 7) <= chains._MEMO_PAIRS

    def test_memo_stays_within_its_budget(self, monkeypatch):
        # at (11, 4) the 1,815 chains of two steps take the 2-step entries of
        # their 825 block sets, 614,922 suffixes in all, and the memo may keep
        # 1 << 16 of them.  This grow makes no heads, so a kept suffix is one
        # 8-byte slot, its shared leaf, which the memo counts as half a suffix:
        # 1 MiB for 1 << 17 slots, and less than 1.5 MiB with the entry being
        # built.  (16, 3) would show nothing: its sets, one step from the root,
        # are never kept
        def peak() -> int:
            tracemalloc.start()
            try:
                for _ in chains._walk(11, 4, 10**6, (), lambda acc, i, j: acc, lambda i, j: (i, j)):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert chains._MEMO_PAIRS == 1 << 16
        bounded = peak()
        monkeypatch.setattr(chains, "_MEMO_PAIRS", 1 << 30)
        unbounded = peak()
        assert bounded < 24 * (1 << 16) < unbounded, (bounded, unbounded)

    @pytest.mark.parametrize("fold", ["text", "json", "chain"])
    def test_no_kept_value_is_a_row(self, fold):
        # every value the memo keeps holds the r = k - d step suffixes of a block
        # set d steps from the root, whose blocks hold n - 1 - d steps.  r is at
        # least 2, as a leaf-parent's row of leaves streams, and so is d, as each
        # chain of 0 or 1 steps has a block set of its own, never met again: so
        # (16, 3) and (25, 2), keyed 1 and 0 steps from the root, keep nothing
        for n in range(1, 9):
            for k in range(1, n):
                for blocks, kept in _walked_memo(n, k, fold).items():
                    d = n - 1 - sum(len(b) - 1 for b in blocks)
                    r = k - d
                    suffixes = completions(blocks, r)
                    assert d >= 2 and r >= 2, (n, k, blocks)
                    if fold == "chain":
                        assert len(kept) == r * suffixes, (n, k, blocks)
                    else:
                        steps = kept.count("(" if fold == "text" else "[")
                        assert kept.count("\n") + 1 == suffixes and steps == r * suffixes, (n, k, blocks)
        assert _walked_memo(16, 3, fold) == _walked_memo(25, 2, fold) == {}

    def test_streamed_chains_keep_nothing(self):
        # at k = 2 every leaf-parent streams: iter_sigma(3000, 2) must not keep
        # a Transposition per step it has made (50,000 would be about 10 MiB)
        tracemalloc.start()
        try:
            for _ in islice(iter_sigma(3000, 2, cap=10**15), 50_000):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


# the walk's three folds as (root, grow, leaf): CLI text, CLI JSON and iter_sigma's
_FOLDS = {
    "text": ("", lambda acc, i, j: f"{acc}({i} {j})", "({} {})".format),
    "json": ('{"n": 9, "steps": [', lambda acc, i, j: f"{acc}[{i}, {j}], ", "[{}, {}]]}}".format),
    "chain": ((), lambda steps, i, j: (*steps, Transposition(i, j)), Transposition),
}


def _walked_memo(n, k, fold):
    # the memo of a walk over 1..n in this fold, from the ``memo`` cell of the
    # ``recall`` that its generator holds, once the walk is exhausted
    batches = chains._walk(n, k, 10**6, *_FOLDS[fold])
    recall = batches.gi_frame.f_locals["recall"]
    memo = recall.__closure__[recall.__code__.co_freevars.index("memo")].cell_contents
    for _ in batches:
        pass
    return memo


class TestTwoStepEntries:
    # The walk cuts a 2-step entry from its block set's own pairs: each pair is
    # a head and keeps the pairs that do not cross it.  That must give what the
    # entry built child by child gives, in every fold and for blocks in any
    # order, on every set a walk builds a 2-step entry for: those k - 2 steps
    # from the root, at least 2 steps short of the full cycle.

    @pytest.mark.parametrize("fold", _FOLDS)
    def test_every_set_a_walk_meets(self, fold):
        for n in range(3, 9):
            suffixes = walk_suffixes(n, *_FOLDS[fold])
            for d in range(n - 2):  # d = k - 2 for k in 2..n-1
                for blocks in reachable_blocks(n, d):
                    assert suffixes(blocks, 2) == two_steps_by_children(blocks, *_FOLDS[fold]), blocks

    @given(reachable_blocks_st(max_n=14))
    def test_random_reachable_sets(self, drawn):
        n, blocks = drawn
        for fold in _FOLDS.values():
            assert walk_suffixes(n, *fold)(blocks, 2) == two_steps_by_children(blocks, *fold)


class TestLexRank:
    # unrank_lex and rank_lex reach a chain from the root by the sizes of the
    # subtrees they skip, with no walk: they must agree with iter_sigma's order
    # at every index for n <= 7, on the first chains of walks far too large to
    # check by brute force, and with each other at ranks spread over them

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_index(self, n):
        for k in range(n + 1):
            index = -1
            for index, c in enumerate(iter_sigma(n, k)):
                assert unrank_lex(n, k, index) == c and rank_lex(c) == index, (k, index)
            assert index + 1 == count_formula(n, k)
            with pytest.raises(IndexError):
                unrank_lex(n, k, index + 1)

    @pytest.mark.parametrize("n,k", [(20, 4), (30, 3), (12, 6)])
    def test_first_chains_of_large_walks(self, n, k):
        for index, c in enumerate(islice(iter_sigma(n, k, cap=count_formula(n, k)), 3000)):
            assert unrank_lex(n, k, index) == c and rank_lex(c) == index, index

    @pytest.mark.parametrize("n,k", [(20, 6), (30, 4), (12, 8)])
    def test_ranks_across_large_walks(self, n, k):
        total = count_formula(n, k)
        for index in [*range(0, total, total // 97 + 1), total - 1]:
            c = unrank_lex(n, k, index)
            assert len(c) == k and validate(c).is_member and rank_lex(c) == index, index

    def test_rank_refuses_non_members(self):
        with pytest.raises(ValueError):
            rank_lex(Chain.parse("(1 3)(2 4)", 4))


class TestInvolute:
    def test_empty(self):
        assert involute(Chain(4, ())) == Chain(4, ())

    def test_worked_reflection(self):
        c = Chain.from_pairs(8, [(1, 3), (3, 8), (3, 5), (5, 7)])
        assert involute(c) == Chain.from_pairs(8, [(2, 4), (4, 6), (1, 6), (6, 8)])

    def test_self_image(self):
        c = Chain.from_pairs(3, [(1, 2), (2, 3)])
        assert involute(c) == c

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            involute(Chain.from_pairs(3, [(1, 2), (1, 2)]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closure_and_involutivity(self, n):
        for c in sigma_all(n):
            image = involute(c)
            assert validate(image).is_member
            assert involute(image) == c


class TestSupport:
    def test_examples(self):
        assert support(Chain(6, ())) == frozenset()
        assert support(WORKED) == frozenset({1, 3, 5, 7, 8})
        assert support(Chain.from_pairs(5, [(1, 2)])) == frozenset({1, 2})

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            support(Chain.from_pairs(4, [(1, 3), (2, 4)]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_product_support(self, n):
        for c in sigma_all(n):
            assert support(c) == intermediate(c, len(c)).support()


class TestSortedCriterion:
    def test_examples(self):
        assert check_sorted_criterion(Chain.from_pairs(8, [(1, 3), (3, 8), (3, 5), (5, 7)]))
        assert check_sorted_criterion(Chain.from_pairs(3, [(1, 2), (2, 3)]))
        assert not check_sorted_criterion(Chain.from_pairs(4, [(1, 3), (2, 4)]))

    def test_requires_sorted_i_sequence(self):
        with pytest.raises(ValueError):
            check_sorted_criterion(WORKED)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equivalent_to_validate_on_sorted_chains(self, n):
        for k in range(1, n):
            for c in sorted_i_chains(n, k):
                assert check_sorted_criterion(c) == validate(c).is_member


class TestSortedChainsAreNotDeterminedBySupport:
    # Two distinct non-decreasing members can share both the i-sequence and
    # the support of their product; the smallest example lives at n = 5.
    # (It is the i-sequence plus the set of larger entries that pins a
    # non-decreasing member down, via the section round trip.)
    def test_pinned_counterexample(self):
        c1 = Chain.from_pairs(5, [(1, 2), (2, 3), (4, 5)])
        c2 = Chain.from_pairs(5, [(1, 4), (2, 3), (4, 5)])
        for c in (c1, c2):
            report = validate(c)
            assert report.is_member and report.is_nondecreasing
        assert c1 != c2
        assert [t.i for t in c1.steps] == [t.i for t in c2.steps]
        assert support(c1) == support(c2) == frozenset({1, 2, 3, 4, 5})
