import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given
import hypothesis.strategies as st

import minfact.parking
from minfact import (
    ParkingInput,
    ParkingOutcome,
    normalize,
    park,
    park_trace,
    residue,
    shift_pair,
    shift_value,
)

from helpers import park_by_walking, parking_inputs_st


class TestParkingInput:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ParkingInput(5, (1, 2), {1, 2})
        with pytest.raises(ValueError):
            ParkingInput(5, (1,), {1, 2, 3})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ParkingInput(5, (6,), {1, 2})
        with pytest.raises(ValueError):
            ParkingInput(5, (1,), {0, 2})

    def test_duplicate_entries_are_legal(self):
        inp = ParkingInput(8, (1, 1, 3, 7), {1, 3, 5, 6, 7})
        assert inp.entries == (1, 1, 3, 7)


class TestPark:
    def test_worked_example(self):
        out = park(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7)))
        assert out == ParkingOutcome(spaces=(6, 3, 5, 1), residue=7)

    def test_shifted_worked_example(self):
        out = park(ParkingInput(8, (1, 3, 3, 5), (1, 3, 5, 7, 8)))
        assert out == ParkingOutcome(spaces=(3, 8, 5, 7), residue=1)

    def test_no_cars(self):
        assert park(ParkingInput(9, (), {4})) == ParkingOutcome((), 4)

    def test_probing_starts_strictly_after_entry(self):
        # the open entry point itself is skipped in favour of spaces after it
        out = park(ParkingInput(3, (2,), {2, 1}))
        assert out.spaces == (1,)
        out = park(ParkingInput(3, (1,), {1, 3}))
        assert out.spaces == (3,)

    def test_trace_matches_narration(self):
        _, visits = park_trace(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7)))
        assert [v.entry for v in visits] == [7, 3, 1, 1]
        assert [v.parked for v in visits] == [1, 5, 3, 6]
        assert visits[0].probed == (8, 1)
        assert visits[3].probed == (2, 3, 4, 5, 6)


class TestResidue:
    def test_examples(self):
        assert residue(ParkingInput(8, (1, 1, 3, 7), (1, 3, 5, 6, 7))) == 7
        assert residue(ParkingInput(6, (), {4})) == 4
        assert residue(ParkingInput(3, (1,), {2, 3})) == 3

    # the bisection against the walk round the circle it replaces: the
    # residue, the outcome and every car's trace

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_shadow_exhaustive(self, n):
        for k in range(n):
            for inp in _exhaustive_inputs(n, k):
                _assert_parks_as_walking(inp)

    @given(parking_inputs_st(max_n=30, max_k=29))
    def test_shadow_random(self, inp):
        _assert_parks_as_walking(inp)

    def test_shadow_sparse(self):
        rng = random.Random(10_000)
        n, k = 10_000, 8
        for _ in range(5):
            entries = tuple(rng.randint(1, n) for _ in range(k))
            inp = ParkingInput(n, entries, frozenset(rng.sample(range(1, n + 1), k + 1)))
            _assert_parks_as_walking(inp)


def _assert_parks_as_walking(inp):
    outcome, visits = park_by_walking(inp)
    assert residue(inp) == outcome.residue, inp
    assert park(inp) == outcome, inp
    assert park_trace(inp) == (outcome, visits), inp


class TestShiftPair:
    def test_worked_example(self):
        a, b = shift_pair((1, 3, 7, 1), {1, 3, 5, 6, 7}, 2, 8)
        assert a == (3, 5, 1, 3)
        assert b == frozenset({1, 3, 5, 7, 8})

    def test_zero_and_full_shift(self):
        a, b = (2, 5), frozenset({1, 4, 6})
        assert shift_pair(a, b, 0, 6) == (a, b)
        assert shift_pair(a, b, 6, 6) == (a, b)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shift_pair((9,), {1, 2}, 1, 8)

    def test_shift_value(self):
        assert shift_value(7, 2, 8) == 1
        assert shift_value(8, 2, 8) == 2
        assert shift_value(1, 0, 8) == 1

    @pytest.mark.parametrize("n", [0, -2])
    def test_shift_value_needs_a_ground_set(self, n):
        # unchecked, n = 0 divides by zero and n = -2 sends 1 to 0, outside 1..n
        with pytest.raises(ValueError, match="n must be >= 1"):
            shift_value(1, 1, n)

    @pytest.mark.parametrize("n", [0, -2])
    def test_shift_pair_needs_a_ground_set(self, n):
        # unchecked, the empty pair passed every range check and came back
        with pytest.raises(ValueError, match="n must be >= 1"):
            shift_pair((), (), 1, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_kernel_shifts_by_any_integer(self, n):
        # PairAB.shifted hands the kernel any t, negative or past n
        pairs = [(i.entries, i.open_spaces) for k in range(n) for i in _exhaustive_inputs(n, k)]
        for t in range(-2 * n, 2 * n + 1):
            to = {x: shift_value(x, t, n) for x in range(1, n + 1)}
            for a, b in pairs:
                assert minfact.parking._shift(a, b, t, n) == (
                    tuple(to[x] for x in a), frozenset(to[x] for x in b)
                ), (a, b, t)


class TestNormalize:
    def test_worked_example(self):
        assert normalize((1, 3, 7, 1), {1, 3, 5, 6, 7}, 8) == (
            (3, 5, 1, 3),
            frozenset({1, 3, 5, 7, 8}),
            2,
        )

    def test_residue_one_is_fixed(self):
        a, b = (1, 3, 3, 5), frozenset({1, 3, 5, 7, 8})
        assert normalize(a, b, 8) == (a, b, 0)

    def test_small_example(self):
        assert normalize((1,), {2, 3}, 3) == ((2,), frozenset({3, 1}), 1)

    def test_idempotent(self):
        a, b, _ = normalize((4, 2, 2), {1, 2, 5, 6}, 6)
        assert normalize(a, b, 6) == (a, b, 0)

    @pytest.mark.parametrize("n,k", [(1, 0), (4, 0), (4, 2), (5, 3), (5, 4)])
    def test_parks_once_at_residue_one_else_twice(self, n, k, monkeypatch):
        real, parked = minfact.parking._park, []

        def counting(entries, open_spaces):
            parked.append(entries)
            return real(entries, open_spaces)

        monkeypatch.setattr(minfact.parking, "_park", counting)
        for inp in _exhaustive_inputs(n, k):
            parked.clear()
            a, b = inp.entries, inp.open_spaces
            a2, b2, t = minfact.parking._normalize(n, a, b)
            if real(a, b)[1] == 1:
                assert (a2, b2, t) == (a, b, 0) and len(parked) == 1, inp
            else:
                assert t != 0 and len(parked) == 2, inp

    def test_wrong_rotation_raises(self, monkeypatch):
        shift = minfact.parking._shift
        monkeypatch.setattr(minfact.parking, "_shift", lambda a, b, t, n: shift(a, b, t + 1, n))
        with pytest.raises(RuntimeError, match="residue"):
            normalize((1, 3, 7, 1), {1, 3, 5, 6, 7}, 8)

    def test_wrong_rotation_raises_under_optimize(self):
        # python -O strips assert statements; the invariant check must survive
        script = (
            "import minfact.parking as P\n"
            "shift = P._shift\n"
            "P._shift = lambda a, b, t, n: shift(a, b, t + 1, n)\n"
            "try:\n"
            "    P.normalize((1, 3, 7, 1), {1, 3, 5, 6, 7}, 8)\n"
            "except RuntimeError:\n"
            "    raise SystemExit(3)\n"
        )
        src = os.path.dirname(os.path.dirname(minfact.parking.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
        assert done.returncode == 3


def _exhaustive_inputs(n, k):
    for entries in product(range(1, n + 1), repeat=k):
        for opens in combinations(range(1, n + 1), k + 1):
            yield ParkingInput(n, entries, frozenset(opens))


class TestProcessProperties:
    @pytest.mark.parametrize("n,k", [(4, 0), (4, 2), (5, 2), (5, 3), (6, 2)])
    def test_exhaustive_small_inputs(self, n, k):
        for inp in _exhaustive_inputs(n, k):
            out = park(inp)
            # outcome invariant: taken spaces plus residue tile the open set
            assert len(set(out.spaces)) == k
            assert set(out.spaces) | {out.residue} == set(inp.open_spaces)
            # equivariance under the unit shift
            a2, b2 = shift_pair(inp.entries, inp.open_spaces, 1, n)
            shifted = park(ParkingInput(n, a2, b2))
            assert shifted.spaces == tuple(shift_value(x, 1, n) for x in out.spaces)
            assert shifted.residue == shift_value(out.residue, 1, n)
            # adjacent swaps fix the residue and the multiset of spaces
            for s in range(k - 1):
                entries = list(inp.entries)
                entries[s], entries[s + 1] = entries[s + 1], entries[s]
                swapped = park(ParkingInput(n, tuple(entries), inp.open_spaces))
                assert swapped.residue == out.residue
                assert Counter(swapped.spaces) == Counter(out.spaces)
            # under residue 1 every car parks strictly above its entry
            if out.residue == 1:
                assert all(e < p for e, p in zip(inp.entries, out.spaces))

    @given(parking_inputs_st(), st.integers(0, 30), st.randoms())
    def test_random_inputs(self, inp, t, rng):
        out = park(inp)
        assert set(out.spaces) | {out.residue} == set(inp.open_spaces)
        a2, b2 = shift_pair(inp.entries, inp.open_spaces, t, inp.n)
        shifted = park(ParkingInput(inp.n, a2, b2))
        assert shifted.spaces == tuple(shift_value(x, t, inp.n) for x in out.spaces)
        assert shifted.residue == shift_value(out.residue, t, inp.n)
        shuffled = list(inp.entries)
        rng.shuffle(shuffled)
        permuted = park(ParkingInput(inp.n, tuple(shuffled), inp.open_spaces))
        assert permuted.residue == out.residue
        assert Counter(permuted.spaces) == Counter(out.spaces)

    @given(parking_inputs_st())
    def test_normalized_pairs_bound_entries(self, inp):
        a2, b2, _ = normalize(inp.entries, inp.open_spaces, inp.n)
        out = park(ParkingInput(inp.n, a2, b2))
        assert out.residue == 1
        assert all(e < p for e, p in zip(a2, out.spaces))
