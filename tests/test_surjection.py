import time
from itertools import combinations, product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from minfact import chains, surjection
from minfact import (
    CapExceeded,
    Chain,
    PairAB,
    apply_permutation,
    count_formula,
    fiber,
    gamma,
    intermediate,
    normalize,
    park,
    ParkingInput,
    section,
    shift_pair,
    sort_chain,
    verify,
)
from minfact.cli import run
from minfact.parking import _shift

from helpers import act_on_sequence, all_permutations, sigma, sigma_all, verify_oracle

WORKED_PAIR = PairAB(8, (1, 3, 7, 1), (1, 3, 5, 6, 7))
WORKED_CHAIN = Chain.parse("(3 8)(5 7)(1 8)(3 7)", 8)


def _all_pairs(n, k):
    for a in product(range(1, n + 1), repeat=k):
        for b in combinations(range(1, n + 1), k + 1):
            yield PairAB(n, a, frozenset(b))


class TestPairAB:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairAB(5, (1, 2), {1, 2})
        with pytest.raises(ValueError):
            PairAB(5, (6,), {1, 2})
        with pytest.raises(ValueError):
            PairAB(5, (1,), {0, 2})

    def test_json_round_trip(self):
        data = WORKED_PAIR.to_json()
        assert data == {"n": 8, "a": [1, 3, 7, 1], "b": [1, 3, 5, 6, 7]}
        assert PairAB.from_json(data) == WORKED_PAIR

    def test_k_is_the_length_of_a(self):
        assert WORKED_PAIR.k == len(WORKED_PAIR.a) == 4
        assert PairAB(3, (), {2}).k == 0

    def test_orbit_is_free(self):
        for pair in (WORKED_PAIR, PairAB(3, (), {2})):
            orbit = pair.orbit()
            assert len(orbit) == pair.n
            assert len(set(orbit)) == pair.n

    def test_normalized(self):
        pair, shift = WORKED_PAIR.normalized()
        assert shift == 2
        assert pair == PairAB(8, (3, 5, 1, 3), (1, 3, 5, 7, 8))
        assert pair.residue() == 1


class TestGamma:
    def test_worked_example(self):
        assert gamma(WORKED_PAIR) == WORKED_CHAIN

    def test_empty_sequence(self):
        for b in (1, 2, 5):
            assert gamma(PairAB(5, (), {b})) == Chain(5, ())

    def test_single_entry(self):
        assert gamma(PairAB(3, (1,), {2, 3})) == Chain.from_pairs(3, [(2, 3)])

    def test_projection_is_rotated_a(self):
        a2, _, _ = normalize(WORKED_PAIR.a, WORKED_PAIR.b, 8)
        assert tuple(t.i for t in gamma(WORKED_PAIR).steps) == a2

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
    def test_invariant_under_rotation(self, n, k):
        for pair in _all_pairs(n, k):
            image = gamma(pair)
            for t in range(1, n):
                assert gamma(pair.shifted(t)) == image

    @pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (5, 2)])
    def test_sorting_permutation_choice_does_not_matter(self, n, k):
        for pair in _all_pairs(n, k):
            a2, b2, _ = normalize(pair.a, pair.b, n)
            entries = tuple(sorted(a2))
            taken = park(ParkingInput(n, entries, b2)).spaces
            sorted_chain = Chain.from_pairs(n, zip(entries, taken))
            results = {
                apply_permutation(sorted_chain, p.inverse())
                for p in all_permutations(k)
                if act_on_sequence(p, a2) == entries
            }
            assert results == {gamma(pair)}


class TestSection:
    def test_worked_example(self):
        pair = section(WORKED_CHAIN)
        assert pair.a == (3, 5, 1, 3)
        assert pair.b == frozenset({1, 3, 5, 7, 8})

    def test_empty_chain(self):
        assert section(Chain(4, ())) == PairAB(4, (), {1})

    def test_single_step(self):
        assert section(Chain.from_pairs(2, [(1, 2)])) == PairAB(2, (1,), {1, 2})

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            section(Chain.from_pairs(4, [(1, 3), (2, 4)]))

    @staticmethod
    def _one_and_non_least_points(c):
        # 1 and every point that is not the least of its cycle in c's product
        return frozenset({1}).union(*(cycle[1:] for cycle in intermediate(c, len(c)).cycles()))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_b_is_closed_form(self, n):
        for c in sigma_all(n):
            assert section(c).b == self._one_and_non_least_points(c)

    @given(st.data())
    def test_b_is_closed_form_on_random_pairs(self, data):
        n = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(0, n - 1))
        a = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
        b = frozenset(data.draw(st.sets(st.integers(1, n), min_size=k + 1, max_size=k + 1)))
        c = gamma(PairAB(n, a, b))
        assert section(c).b == self._one_and_non_least_points(c)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_right_inverse_with_residue_one(self, n):
        for c in sigma_all(n):
            pair = section(c)
            assert pair.residue() == 1
            assert gamma(pair) == c


class TestFiber:
    def test_worked_example_contains_original_pair(self):
        pairs = fiber(WORKED_CHAIN)
        assert len(pairs) == 8
        assert WORKED_PAIR in pairs

    def test_empty_chain(self):
        assert set(fiber(Chain(3, ()))) == {
            PairAB(3, (), {1}),
            PairAB(3, (), {2}),
            PairAB(3, (), {3}),
        }

    def test_single_step(self):
        assert set(fiber(Chain.from_pairs(2, [(1, 2)]))) == {
            PairAB(2, (1,), {1, 2}),
            PairAB(2, (2,), {1, 2}),
        }

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (4, 3)])
    def test_fibers_partition_the_domain(self, n, k):
        groups: dict[Chain, set[PairAB]] = {}
        for pair in _all_pairs(n, k):
            groups.setdefault(gamma(pair), set()).add(pair)
        assert set(groups) == set(sigma(n, k))
        for chain, pairs in groups.items():
            assert len(pairs) == n
            assert pairs == set(fiber(chain))
            assert sum(p.residue() == 1 for p in pairs) == 1

    @given(st.data())
    def test_membership_in_own_fiber(self, data):
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(0, n - 1))
        a = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
        b = frozenset(data.draw(st.sets(st.integers(1, n), min_size=k + 1, max_size=k + 1)))
        pair = PairAB(n, a, b)
        assert pair in fiber(gamma(pair))


class TestCountFormula:
    def test_examples(self):
        assert count_formula(4, 3) == 16
        assert count_formula(8, 1) == 28
        assert count_formula(8, 4) == 28672
        assert count_formula(5, 0) == 1
        assert count_formula(3, 7) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_formula(0, 1)
        with pytest.raises(ValueError):
            count_formula(3, -1)

    def test_exact_for_large_arguments(self):
        # stays exact far beyond machine floats; C(30, 21) = C(30, 9) = 14307150
        assert count_formula(30, 20) == 30**19 * 14307150

    def test_k_at_least_n_is_zero_before_the_power(self):
        start = time.perf_counter()
        assert count_formula(3, 10**7) == 0
        assert time.perf_counter() - start < 0.5


class TestVerify:
    def test_n4(self):
        report = verify(4)
        assert report.passed
        assert [row.enumerated for row in report.rows] == [1, 6, 16, 16]
        assert [row.formula for row in report.rows] == [1, 6, 16, 16]

    def test_n1(self):
        report = verify(1)
        assert report.passed
        assert [row.enumerated for row in report.rows] == [1]

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            verify(n)

    def test_n5(self):
        report = verify(5)
        assert report.passed
        assert [row.enumerated for row in report.rows] == [1, 10, 50, 125, 125]

    def test_json_shape(self):
        data = verify(2).to_json()
        assert data["passed"] is True
        assert data["rows"][1]["counts_match"] is True

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_pair_oracle(self, n):
        assert verify(n) == verify_oracle(n)

    def test_cap_is_checked_for_every_k_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(
            CapExceeded, match=r"^enumeration of n=8, k=5 has 114688 chains, over the cap 30000$"
        ):
            verify(8, cap=30000)
        assert time.perf_counter() - start < 1.0

    def test_cap_is_checked_at_once_for_a_huge_n(self):
        # k = 0 builds nothing O(n), so k = 1 is reached and refused at once
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            verify(10**30)
        assert time.perf_counter() - start < 1.0


def _count_validate(monkeypatch) -> list:
    checked = []
    real = chains.validate

    def counting(c):
        checked.append(c)
        return real(c)

    monkeypatch.setattr(chains, "validate", counting)
    return checked


@pytest.mark.parametrize("call", [section, fiber, sort_chain, gamma])
def test_membership_is_checked_once_per_call(call, monkeypatch):
    # gamma checks the chain it built, WORKED_CHAIN; a gamma that builds
    # members by construction may drop that check, and this pin with it
    checked = _count_validate(monkeypatch)
    call(WORKED_PAIR if call is gamma else WORKED_CHAIN)
    assert checked == [WORKED_CHAIN]


def _count_built(monkeypatch, cls) -> list:
    built = []
    real_post_init = cls.__post_init__

    def counting(obj):
        built.append(obj)
        real_post_init(obj)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def test_verify_calls_no_validate_and_parks_once_per_chain(monkeypatch):
    # the walk's chains are trusted: verify checks membership on their sorted
    # form, and parks each chain's section through the kernels, building no
    # ParkingInput
    checked = _count_validate(monkeypatch)
    built = _count_built(monkeypatch, ParkingInput)
    report = verify(5)
    assert report.passed
    assert checked == []
    assert built == []


def test_gamma_builds_no_parking_input(monkeypatch):
    # the PairAB was checked when it was built; gamma rotates and parks its
    # values through the kernels without checking them again
    built = _count_built(monkeypatch, ParkingInput)
    assert gamma(WORKED_PAIR) == WORKED_CHAIN
    assert built == []


def test_cli_fiber_checks_the_section_once(monkeypatch, capsys):
    # the rotations of the checked section are printed, not built as pairs
    expected = PairAB(50, (1, 2), {1, 2, 3})
    pairs = _count_built(monkeypatch, PairAB)
    inputs = _count_built(monkeypatch, ParkingInput)
    assert run(["fiber", "-n", "50", "--chain", "(1 2)(2 3)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 50 and out[-1] == "a=50,1 b=1,2,50"
    assert pairs == [expected]
    assert len(inputs) == 1


def test_verify_builds_one_chain_per_chain(monkeypatch):
    # the walk's Chain is the only one: the sorted form is checked as steps
    built = _count_built(monkeypatch, Chain)
    report = verify(5)
    assert report.passed
    assert len(built) == sum(row.enumerated for row in report.rows)


@pytest.mark.parametrize("tail_agrees", [False, True])
def test_non_member_from_the_walk_never_passes(tail_agrees, monkeypatch):
    # the non-member takes the place of the member with its i-sequence and B,
    # so the counts match.  With tail_agrees, gamma's tail maps that pair, which
    # has residue 1, to the non-member, so only the membership check can catch it
    bad, twin = Chain.parse("(1 2)(1 3)", 3), Chain.parse("(1 3)(1 2)", 3)
    assert not chains.validate(bad).is_member and section(twin) == PairAB(3, (1, 1), {1, 2, 3})
    real_walk, real_tail = surjection.iter_sigma, surjection._gamma_normalized

    def walk(n, k, cap):
        return (bad if c == twin else c for c in real_walk(n, k, cap))

    def tail(a, b):
        if tail_agrees and (a, b) == ((1, 1), frozenset({1, 2, 3})):
            return bad.steps
        return real_tail(a, b)

    monkeypatch.setattr(surjection, "iter_sigma", walk)
    monkeypatch.setattr(surjection, "_gamma_normalized", tail)
    try:
        report = verify(3)
    except ValueError:
        return
    assert not report.passed
    assert report.rows[2].counts_match


def _record_verify(n, monkeypatch):
    # verify(n) and, per call of gamma's tail, its section and then every pair
    # that normalize is handed until the next call
    real_tail, real_normalize = surjection._gamma_normalized, surjection._normalize
    calls = []

    def tail(a, b):
        calls.append(((a, b), []))
        return real_tail(a, b)

    def normalizing(m, a, b):
        calls[-1][1].append((a, b))
        return real_normalize(m, a, b)

    monkeypatch.setattr(surjection, "_gamma_normalized", tail)
    monkeypatch.setattr(surjection, "_normalize", normalizing)
    return verify(n), calls


def test_verify_normalizes_n_distinct_rotations_per_chain(monkeypatch):
    # the faults below are planted in two pairs; this pins the work on every chain
    n = 5
    report, calls = _record_verify(n, monkeypatch)
    assert report.passed
    assert len(calls) == sum(row.enumerated for row in report.rows)
    for (a, b), rotations in calls:
        assert len(rotations) == n and len(set(rotations)) == n, (a, b)


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_rotates_as_the_shift_kernel(n, monkeypatch):
    # verify's orbit table hands normalize the rotation of each section by t = 0..n-1
    _, calls = _record_verify(n, monkeypatch)
    for (a, b), rotations in calls:
        assert rotations == [_shift(a, b, t, n) for t in range(n)], (a, b)


def _count_sections(monkeypatch) -> list:
    made = []
    real = surjection._section

    def counting(c):
        made.append(c)
        return real(c)

    monkeypatch.setattr(surjection, "_section", counting)
    return made


def test_verify_and_section_share_the_section_kernel(monkeypatch):
    # verify makes each walk chain's section once, through the kernel that
    # section and fiber call after the one membership check
    made = _count_sections(monkeypatch)
    report = verify(5)
    assert report.passed
    assert made == [c for k in range(5) for c in sigma(5, k)]
    for call in (section, fiber):
        made.clear()
        call(WORKED_CHAIN)
        assert made == [WORKED_CHAIN]


def test_section_checks_membership_then_calls_the_kernel(monkeypatch):
    made = _count_sections(monkeypatch)
    checked = []
    real = surjection._require_member

    def requiring(c):
        checked.append(len(made))
        return real(c)

    monkeypatch.setattr(surjection, "_require_member", requiring)
    section(WORKED_CHAIN)
    assert checked == [0] and made == [WORKED_CHAIN]


class TestSectionKernelFault:
    # the kernel hands back A reversed and the right B, so |B| stays k + 1 and
    # every pair it makes is well formed; verify runs the same kernel, so it
    # must see what section and fiber now get wrong

    @pytest.fixture(autouse=True)
    def reverse_a(self, monkeypatch):
        real = surjection._section

        def faulty(c):
            a, b, ordered = real(c)
            return a[::-1], b, ordered

        monkeypatch.setattr(surjection, "_section", faulty)

    def test_verify_fails_sections_and_fibres(self):
        rows = verify(5).rows
        assert all(r.counts_match for r in rows)
        assert [(r.sections_ok, r.fibers_ok) for r in rows] == [
            (True, True), (True, True), (False, False), (False, False), (False, False)
        ]

    def test_cli_exits_one(self, capsys):
        assert run(["verify", "-n", "5"]) == 1
        out = capsys.readouterr().out.splitlines()
        marks = [line.split()[-2:] for line in out[1:-1]]
        assert marks == [["ok", "ok"]] * 2 + [["FAIL", "FAIL"]] * 3
        assert out[-1] == "FAIL"

    def test_section_and_fiber_return_the_faulty_pair(self):
        faulty = PairAB(8, (3, 1, 5, 3), (1, 3, 5, 7, 8))
        assert section(WORKED_CHAIN) == faulty
        assert fiber(WORKED_CHAIN)[0] == faulty


class TestVerifyCanFail:
    # each fault is planted in exactly one chain or pair of verify(4)

    def _corrupt_gamma_once(self, monkeypatch):
        real = surjection._gamma_normalized
        victim = section(sigma(4, 2)[3])

        def faulty(a, b):
            steps = real(a, b)
            return steps[::-1] if (a, b) == (victim.a, victim.b) else steps

        monkeypatch.setattr(surjection, "_gamma_normalized", faulty)

    def _misrotate_once(self, monkeypatch):
        real = surjection._normalize
        victim = fiber(sigma(4, 3)[5])[2]

        def faulty(n, a, b):
            a2, b2, t = real(n, a, b)
            if (a, b) == (victim.a, victim.b):
                a2, b2 = shift_pair(a2, b2, 1, n)
            return a2, b2, t

        monkeypatch.setattr(surjection, "_normalize", faulty)

    def test_wrong_chain_fails_sections_and_fibres(self, monkeypatch):
        self._corrupt_gamma_once(monkeypatch)
        rows = verify(4).rows
        assert [(r.sections_ok, r.fibers_ok) for r in rows] == [
            (True, True), (True, True), (False, False), (True, True)
        ]

    def test_wrong_rotation_fails_fibres_only(self, monkeypatch):
        self._misrotate_once(monkeypatch)
        rows = verify(4).rows
        assert [(r.sections_ok, r.fibers_ok) for r in rows] == [
            (True, True), (True, True), (True, True), (True, False)
        ]

    @pytest.mark.parametrize(
        "fault,k,marks",
        [("_corrupt_gamma_once", 2, ["FAIL", "FAIL"]), ("_misrotate_once", 3, ["ok", "FAIL"])],
    )
    def test_cli_exits_one(self, fault, k, marks, monkeypatch, capsys):
        getattr(self, fault)(monkeypatch)
        assert run(["verify", "-n", "4"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1 + k].split()[-2:] == marks
        assert out[-1] == "FAIL"


def test_misreported_shift_fails_fibres(monkeypatch):
    # normalize applies the right rotation to one pair of verify(4) but reports
    # shift 3 for 2: the rotations stay distinct and one of them still has
    # shift 0, so only the equation on the shift sees it
    real = surjection._normalize
    victim = fiber(sigma(4, 3)[5])[2]

    def faulty(n, a, b):
        a2, b2, t = real(n, a, b)
        if (a, b) == (victim.a, victim.b):
            t = (t + 1) % n
        return a2, b2, t

    monkeypatch.setattr(surjection, "_normalize", faulty)
    rows = verify(4).rows
    assert [(r.sections_ok, r.fibers_ok) for r in rows] == [
        (True, True), (True, True), (True, True), (True, False)
    ]
