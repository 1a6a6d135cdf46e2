"""Class generation, counting, and the brute-force oracle."""

import random
import time
from itertools import combinations_with_replacement

import pytest

from bgseq import (
    ClassParams,
    DegreeSequence,
    LimitExceeded,
    OracleBudgetExceeded,
    OracleVerdict,
    brute_force_all_graphic,
    class_nonempty,
    count_class,
    enum_class,
    enum_sequences,
)
import bgseq.enumeration as enumeration
from bgseq.enumeration import _count_side
from helpers import grid_params, min_cap_sum


def tuples(it):
    return [s.as_tuple() for s in it]


class TestEnumSequences:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((2, 1, 3, 4), [(2, 1, 1)]),
            ((3, 1, 3, 6), [(3, 2, 1)]),
            ((2, 1, 3, 3), []),
            ((3, 3, 2, 6), [(3, 3)]),
            ((4, 1, 4, 10), [(4, 4, 1, 1), (4, 3, 2, 1)]),
        ],
    )
    def test_examples(self, args, expected):
        assert tuples(enum_sequences(*args)) == expected

    def test_reverse_lexicographic_order(self):
        out = tuples(enum_sequences(5, 1, 5, 15))
        assert out == sorted(out, reverse=True)
        assert out[0] == (5, 5, 3, 1, 1)  # the most spread-out member first

    def test_membership_soundness(self):
        for A in range(0, 6):
            for B in range(0, A + 1):
                for L in range(1, 6):
                    for S in range(0, A * L + 1):
                        for got in enum_sequences(A, B, L, S):
                            t = got.as_tuple()
                            assert len(t) == L and sum(t) == S
                            assert t[0] == A and t[-1] == B
                            assert all(x >= y for x, y in zip(t, t[1:]))

    def test_completeness_against_filter(self):
        for A in range(0, 6):
            for B in range(0, A + 1):
                for L in range(1, 6):
                    everything = list(combinations_with_replacement(range(A, B - 1, -1), L))
                    for S in range(0, A * L + 1):
                        want = {
                            t
                            for t in everything
                            if t and t[0] == A and t[-1] == B and sum(t) == S
                        }
                        assert set(tuples(enum_sequences(A, B, L, S))) == want

    def test_long_side_does_not_recurse(self):
        # One sequence: a single 2 among 1,198 middle entries of 1.
        out = tuples(enum_sequences(2, 1, 1200, 1202))
        assert out == [(2, 2) + (1,) * 1198]

    def test_no_duplicates(self):
        out = tuples(enum_sequences(5, 1, 6, 18))
        assert len(out) == len(set(out))

    def test_precondition(self):
        with pytest.raises(ValueError):
            list(enum_sequences(1, 2, 3, 4))


class TestEnumClass:
    def test_single_pair(self):
        out = list(enum_class(ClassParams(2, 1, 2, 1, 3, 3, 4)))
        assert len(out) == 1
        assert out[0][0].as_tuple() == (2, 1, 1) and out[0][1].as_tuple() == (2, 1, 1)

    def test_empty(self):
        assert list(enum_class(ClassParams(2, 1, 2, 1, 3, 3, 3))) == []

    def test_pinned_member_list(self):
        # Regression fixture for the 4-pair class, in enumeration order.
        pairs = [
            (left.as_tuple(), right.as_tuple())
            for left, right in enum_class(ClassParams(4, 1, 4, 1, 4, 4, 10))
        ]
        assert pairs == [
            ((4, 4, 1, 1), (4, 4, 1, 1)),
            ((4, 4, 1, 1), (4, 3, 2, 1)),
            ((4, 3, 2, 1), (4, 4, 1, 1)),
            ((4, 3, 2, 1), (4, 3, 2, 1)),
        ]

    def test_deterministic(self):
        params = ClassParams(5, 1, 5, 1, 5, 5, 12)
        first = [(a.as_tuple(), b.as_tuple()) for a, b in enum_class(params)]
        second = [(a.as_tuple(), b.as_tuple()) for a, b in enum_class(params)]
        assert first == second


class TestCountClass:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((2, 1, 2, 1, 3, 3, 4), 1),
            ((2, 1, 2, 1, 3, 3, 3), 0),
            ((3, 3, 3, 3, 4, 4, 12), 1),
            ((4, 1, 4, 1, 4, 4, 10), 4),
        ],
    )
    def test_examples(self, params, expected):
        assert count_class(ClassParams(*params)) == expected

    def test_side_count_matches_generator_exhaustive(self):
        for A in range(0, 8):
            for B in range(0, A + 1):
                for L in range(1, 9):
                    for S in range(0, A * L + 1):
                        assert _count_side(A, B, L, S) == len(
                            list(enum_sequences(A, B, L, S))
                        ), (A, B, L, S)

    def test_side_with_max_below_min_is_empty(self):
        # No sequence has a max below its min.  With L = 2 the box has no
        # middle entries, so only the max < min guard tells (2, 3, 2, 5)
        # from a side of one sequence.  __wrapped__ skips the cache.
        for side in ((2, 3, 2, 5), (2, 3, 3, 7)):
            assert _count_side.__wrapped__(*side) == 0, side

    def test_capped_count_is_exact_or_above_cap(self, monkeypatch):
        rng = random.Random(7)
        sides = []
        for _ in range(2000):
            A = rng.randint(0, 40)
            B = rng.randint(0, A)
            L = rng.randint(1, 40)
            S = rng.randint(0, A * L)
            sides.append((A, B, L, S, _count_side(A, B, L, S)))
        # Force the lower-bound route even for small sides, past the cache,
        # which must not keep counts made under the patched constant.
        monkeypatch.setattr(enumeration, "EXACT_COUNT_STEPS", 0)
        stopped = 0
        for A, B, L, S, exact in sides:
            cap = rng.choice([0, 10, 1000, 10**6, 10**12, exact, max(exact - 1, 0)])
            got = _count_side.__wrapped__(A, B, L, S, cap=cap)
            if got is None:
                assert exact > cap, (A, B, L, S, cap)
                stopped += 1
            else:
                assert got == exact, (A, B, L, S, cap)
        assert stopped > 100

    def test_long_sides(self):
        assert count_class(ClassParams(2, 1, 2, 1, 1200, 1200, 1202)) == 1
        # Partitions of 3,992 into at most 8 parts, minus those with a part
        # above 1,998 (a part of 1,999 + r leaves r <= 1,993 for the other 7).
        assert _count_side(9, 1, 2000, 6000) == 76872073450059115
        assert _count_side(9, 1, 2000, 6000, cap=10**7) > 10**7
        assert _count_side(1026, 0, 1026, 1 << 19, cap=10**7) is None

    def test_refuses_a_side_too_long_to_count(self):
        # Counting one side of this class exactly took 177 s.
        start = time.perf_counter()
        with pytest.raises(LimitExceeded, match="steps"):
            count_class(ClassParams(1026, 0, 1026, 0, 1026, 1026, 1 << 19))
        assert time.perf_counter() - start < 1

    def test_acceptance_grid_stays_exact(self):
        # The benchmark counts the pairs of every class of this grid.
        assert sum(count_class(params) for params in grid_params(6)) == 20731

    def test_pair_count_matches_generator(self):
        for params in grid_params(5):
            if params.a > 5 or params.c > 5:
                continue
            assert count_class(params) == sum(1 for _ in enum_class(params))


class TestBruteForce:
    def test_all_graphic(self):
        witness = brute_force_all_graphic(ClassParams(2, 1, 2, 1, 3, 3, 4))
        assert witness.verdict is OracleVerdict.ALL_GRAPHIC
        assert witness.witness is None

    def test_finds_first_witness(self):
        witness = brute_force_all_graphic(ClassParams(4, 1, 4, 1, 4, 4, 10))
        assert witness.verdict is OracleVerdict.FOUND_NON_GRAPHIC
        assert witness.witness.left == DegreeSequence([4, 4, 1, 1])
        assert witness.witness.right == DegreeSequence([4, 4, 1, 1])
        assert witness.witness.failing_k == 2

    def test_witness_violation_is_genuine(self):
        witness = brute_force_all_graphic(ClassParams(4, 1, 4, 1, 4, 4, 10)).witness
        prefix = sum(list(witness.left)[: witness.failing_k])
        assert prefix > min_cap_sum(witness.right, witness.failing_k)

    def test_empty_class(self):
        witness = brute_force_all_graphic(ClassParams(2, 1, 2, 1, 3, 3, 3))
        assert witness.verdict is OracleVerdict.EMPTY

    def test_empty_iff_class_empty(self):
        for params in grid_params(4):
            verdict = brute_force_all_graphic(params).verdict
            assert (verdict is OracleVerdict.EMPTY) == (not class_nonempty(params))

    def test_deterministic(self):
        params = ClassParams(4, 1, 4, 1, 4, 4, 10)
        first = brute_force_all_graphic(params)
        second = brute_force_all_graphic(params)
        assert first == second


class TestBudget:
    def test_refuses_above_budget(self):
        with pytest.raises(OracleBudgetExceeded, match="budget"):
            brute_force_all_graphic(ClassParams(4, 1, 4, 1, 4, 4, 10), budget=3)

    def test_explicit_budget_allows(self):
        witness = brute_force_all_graphic(ClassParams(4, 1, 4, 1, 4, 4, 10), budget=4)
        assert witness.verdict is OracleVerdict.FOUND_NON_GRAPHIC

    def test_refuses_a_negative_budget(self):
        # Before counting: an empty class must not read as above the budget.
        for params in (ClassParams(2, 1, 2, 1, 3, 3, 3), ClassParams(4, 1, 4, 1, 4, 4, 10)):
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                brute_force_all_graphic(params, budget=-1)

    def test_refuses_far_above_budget(self):
        params = ClassParams(1026, 0, 1026, 0, 1026, 1026, 1 << 19)
        with pytest.raises(OracleBudgetExceeded, match="more than 100 pairs"):
            brute_force_all_graphic(params, budget=100)
