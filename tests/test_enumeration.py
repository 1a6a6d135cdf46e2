"""Class generation, counting, and the brute-force oracle."""

import random
import subprocess
import sys
import time
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

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
    zz_check,
)
import bgseq.enumeration as enumeration
from bgseq.enumeration import _count_side
from bgseq.galeryser import PairVerdict
from helpers import PEAK_KIB, grid_params, min_cap_sum


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


@lru_cache
def first_failing_pair(params):
    """Scalar reference: the class's first pair in enumeration order that
    zz_check rejects, with its failing k, or None."""
    for e, f in enum_class(params):
        verdict = zz_check(e, f)
        if not verdict.graphic:
            return e.as_tuple(), f.as_tuple(), verdict.failing_k
    return None


def oracle_pair(params):
    w = brute_force_all_graphic(params, budget=count_class(params))
    return None if w.witness is None else (w.witness.left.as_tuple(), w.witness.right.as_tuple(),
                                           w.witness.failing_k)


@pytest.fixture
def fresh_caches():
    caches = (enumeration._side_matrix, enumeration._left_tables, enumeration._right_caps)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def side_rows(A, B, L, S):
    return np.array([seq.values for seq in enum_sequences(A, B, L, S)], dtype=np.int64)


class TestSideReductions:
    """The oracle decides a class from one walk of each side in blocks, and
    finds its witness from a second walk."""

    # Sides of 12 to 221 sequences, three classes not all-graphic.
    CLASSES = [ClassParams(6, 3, 10, 2, 10, 10, 47), ClassParams(8, 0, 7, 4, 10, 10, 53),
               ClassParams(7, 0, 7, 2, 10, 8, 28), ClassParams(6, 2, 7, 0, 8, 10, 28),
               ClassParams(6, 3, 8, 0, 10, 9, 43)]

    def test_classes_span_blocks_and_verdicts(self):
        sides = [(_count_side(p.a, p.b, p.m, p.S), _count_side(p.c, p.d, p.n, p.S))
                 for p in self.CLASSES]
        assert min(map(min, sides)) >= 12 and max(map(max, sides)) >= 200
        assert [first_failing_pair(p) is None for p in self.CLASSES] == [True, True, False, False, False]

    @pytest.mark.parametrize("block_cells,spot_cells", [(1, 1), (7, 3), (40, 16), (300, 100)])
    def test_small_blocks_match_scalar_reference(self, monkeypatch, fresh_caches,
                                                 block_cells, spot_cells):
        monkeypatch.setattr(enumeration, "BLOCK_CELLS", block_cells)
        monkeypatch.setattr(enumeration, "SPOT_CELLS", spot_cells)
        for params in self.CLASSES:
            assert oracle_pair(params) == first_failing_pair(params), params

    @pytest.mark.parametrize("block_cells", [1, 40, 1 << 16])
    def test_witness_search_past_the_first_rows(self, monkeypatch, fresh_caches, block_cells):
        # On a real class the first pair fails whenever any does (it is the
        # canonical pair), so lower per-k minimum caps stand in for the right
        # side: the largest prefix sums of the first t left rows.  The first
        # left row above them and its first failing right row must match a
        # scalar search.
        monkeypatch.setattr(enumeration, "BLOCK_CELLS", block_cells)
        for params in self.CLASSES:
            a, b, c, d, m, n, S = params
            lefts, rights = side_rows(a, b, m, S), side_rows(c, d, n, S)
            prefix = np.cumsum(lefts, axis=1)
            for t in range(1, len(lefts), 7):
                caps_min = prefix[:t].max(axis=0)
                i, j, witness = enumeration._first_failure(params, caps_min, len(lefts), len(rights))
                above = np.flatnonzero((prefix > caps_min).any(axis=1))
                want = None
                if above.size:
                    e = DegreeSequence(lefts[above[0]])
                    fails = [(j, v.failing_k) for j, f in enumerate(rights)
                             if not (v := zz_check(e, DegreeSequence(f))).graphic]
                    if fails:
                        want = (int(above[0]), *fails[0], e.as_tuple(), tuple(rights[fails[0][0]]))
                got = (i, j) if witness is None else (
                    i, j, witness.failing_k, witness.left.as_tuple(), witness.right.as_tuple())
                assert got == (want or (len(lefts), 0)), (params, t)

    @pytest.mark.parametrize("side,delta", [("_left_tables", -1), ("_left_tables", 1),
                                            ("_right_caps", -1), ("_right_caps", 1)])
    def test_off_by_one_reduction_raises(self, monkeypatch, fresh_caches, side, delta):
        # Every class of the limit-4 grid fits in one spot sample, so the
        # spot checks cover every pair: a vector one off either leaves the
        # answer right or raises.
        reduce = getattr(enumeration, side)

        def off_by_one(*args):
            vector, *rest = reduce(*args)
            return vector + delta, *rest

        off_by_one.cache_clear = reduce.cache_clear
        monkeypatch.setattr(enumeration, side, off_by_one)
        raised = 0
        for params in grid_params(4):
            if not class_nonempty(params):
                continue
            try:
                got = oracle_pair(params)
            except RuntimeError as exc:
                assert "disagreed with the full dominance test" in str(exc)
                raised += 1
            else:
                assert got == first_failing_pair(params), params
        assert raised > 0


def shifted_zz_check(x, y, zz_check=zz_check):
    verdict = zz_check(x, y)
    return verdict._replace(failing_k=verdict.failing_k + 1)


# The same check under ``python -O``, which strips assert statements.
OPTIMIZED_CHECK = """
import bgseq.enumeration as enumeration
from bgseq import ClassParams

def shifted_zz_check(x, y, zz_check=enumeration.zz_check):
    verdict = zz_check(x, y)
    return verdict._replace(failing_k=verdict.failing_k + 1)

assert False, "this script runs under python -O"
enumeration.zz_check = shifted_zz_check
try:
    enumeration.brute_force_all_graphic(ClassParams(4, 1, 4, 1, 4, 4, 10))
except RuntimeError as exc:
    print(exc)
"""


class TestSelfChecks:
    """The oracle's own checks raise RuntimeError, not AssertionError, so
    ``python -O`` keeps them."""

    PARAMS = ClassParams(4, 1, 4, 1, 4, 4, 10)

    def test_witness_failing_at_another_k_raises(self, monkeypatch):
        monkeypatch.setattr(enumeration, "zz_check", shifted_zz_check)
        with pytest.raises(RuntimeError, match="scalar tests disagreed with the witness.*this is a bug"):
            brute_force_all_graphic(self.PARAMS)

    def test_witness_passing_gale_ryser_raises(self, monkeypatch):
        monkeypatch.setattr(enumeration, "gale_ryser", lambda e, f: PairVerdict(True, None, True))
        with pytest.raises(RuntimeError, match="scalar tests disagreed with the witness.*this is a bug"):
            brute_force_all_graphic(self.PARAMS)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_side_walked_short_or_long_raises(self, delta):
        count = _count_side(4, 1, 4, 10)
        with pytest.raises(RuntimeError, match=f"rows of a side counted {count + delta}; this is a bug"):
            enumeration._reduce(4, 1, 4, 10, count + delta, None, np.maximum)

    def test_checks_survive_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECK],
                              capture_output=True, text=True, timeout=60, check=True)
        assert "this is a bug" in proc.stdout, proc.stderr


# Runs bgseq.cli.main on argv[1:] in a fresh interpreter limited to 1 GiB of
# address space, with stdout to wherever the caller points it, and prints to
# stderr the exit code and the process's peak resident set (VmHWM) in KiB.
ORACLE_PEAK = PEAK_KIB + """
import resource
import sys

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from bgseq.cli import main

code = main(sys.argv[1:])
sys.stdout.flush()
print(code, peak_kib(), file=sys.stderr)
"""


def oracle_peak_kib(*argv):
    proc = subprocess.run([sys.executable, "-c", ORACLE_PEAK, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=300, check=True)
    code, peak = map(int, proc.stderr.split())
    assert code == 0
    return peak


class TestOracleMemory:
    """The oracle holds one block of a side, two spot samples and caches of
    bounded size, not the class."""

    def test_sweep_of_one_pair_classes(self):
        # 2,048 classes of one pair each, both sides of length 2,048.
        assert oracle_peak_kib("sweep", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
                               "-m", "2048", "-n", "2048", "--verify") <= 64 * 1024

    @pytest.mark.wide_grid
    def test_class_of_two_million_pairs(self):
        # A left side of 1,943,488 sequences of length 26 against one right
        # sequence.
        assert oracle_peak_kib("check-class", "-a", "11", "-b", "1", "-c", "2", "-d", "1",
                               "-m", "26", "-n", "100", "-S", "156", "--verify") <= 128 * 1024


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
