"""Closed-form criterion, canonical decomposition, smoothing, symmetric test."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgseq import (
    MAX_INPUT,
    BadExtremes,
    Branch,
    ClassParams,
    DegenerateClass,
    DegreeSequence,
    EmptyClass,
    HypothesisViolation,
    LengthMismatch,
    LimitExceeded,
    Verdict,
    canonical_pair,
    canonical_sequence,
    class_nonempty,
    decompose,
    dominates_prefix,
    enum_sequences,
    gale_ryser,
    s_range,
    smooth_step,
    smooth_to_canonical,
    symmetric_sufficient,
    theorem_main,
    to_blocks,
)
from bgseq.criterion import MIN_TERM_NAMES
from helpers import (
    all_decreasing,
    grid_params,
    min_cap_sum,
    random_decreasing,
    random_general_classes,
    random_pair_corpus,
    run_length_graphic,
)


class TestDecompose:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((4, 1, 4, 1, 4, 4, 10), (2, 2, 0, 0)),
            ((2, 1, 2, 1, 3, 3, 4), (1, 1, 0, 0)),
            ((3, 1, 3, 1, 4, 4, 8), (2, 2, 0, 0)),
        ],
    )
    def test_examples(self, params, expected):
        dec = decompose(ClassParams(*params))
        assert (dec.r, dec.s, dec.p, dec.q) == expected

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateClass):
            decompose(ClassParams(3, 3, 2, 1, 4, 7, 12))

    def test_empty_rejected(self):
        with pytest.raises(EmptyClass):
            decompose(ClassParams(2, 1, 2, 1, 3, 3, 3))

    def test_ranges_hold_across_grid(self):
        for params in grid_params(5):
            if params.a == params.b or params.c == params.d:
                continue
            if not class_nonempty(params):
                continue
            dec = decompose(params)  # internal assertions check the ranges
            assert 1 <= dec.r <= params.m - 1
            assert 1 <= dec.s <= params.n - 1

    def test_r_can_reach_or_exceed_other_length(self):
        # The head count of one side is not bounded by the other side's
        # length; the canonical machinery must not assume it is.
        dec = decompose(ClassParams(2, 1, 6, 5, 6, 2, 11))
        assert dec.r == 5 >= 2


class TestCanonicalPair:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((4, 1, 4, 1, 4, 4, 10), (4, 4, 1, 1)),
            ((2, 1, 2, 1, 3, 3, 4), (2, 1, 1)),
            ((3, 1, 3, 1, 4, 4, 8), (3, 3, 1, 1)),
        ],
    )
    def test_symmetric_examples(self, params, expected):
        pair = canonical_pair(ClassParams(*params))
        assert pair.E == DegreeSequence(expected)
        assert pair.F == DegreeSequence(expected)

    def test_membership_across_grid(self):
        for params in grid_params(4):
            if params.a == params.b or params.c == params.d:
                continue
            if not class_nonempty(params):
                continue
            pair = canonical_pair(params)
            assert pair.E.total == params.S and pair.F.total == params.S
            assert (pair.E.largest, pair.E.smallest) == (params.a, params.b)
            assert (pair.F.largest, pair.F.smallest) == (params.c, params.d)
            assert (len(pair.E), len(pair.F)) == (params.m, params.n)


class TestTheoremMain:
    def test_all_graphic_example(self):
        report = theorem_main(ClassParams(2, 1, 2, 1, 3, 3, 4))
        assert report.verdict is Verdict.ALL_GRAPHIC
        assert report.branch is Branch.GENERAL_INEQUALITY
        assert report.lhs == 4 and report.rhs == 5
        assert report.min_term == 0 and report.min_term_argument == "r-p-d"

    def test_not_all_graphic_example(self):
        report = theorem_main(ClassParams(4, 1, 4, 1, 4, 4, 10))
        assert report.verdict is Verdict.NOT_ALL_GRAPHIC
        assert report.lhs == 16 and report.rhs == 14
        assert report.min_term == 0 and report.min_term_argument == "zero"

    def test_degenerate_branch(self):
        report = theorem_main(ClassParams(3, 3, 2, 1, 4, 7, 12))
        assert report.verdict is Verdict.ALL_GRAPHIC
        assert report.branch is Branch.DEGENERATE_EQUAL_EXTREMES
        assert report.lhs is None and report.decomposition is None

    def test_vacuous(self):
        report = theorem_main(ClassParams(2, 1, 2, 1, 3, 3, 3))
        assert report.verdict is Verdict.VACUOUS
        assert report.branch is None

    def test_vacuous_precedes_degenerate(self):
        # a = b forces the left side, but the right side can still be empty.
        params = ClassParams(1, 1, 4, 1, 5, 5, 5)
        assert not class_nonempty(params)
        assert theorem_main(params).verdict is Verdict.VACUOUS

    def test_report_invariants_across_grid(self):
        for params in grid_params(4):
            report = theorem_main(params)
            if report.verdict is Verdict.VACUOUS:
                assert report.branch is None
                continue
            if params.a == params.b or params.c == params.d:
                assert report.branch is Branch.DEGENERATE_EQUAL_EXTREMES
                assert report.verdict is Verdict.ALL_GRAPHIC
            else:
                assert report.branch is Branch.GENERAL_INEQUALITY
                assert (report.verdict is Verdict.ALL_GRAPHIC) == (report.lhs <= report.rhs)

    def test_min_term_identity_and_determinism(self):
        for params in grid_params(5):
            report = theorem_main(params)
            if report.branch is not Branch.GENERAL_INEQUALITY:
                continue
            dec = report.decomposition
            r, s, p, q = dec.r, dec.s, dec.p, dec.q
            b, d = params.b, params.d
            candidates = (r - p - d, s - q - b, r + s - p - q - b - d + 1, 0)
            assert candidates[2] == candidates[0] + candidates[1] + 1
            assert report.min_term == min(candidates)
            assert report.min_term_argument == MIN_TERM_NAMES[candidates.index(min(candidates))]

    def test_long_class_allocates_nothing_sized_by_m(self):
        # The verdict reads the seven parameters only; the O(m) canonical
        # pair (12.5 MB here when it was built inside) is canonical_pair's job.
        m = 1 << 19
        params = ClassParams(3, 1, 3, 1, m, m, 2 * m)
        tracemalloc.start()
        try:
            report = theorem_main(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.branch is Branch.GENERAL_INEQUALITY
        assert peak < 64 * 1024
        pair = canonical_pair(params)
        assert (report.verdict is Verdict.ALL_GRAPHIC) == gale_ryser(pair.E, pair.F).graphic


class TestRunLengthLeg:
    """The closed form against an independent strong-index test on the
    canonical pair's runs, up to MAX_INPUT, with no sequence expanded."""

    def test_run_length_test_matches_gale_ryser(self):
        pairs = list(random_pair_corpus(1_000, seed=31, max_len=30, max_val=8))
        pairs += zip(random_decreasing(1_000, seed=32), random_decreasing(1_000, seed=33))
        verdicts = set()
        for x, y in pairs:
            graphic = gale_ryser(x, y).graphic
            assert run_length_graphic(to_blocks(x), to_blocks(y)) == graphic, (x, y)
            verdicts.add((graphic, x.smallest == 0 or y.smallest == 0))
        assert len(verdicts) == 4

    @pytest.mark.parametrize("count", [10_000, pytest.param(100_000, marks=pytest.mark.wide_grid)])
    def test_closed_form_matches_run_length_test(self, count):
        verdicts = Counter()
        for params in random_general_classes(count, seed=34):
            pair = canonical_pair(params)
            all_graphic = theorem_main(params).verdict is Verdict.ALL_GRAPHIC
            assert run_length_graphic(pair.E_blocks, pair.F_blocks) == all_graphic, params
            verdicts[all_graphic, params.b == 0, params.d == 0, params.m > 1 << 16] += 1
        assert len(verdicts) == 16


class TestDominatesPrefix:
    def test_examples(self):
        assert dominates_prefix(DegreeSequence([3, 2, 2, 1]), DegreeSequence([3, 3, 1, 1]))
        assert dominates_prefix(DegreeSequence([4, 4, 1, 1]), DegreeSequence([4, 4, 1, 1]))
        assert not dominates_prefix(DegreeSequence([3, 3, 1, 1]), DegreeSequence([3, 2, 2, 1]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dominates_prefix(DegreeSequence([1]), DegreeSequence([1, 1]))


class TestSmoothing:
    def test_single_step(self):
        stepped = smooth_step(DegreeSequence([3, 2, 2, 1]), 3, 1)
        assert stepped == DegreeSequence([3, 3, 1, 1])

    def test_fixpoint(self):
        assert smooth_step(DegreeSequence([3, 2, 1]), 3, 1) is None
        assert smooth_step(DegreeSequence([3, 3, 1, 1]), 3, 1) is None

    def test_longer_step(self):
        stepped = smooth_step(DegreeSequence([4, 3, 3, 3, 1]), 4, 1)
        assert stepped == DegreeSequence([4, 4, 3, 2, 1])

    def test_bad_extremes(self):
        with pytest.raises(BadExtremes):
            smooth_step(DegreeSequence([3, 2, 1]), 4, 1)
        with pytest.raises(BadExtremes):
            smooth_step(DegreeSequence([3, 2, 2]), 3, 1)
        with pytest.raises(BadExtremes):
            smooth_step(DegreeSequence([2, 2]), 2, 2)

    @given(
        st.lists(st.integers(1, 9), min_size=2, max_size=10).map(
            lambda xs: sorted(xs, reverse=True)
        )
    )
    def test_step_invariants(self, entries):
        if entries[0] == entries[-1]:
            return
        f = DegreeSequence(entries)
        stepped = smooth_step(f, f.largest, f.smallest)
        if stepped is None:
            return
        assert len(stepped) == len(f)
        assert stepped.total == f.total
        assert stepped.largest == f.largest and stepped.smallest == f.smallest
        assert sum(v * v for v in stepped) > sum(v * v for v in f)
        for k in range(1, f.largest + 2):
            assert min_cap_sum(stepped, k) <= min_cap_sum(f, k)

    @pytest.mark.parametrize(
        "entries,expected,steps",
        [
            ([3, 2, 2, 1], [3, 3, 1, 1], 1),
            ([3, 3, 1, 1], [3, 3, 1, 1], 0),
            ([4, 3, 3, 3, 1], [4, 4, 4, 1, 1], 2),
        ],
    )
    def test_convergence_examples(self, entries, expected, steps):
        f = DegreeSequence(entries)
        assert smooth_to_canonical(f) == DegreeSequence(expected)
        current, count = f, 0
        while (nxt := smooth_step(current, f.largest, f.smallest)) is not None:
            current, count = nxt, count + 1
        assert count == steps

    def test_converges_to_canonical_exhaustive(self):
        for entries in all_decreasing(6, 6):
            if len(entries) < 2 or entries[0] == entries[-1]:
                continue
            f = DegreeSequence(entries)
            want = canonical_sequence(entries[0], entries[-1], len(entries), sum(entries))
            assert smooth_to_canonical(f) == want

    def test_requires_nonconstant(self):
        with pytest.raises(BadExtremes):
            smooth_to_canonical(DegreeSequence([2, 2]))


class TestCanonicalSequence:
    def test_examples(self):
        assert canonical_sequence(3, 1, 4, 8) == DegreeSequence([3, 3, 1, 1])
        assert canonical_sequence(4, 1, 5, 14) == DegreeSequence([4, 4, 4, 1, 1])

    def test_empty_shape_rejected(self):
        with pytest.raises(EmptyClass):
            canonical_sequence(2, 1, 3, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateClass):
            canonical_sequence(2, 2, 3, 6)

    @pytest.mark.parametrize("args,error,message", [
        ((3, -1, 4, 5), ValueError, "requires min >= 0"),
        ((3, 1, MAX_INPUT + 1, MAX_INPUT + 3), LimitExceeded, f"arguments must not exceed {MAX_INPUT}"),
        ((5, 1, 0, 0), ValueError, "requires length >= 1"),
        ((5, 1, -2, 3), ValueError, "requires length >= 1"),
        ((2**21, 1, 3, 7), LimitExceeded, f"arguments must not exceed {MAX_INPUT}"),
    ], ids=["negative-min", "length-past-bound", "length-0", "negative-length", "empty-max-past-bound"])
    def test_side_arguments_refused(self, args, error, message):
        # Arguments that enum_sequences refuses alike, whether or not a
        # sequence of that shape exists: they are checked before emptiness
        # is decided, and the length before anything that long is built.
        tracemalloc.start()
        try:
            with pytest.raises(error, match=f"^{message}$"):
                canonical_sequence(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        with pytest.raises(error, match=f"^{message}$"):
            next(enum_sequences(*args))


class TestSymmetricSufficient:
    def test_examples(self):
        assert symmetric_sufficient(2, 1, 3)
        assert not symmetric_sufficient(4, 1, 4)
        assert symmetric_sufficient(3, 2, 5)

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolation):
            symmetric_sufficient(0, 1, 3)
        with pytest.raises(HypothesisViolation):
            symmetric_sufficient(5, 1, 4)
        with pytest.raises(HypothesisViolation):
            symmetric_sufficient(2, -1, 4)
        with pytest.raises(HypothesisViolation, match="^requires m >= 1$"):
            symmetric_sufficient(0, 0, 0)

    def test_limit(self):
        assert not symmetric_sufficient(MAX_INPUT, 0, MAX_INPUT)
        with pytest.raises(LimitExceeded):
            symmetric_sufficient(MAX_INPUT, 5, MAX_INPUT + 1)

    def test_consistent_with_criterion_small(self):
        for m in range(1, 8):
            for a in range(1, m + 1):
                for b in range(1, a + 1):
                    if not symmetric_sufficient(a, b, m):
                        continue
                    for S in s_range(a, b, a, b, m, m):
                        verdict = theorem_main(ClassParams(a, b, a, b, m, m, S)).verdict
                        assert verdict is not Verdict.NOT_ALL_GRAPHIC, (a, b, m, S)

