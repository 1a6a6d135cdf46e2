"""Sequence validation, block form, min-cap sums, and class arithmetic."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgseq import (
    MAX_INPUT,
    BlockForm,
    ClassParams,
    DegreeSequence,
    EmptyInput,
    InvalidParams,
    LimitExceeded,
    NegativeEntry,
    NotDecreasing,
    class_nonempty,
    min_cap_sum,
    s_range,
    to_blocks,
    validate_sequence,
)
from bgseq.cli import EXIT_INVALID, parse_sequence_arg
from bgseq.enumeration import _walk
from bgseq.seqcore import _side_nonempty


def decseq(max_len=12, max_val=12, min_val=0):
    return st.lists(
        st.integers(min_value=min_val, max_value=max_val), min_size=1, max_size=max_len
    ).map(lambda xs: DegreeSequence(sorted(xs, reverse=True)))


class TestValidateSequence:
    def test_accepts_decreasing(self):
        seq, was_sorted = validate_sequence([3, 2, 2, 1])
        assert seq == DegreeSequence([3, 2, 2, 1])
        assert not was_sorted

    def test_strict_rejects_unsorted(self):
        with pytest.raises(NotDecreasing):
            validate_sequence([1, 2])

    def test_lenient_sorts_and_flags(self):
        seq, was_sorted = validate_sequence([1, 2], strict=False)
        assert seq == DegreeSequence([2, 1])
        assert was_sorted

    def test_lenient_no_flag_when_sorted(self):
        _, was_sorted = validate_sequence([2, 1], strict=False)
        assert not was_sorted

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            validate_sequence([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_sequence([3, -1])

    def test_limit_enforced(self):
        with pytest.raises(LimitExceeded):
            DegreeSequence([MAX_INPUT + 1])

    @pytest.mark.parametrize("text", [f"1^{MAX_INPUT + 1}", f"1^{MAX_INPUT},1", "3^99999999999"])
    def test_run_length_bounded_before_expanding(self, text):
        with pytest.raises(LimitExceeded):
            parse_sequence_arg(text)

    def test_run_length_at_bound_accepted(self):
        assert len(parse_sequence_arg(f"2^{MAX_INPUT - 1},1")) == MAX_INPUT

    def test_huge_run_exits_invalid_without_traceback(self):
        argv = ["check-pair", "--left", "3^99999999999", "--right", "1"]
        proc = subprocess.run([sys.executable, "-m", "bgseq.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INVALID and "Traceback" not in proc.stderr


class TestDegreeSequence:
    def test_basic_accessors(self):
        seq = DegreeSequence([4, 4, 1, 1])
        assert len(seq) == 4
        assert seq[0] == 4 and seq[-1] == 1
        assert seq.total == 10
        assert seq.largest == 4 and seq.smallest == 1
        assert list(seq) == [4, 4, 1, 1]
        assert seq.as_tuple() == (4, 4, 1, 1)

    def test_equality_and_hash(self):
        assert DegreeSequence([2, 1]) == DegreeSequence(np.array([2, 1], dtype=np.int64))
        assert DegreeSequence([2, 1]) != DegreeSequence([2, 2])
        assert hash(DegreeSequence([2, 1])) == hash(DegreeSequence([2, 1]))

    def test_values_read_only(self):
        seq = DegreeSequence([2, 1])
        with pytest.raises(ValueError):
            seq.values[0] = 5

    def test_rejects_increasing(self):
        with pytest.raises(NotDecreasing):
            DegreeSequence([1, 2])

    def test_zero_entries_allowed(self):
        assert DegreeSequence([2, 0, 0]).smallest == 0


class TestMinCapSum:
    @pytest.mark.parametrize(
        "entries,k,expected",
        [([2, 2], 1, 2), ([4, 4, 1, 1], 2, 6), ([3, 3, 1, 1], 0, 0)],
    )
    def test_examples(self, entries, k, expected):
        assert min_cap_sum(DegreeSequence(entries), k) == expected

    @given(decseq(), st.integers(0, 24))
    def test_monotone_and_concave(self, f, k):
        v0 = min_cap_sum(f, k)
        v1 = min_cap_sum(f, k + 1)
        v2 = min_cap_sum(f, k + 2)
        assert 0 <= v1 - v0 <= len(f)
        assert v2 - v1 <= v1 - v0

    @given(decseq())
    def test_saturates_at_largest(self, f):
        assert min_cap_sum(f, f.largest) == f.total
        assert min_cap_sum(f, f.largest + 3) == f.total

    @given(decseq())
    def test_zero_cap(self, f):
        assert min_cap_sum(f, 0) == 0

    def test_matches_definition(self):
        f = DegreeSequence([5, 3, 3, 2, 0])
        for k in range(8):
            assert min_cap_sum(f, k) == sum(min(k, v) for v in f)


class TestBlocks:
    @pytest.mark.parametrize(
        "entries,blocks",
        [
            ([3, 2, 2, 1], ((3, 1), (2, 2), (1, 1))),
            ([5, 5, 5], ((5, 3),)),
            ([4, 4, 1, 1], ((4, 2), (1, 2))),
        ],
    )
    def test_examples(self, entries, blocks):
        assert to_blocks(DegreeSequence(entries)).blocks == blocks

    @given(decseq())
    def test_round_trip(self, seq):
        form = to_blocks(seq)
        assert form.expand() == seq
        values = [v for v, _ in form.blocks]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        assert sum(c for _, c in form.blocks) == len(seq)

    def test_boundaries(self):
        assert to_blocks(DegreeSequence([3, 2, 2, 1])).boundaries() == (1, 3, 4)

    def test_matches_unique_definition(self):
        from helpers import random_decreasing, reference_blocks

        sequences = [DegreeSequence(v) for v in ([7], [0], [0, 0, 0], [5, 5, 5], [3, 0])]
        for seq in sequences + list(random_decreasing(3_000, seed=6)):
            assert to_blocks(seq).blocks == reference_blocks(seq), seq

    def test_expand_is_exact(self):
        assert BlockForm(((4, 2), (1, 2))).expand() == DegreeSequence([4, 4, 1, 1])


class TestClassNonempty:
    def test_examples(self):
        assert class_nonempty(ClassParams(2, 1, 2, 1, 3, 3, 4))
        assert not class_nonempty(ClassParams(2, 1, 2, 1, 3, 3, 3))
        assert class_nonempty(ClassParams(3, 3, 3, 3, 4, 4, 12))

    def test_side_predicate_matches_generator(self):
        # The exact per-side condition agrees with exhaustive generation.
        for A in range(0, 7):
            for B in range(0, A + 1):
                for L in range(1, 7):
                    for S in range(0, A * L + 2):
                        has_any = next(iter(_walk(A, B, L, S)), None) is not None
                        assert _side_nonempty(L, A, B, S) == has_any, (A, B, L, S)

    def test_exact_implies_loose_range(self):
        # The exact condition forces B*L <= S <= A*L, never conversely.
        strict_somewhere = False
        for A in range(0, 7):
            for B in range(0, A + 1):
                for L in range(2, 7):
                    for S in range(0, A * L + 2):
                        if _side_nonempty(L, A, B, S):
                            assert B * L <= S <= A * L
                        elif B * L <= S <= A * L:
                            strict_somewhere = True
        assert strict_somewhere


class TestSRange:
    def test_examples(self):
        assert s_range(2, 1, 2, 1, 3, 3) == range(3, 7)
        assert s_range(4, 1, 4, 1, 4, 4) == range(4, 17)
        assert s_range(3, 3, 2, 1, 4, 7) == range(12, 13)

    def test_empty_interval_signalled(self):
        assert len(s_range(1, 1, 3, 3, 3, 3)) == 0

    def test_preconditions(self):
        with pytest.raises(InvalidParams):
            s_range(1, 2, 1, 1, 2, 2)
        with pytest.raises(InvalidParams):
            s_range(3, 1, 1, 1, 2, 2)  # n < a

    def test_sums_above_bound(self):
        assert s_range(1, 0, 1, 0, MAX_INPUT, MAX_INPUT)[-1] == MAX_INPUT
        with pytest.raises(LimitExceeded, match="exceed the supported bound"):
            s_range(2, 0, 2, 0, MAX_INPUT, MAX_INPUT)

    def test_checks_match_class_params(self):
        # One validation path: s_range refuses what ClassParams refuses, with
        # the same message, for every shape violation.
        cases = [(3, 4, 1, 1, 4, 4), (2, 1, 3, 4, 4, 4), (5, 1, 1, 1, 4, 4), (1, 1, 5, 1, 4, 5),
                 (2, -1, 2, 1, 3, 3), (2, 1, 2, -1, 3, 3), (2, 1, 2, 1, 0, 3), (2, 1, 2, 1, 3, 0),
                 (-1, -2, 0, 0, 0, 0), (1, 1, 1, 1, MAX_INPUT + 1, MAX_INPUT + 1)]
        for shape in cases:
            with pytest.raises(ValueError) as from_range:
                s_range(*shape)
            with pytest.raises(ValueError) as from_params:
                ClassParams(*shape, S=0)
            assert type(from_range.value) is type(from_params.value)
            assert str(from_range.value) == str(from_params.value)


class TestClassParams:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(a=3, b=4, c=1, d=1, m=4, n=4, S=8), "a >= b"),
            (dict(a=2, b=1, c=3, d=4, m=4, n=4, S=8), "c >= d"),
            (dict(a=5, b=1, c=1, d=1, m=4, n=4, S=4), "n >= a"),
            (dict(a=1, b=1, c=5, d=1, m=4, n=5, S=4), "m >= c"),
            (dict(a=2, b=1, c=2, d=1, m=3, n=3, S=99), "max(m*b, n*d) <= S"),
            (dict(a=2, b=-1, c=2, d=1, m=3, n=3, S=4), "b >= 0"),
            (dict(a=2, b=1, c=2, d=1, m=0, n=3, S=4), "m >= 1"),
        ],
    )
    def test_violations_named(self, kwargs, fragment):
        with pytest.raises(InvalidParams, match=None) as err:
            ClassParams(**kwargs)
        assert fragment in str(err.value)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            ClassParams(a=1, b=1, c=1, d=1, m=MAX_INPUT + 1, n=MAX_INPUT + 1, S=MAX_INPUT + 1)

    def test_frozen_and_hashable(self):
        params = ClassParams(2, 1, 2, 1, 3, 3, 4)
        with pytest.raises(Exception):
            params.a = 5
        assert params == ClassParams(2, 1, 2, 1, 3, 3, 4)
        assert len({params, ClassParams(2, 1, 2, 1, 3, 3, 4)}) == 1
