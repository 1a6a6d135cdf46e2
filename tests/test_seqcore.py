"""Sequence validation, block form, min-cap sums, and class arithmetic."""

import subprocess
import sys
import tracemalloc
import warnings

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
    s_range,
    to_blocks,
    validate_sequence,
)
import bgseq.cli as cli
import bgseq.kernels as kernels
from bgseq.cli import _PLAIN_PIECE, EXIT_INVALID, parse_sequence_arg
from bgseq.enumeration import _walk
from bgseq.seqcore import _side_nonempty
import helpers
from helpers import reference_sequence_input


def decseq(max_len=12, max_val=12, min_val=0):
    return st.lists(
        st.integers(min_value=min_val, max_value=max_val), min_size=1, max_size=max_len
    ).map(lambda xs: DegreeSequence(sorted(xs, reverse=True)))


def caps(f: DegreeSequence, kmax: int) -> list[int]:
    """sum_i min(k, f_i) for k = 0..kmax, from the cap table the pair tests
    and the oracle read."""
    return [0, *kernels.cap_sum_rows(f.values.reshape(1, -1), kmax)[0].tolist()]


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

    def test_unsorted_message_is_short(self):
        with pytest.raises(NotDecreasing) as info:
            DegreeSequence(np.arange(MAX_INPUT))
        assert str(info.value) == "entries are not in decreasing order: entry 2 is 1, after 0"

    def test_length_checked_before_order(self):
        with pytest.raises(LimitExceeded, match=f"^sequence length {MAX_INPUT + 1} exceeds"):
            DegreeSequence(np.arange(MAX_INPUT + 1))

    @pytest.mark.parametrize("entries", [[2**63], [3, -(2**63) - 1], [2**70, -1]])
    def test_beyond_int64_refused(self, entries):
        with pytest.raises(LimitExceeded, match="supported bound"):
            validate_sequence(entries, strict=False)

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


# Items the CLI must read exactly as int() does, or refuse with the message
# the per-token reference gives.
HOSTILE_ITEMS = [
    "1.0", "--1", "1e3", "", " ", "^", "3^0", "3^-1", "4^", "^2", "4^2^3", "x", "1\x00", "0x10",
    " 3 ", "\t5\n", "1_000", "+3", "\u0663", "-2", "-0", "0",
    "99999999999999999999", "-99999999999999999999", "9223372036854775807", "9223372036854775808",
    str(MAX_INPUT), str(MAX_INPUT + 1), f"1^{MAX_INPUT}", f"2^{MAX_INPUT + 1}",
    "3^99999999999999999999", "007", "00", "1" * 18, "1" * 19, "1" * 20, "1,",
]
ITEMS = st.one_of(
    st.integers(-3, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 4)).map(lambda vc: f"{vc[0]}^{vc[1]}"),
    st.sampled_from(HOSTILE_ITEMS),
)


def both_paths(text, strict):
    """(reference outcome, CLI input path outcome): the entries and the
    sorted flag, or the exception's class and message."""
    outcomes = []
    for read in (lambda: reference_sequence_input(text, strict),
                 lambda: validate_sequence(parse_sequence_arg(text), strict=strict)):
        try:
            entries, was_sorted = read()
            outcomes.append((list(entries), was_sorted))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestSequenceInputPath:
    @given(st.lists(ITEMS, min_size=1, max_size=8).map(",".join), st.booleans())
    def test_matches_per_token_reference(self, text, strict):
        want, got = both_paths(text, strict)
        assert got == want

    @pytest.mark.parametrize("strict", [True, False])
    def test_each_hostile_item_in_every_position(self, strict):
        for item in HOSTILE_ITEMS:
            for text in (item, f"{item},2", f"2,{item}", f"1,{item},3", f"-1,{item}"):
                want, got = both_paths(text, strict)
                assert got == want, text

    def test_plain_text_longer_than_bound(self):
        # Refused from its item count, before anything sized by the text is built.
        for item in ("1", "10"):
            text = ",".join([item] * (MAX_INPUT + 1))
            tracemalloc.start()
            try:
                with pytest.raises(LimitExceeded, match=f"^sequence length {MAX_INPUT + 1} exceeds {MAX_INPUT}$"):
                    parse_sequence_arg(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, item

    def test_long_text_that_is_not_plain(self):
        # Items past MAX_INPUT entries are parsed but not kept, and the
        # message names the bad item by its position, not by quoting the text.
        cases = [
            (",".join([" 1000"] * (MAX_INPUT + 1)), LimitExceeded,
             f"sequence length {MAX_INPUT + 1} exceeds {MAX_INPUT}"),
            ("1," * MAX_INPUT + "x", ValueError,
             f"cannot parse sequence item 'x' (item {MAX_INPUT + 1})"),
        ]
        for text, error, message in cases:
            tracemalloc.start()
            try:
                with pytest.raises(error) as info:
                    parse_sequence_arg(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value) == message
            assert len(message.encode()) < 100
            assert peak < 32 * 2**20, message

    def test_items_past_the_bound_are_not_kept(self, monkeypatch):
        # With the bound lowered to 10^4, 3 * 10^5 items would keep about
        # 5 MB of values and counts; only one piece of the text is held.
        monkeypatch.setattr(cli, "MAX_INPUT", 10_000)
        text = ",".join([" 1"] * 300_000)
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceeded, match="^sequence length 300000 exceeds 10000$"):
                parse_sequence_arg(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("bad", ["1" * 20, "2^3", "x"])
    def test_item_past_the_bound_still_counts(self, bad, monkeypatch):
        # Once items are no longer kept, an entry beyond int64 still outranks
        # the length, a run still raises where it stands and a bad item is
        # still named by its position (30,001, three pieces in).
        for module in (cli, helpers):
            monkeypatch.setattr(module, "MAX_INPUT", 10_000)
        want, got = both_paths(" 1," * 30_000 + bad, strict=False)
        assert got == want

    @pytest.mark.parametrize("bad", ["x", "", "1" * 19, " 3", "+3", "3^2", "-1", "1.0"])
    def test_long_plain_text_ending_in_one_bad_item(self, bad):
        # Every item before the last one is plain, so the gate reads the
        # whole text before it sends it item by item.
        want, got = both_paths(",".join(["5"] * 10_000 + [bad]), strict=False)
        assert got == want

    @pytest.mark.parametrize("text", [
        "1," * _PLAIN_PIECE + "1",
        "1," * (_PLAIN_PIECE // 2) + "1" * 18 + ",1",
        "1," * (_PLAIN_PIECE // 2 - 1) + "1" * 19 + ",1",
        "1," * (_PLAIN_PIECE // 2) + "1" * 40 + "," + "1," * 10 + "1",
        "1," * _PLAIN_PIECE,
        "1," * (_PLAIN_PIECE // 2 + 9) + ",1",
        "0" * (_PLAIN_PIECE + 3) + "1",
    ])
    def test_text_longer_than_one_gate_piece(self, text):
        want, got = both_paths(text, strict=False)
        assert got == want

    def test_plain_text_reads_without_warning(self):
        texts = ["0", "007,00,3", ",".join(["9" * 18] * 3), ",".join(map(str, range(50_000, -1, -1)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in texts:
                assert parse_sequence_arg(text).tolist() == [int(item) for item in text.split(",")]

    def test_returns_int64_array(self):
        for text in ("4,4,1,1", "4^2,1^2", " 7 ,+3,1_0"):
            assert parse_sequence_arg(text).dtype == np.int64


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
        [([2, 2], 1, 2), ([4, 4, 1, 1], 2, 6), ([3, 3, 1, 1], 3, 8)],
    )
    def test_examples(self, entries, k, expected):
        assert caps(DegreeSequence(entries), k)[k] == expected

    @given(decseq())
    def test_monotone_and_concave(self, f):
        steps = np.diff(caps(f, 26))
        assert np.all((steps >= 0) & (steps <= len(f)))
        assert np.all(np.diff(steps) <= 0)

    @given(decseq())
    def test_saturates_at_largest(self, f):
        assert caps(f, f.largest + 3)[f.largest:] == [f.total] * 4


class TestBlocks:
    @pytest.mark.parametrize(
        "entries,blocks",
        [
            ([3, 2, 2, 1], ((3, 1), (2, 2), (1, 1))),
            ([5, 5, 5], ((5, 3),)),
            ([4, 4, 1, 1], ((4, 2), (1, 2))),
            ([7], ((7, 1),)),
            ([0], ((0, 1),)),
            ([0, 0, 0], ((0, 3),)),
            ([3, 0], ((3, 1), (0, 1))),
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
        assert min(c for _, c in form.blocks) >= 1

    def test_boundaries(self):
        assert to_blocks(DegreeSequence([3, 2, 2, 1])).boundaries() == (1, 3, 4)

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
