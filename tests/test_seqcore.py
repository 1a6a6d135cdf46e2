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

    @pytest.mark.parametrize("entries", [[[3, 2], [1, 0]], [[3], [2]], 3], ids=["2-D", "column", "0-D"])
    def test_array_of_other_shape_refused(self, entries):
        # Refused as an array of any other dtype is, not read as a sequence.
        for dtype in (np.int64, np.int32):
            with pytest.raises(TypeError):
                DegreeSequence(np.array(entries, dtype=dtype))

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


# Parses item * count + tail in a fresh interpreter with MAX_INPUT set to
# bound, after numpy is loaded and one short text is parsed, and prints the
# refusal or the entries' count and sum, and how far the parse raised VmHWM,
# the peak resident set, in KiB.
PARSE_GROWTH = helpers.PEAK_KIB + """
import sys
import bgseq.cli as cli

bound, item, count, tail = sys.argv[1:]
cli.MAX_INPUT = int(bound)
cli.parse_sequence_arg(" 1,2^2")
text = item * int(count) + tail
before = peak_kib()
try:
    entries = cli.parse_sequence_arg(text)
    print(f"{entries.size} entries summing to {entries.sum()}")
except ValueError as exc:
    print(f"{type(exc).__name__}: {exc}")
print(peak_kib() - before)
"""


def parse_in_fresh_process(bound, item, count, tail):
    """(the refusal as 'Class: message', or the entries' count and sum, and
    the parse's peak growth in bytes)."""
    proc = subprocess.run([sys.executable, "-c", PARSE_GROWTH, str(bound), item, str(count), tail],
                          capture_output=True, text=True, timeout=60, check=True)
    refusal, growth = proc.stdout.splitlines()
    return refusal, int(growth) * 1024


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

    @pytest.mark.parametrize("item,tail,mib,message", [
        (" 1000,", " 1000", 32, f"LimitExceeded: sequence length {MAX_INPUT + 1} exceeds {MAX_INPUT}"),
        ("1,", "x", 12, f"ValueError: cannot parse sequence item 'x' (item {MAX_INPUT + 1})"),
        (" 1,", "x", 12, f"ValueError: cannot parse sequence item 'x' (item {MAX_INPUT + 1})"),
    ], ids=["long", "bad-item", "bad-item-not-plain"])
    def test_long_text_that_is_not_plain(self, item, tail, mib, message):
        # Items past MAX_INPUT entries are parsed but not kept, and the
        # message names the bad item by its position, not by quoting the text.
        # Only the last piece of the [bad-item] text is read item by item;
        # every piece of the other two is, and their bounds sit below what
        # keeping every item as a Python int until the end would grow by.
        refusal, growth = parse_in_fresh_process(MAX_INPUT, item, MAX_INPUT, tail)
        assert refusal == message
        assert len(message.encode()) < 100
        assert growth < mib * 2**20

    @pytest.mark.parametrize("text,size,value", [
        (" 1000," * (MAX_INPUT - 1) + " 1000", MAX_INPUT, 1000),
        (f"5^{MAX_INPUT}", MAX_INPUT, 5),
        (" 1000," * 349_568 + " 1000", 349_569, 1000),
    ], ids=["spaced", "one-run", "spaced-349569"])
    def test_text_that_is_not_plain_peaks_near_its_entries(self, text, size, value):
        # Each piece read item by item goes straight into the one array of
        # entries, sized to the sequence: no piece is kept as an array of its
        # own and copied into it at the end, and the array is not grown by
        # doubling: the spaced text has 5,462 items a piece, so 349,569
        # entries is one past 64 pieces, where a doubling array would hold
        # nearly twice them.  10 MiB at MAX_INPUT.
        parse_sequence_arg(" 1,2^2")
        tracemalloc.start()
        try:
            entries = parse_sequence_arg(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entries.size == size and entries.min() == entries.max() == value
        assert peak <= 8 * size + 2 * 2**20

    def test_plain_text_ending_in_one_run(self):
        # Only the last piece goes through int(); the plain ones before it are
        # counted, then read one at a time into the array of entries.
        result, growth = parse_in_fresh_process(MAX_INPUT, "1000,", MAX_INPUT - 1, "2^1")
        assert result == f"{MAX_INPUT} entries summing to {1000 * (MAX_INPUT - 1) + 2}"
        assert growth < 8 * 2**20

    def test_items_past_the_bound_are_not_kept(self):
        # With the bound lowered to 10^4, 3 * 10^5 items would keep about
        # 5 MB of values and counts; only one piece of the text is held.
        refusal, growth = parse_in_fresh_process(10_000, " 1,", 299_999, " 1")
        assert refusal == "LimitExceeded: sequence length 300000 exceeds 10000"
        assert growth < 3 * 2**20

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
        # The text is one piece, and every item of it but the last is plain:
        # the last one sends the whole piece through int().
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
        "1," * 40_000 + "x",
        "5," * _PLAIN_PIECE + "4^3,1",
        " 1," + "1," * _PLAIN_PIECE + "1",
    ])
    def test_text_longer_than_one_gate_piece(self, text):
        # Plain pieces and others in any order: a bad item two plain pieces in
        # is item 40,001, a run follows plain pieces, plain pieces follow one
        # read item by item.
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
