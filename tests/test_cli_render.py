"""Output rendering at scale: sequences by run, the canonical pair through
the CLI up to MAX_INPUT, and class commands with every flag filled in."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgseq import (
    MAX_INPUT,
    ClassParams,
    DegreeSequence,
    Verdict,
    canonical_pair,
    gale_ryser,
    theorem_main,
    to_blocks,
)
from bgseq.cli import format_runs, main
from helpers import random_decreasing, reference_format_runs


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def class_argv(command, params):
    return [command] + [
        token
        for flag, value in zip("abcdmnS", (params.a, params.b, params.c, params.d,
                                           params.m, params.n, params.S))
        for token in (f"-{flag}", str(value))
    ]


class TestFormatRuns:
    def test_matches_entrywise_definition(self):
        sequences = [DegreeSequence(v) for v in ([7], [0], [0, 0, 0], [5, 5, 5], [3, 0])]
        sequences += list(random_decreasing(3_000, seed=4))
        for seq in sequences:
            assert format_runs(seq) == reference_format_runs(seq), seq

    def test_blocks_render_like_their_sequence(self):
        for seq in random_decreasing(500, seed=5):
            assert format_runs(to_blocks(seq)) == format_runs(seq)

    def test_long_canonical_class_text_is_sized_by_its_runs(self):
        # Three runs a side: the text renders without touching 2^20 entries.
        m = 1 << 19
        argv = class_argv("check-class", ClassParams(3, 1, 3, 1, m, m, 1 << 20))
        tracemalloc.start()
        try:
            code, out, _ = call(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert f"canonical pair: E = 3^{m // 2},1^{m // 2}  F = 3^{m // 2},1^{m // 2}" in out
        assert peak < 256 * 1024


@st.composite
def general_classes(draw):
    """Nonempty classes with a > b and c > d, lengths log-uniform up to
    MAX_INPUT so that long classes are drawn as often as short ones."""

    def length():
        k = draw(st.integers(1, 20))
        return draw(st.integers(max(2, 1 << (k - 1)), 1 << k))

    m, n = length(), length()
    a = draw(st.integers(1, n))
    b = draw(st.integers(0, min(a - 1, (MAX_INPUT - a) // (m - 1))))
    c = draw(st.integers(1, m))
    d = draw(st.integers(0, min(c - 1, (MAX_INPUT - c) // (n - 1))))
    lo = max(a + b * (m - 1), c + d * (n - 1))
    hi = min(a * (m - 1) + b, c * (n - 1) + d, MAX_INPUT)
    assume(lo <= hi)
    return ClassParams(a, b, c, d, m, n, draw(st.integers(lo, hi)))


class TestCanonicalPairThroughCli:
    @settings(max_examples=60, deadline=None)
    @given(general_classes())
    def test_run_rendered_pair_is_the_canonical_pair(self, params):
        # ROADMAP 4(b), middle leg: the closed form agrees with Gale-Ryser on
        # the canonical pair, which the CLI prints from its runs.
        code, out, _ = call(class_argv("check-class", params) + ["--json"])
        obj = json.loads(out)
        pair = canonical_pair(params)
        assert np.array_equal(np.array(obj["E"], dtype=np.int64), pair.E.values)
        assert np.array_equal(np.array(obj["F"], dtype=np.int64), pair.F.values)
        report = theorem_main(params)
        assert obj["verdict"] == report.verdict.value
        assert code == (0 if report.verdict is Verdict.ALL_GRAPHIC else 1)
        assert (report.verdict is Verdict.ALL_GRAPHIC) == gale_ryser(pair.E, pair.F).graphic


@st.composite
def filled_class_argv(draw):
    """check-class or sweep with every flag present.  Half the draws satisfy
    the class hypotheses (so the class is decided, and with --verify
    enumerated), half take each value from -1 to 64 at random.  Maxima,
    minima and lengths stay at most 64, and --verify always carries a
    --budget of at most 10^4 pairs, so no call scans more than that."""
    command = draw(st.sampled_from(("check-class", "sweep")))
    if draw(st.booleans()):
        a, c = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        b, d = draw(st.integers(0, a)), draw(st.integers(0, c))
        m, n = draw(st.integers(max(c, 1), 64)), draw(st.integers(max(a, 1), 64))
        S = draw(st.integers(max(m * b, n * d) - 1, max(m * b, n * d, min(m * a, n * c)) + 1))
    else:
        a, b, c, d, m, n = (draw(st.integers(-1, 64)) for _ in range(6))
        S = draw(st.integers(-1, 64 * 64 + 1))
    argv = [command] + [
        token for flag, value in zip("abcdmn", (a, b, c, d, m, n))
        for token in (f"-{flag}", str(value))
    ]
    if command == "check-class":
        argv += ["-S", str(S)]
        if draw(st.booleans()):
            argv.append("--json")
    else:
        argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    verify = draw(st.booleans())
    if verify:
        argv.append("--verify")
    if verify or draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-1, 10**4)))]
    return argv


class TestFilledInArgv:
    @settings(max_examples=300, deadline=None)
    @given(filled_class_argv())
    def test_exit_code_stays_in_table(self, argv):
        code, out, err = call(argv)
        assert code in (0, 1, 2, 4)  # 3 would be a criterion/oracle disagreement
        if code == 2:
            assert err.startswith("error: ") and out == ""
