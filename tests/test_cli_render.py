"""Output rendering at scale: sequences by run, the canonical pair through
the CLI up to MAX_INPUT, and class commands with every flag filled in."""

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgseq import (
    MAX_INPUT,
    BipartiteRealization,
    BlockForm,
    ClassParams,
    DegreeSequence,
    Verdict,
    canonical_pair,
    gale_ryser,
    realize,
    theorem_main,
    to_blocks,
)
from bgseq.cli import (
    _PIECE,
    _edge_runs,
    _edges_json,
    _edges_text,
    _json_runs,
    format_runs,
    main,
    parse_sequence_arg,
)
from helpers import (
    PEAK_KIB,
    batch_boundary_pairs,
    random_decreasing,
    reference_realize_edges,
    structured_graphic_pairs,
    tie_heavy_graphic_pairs,
)


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


def graphic_pair_text(n, p, seed):
    """A graphic pair as CLI text: seeded Binomial(n, p) left degrees, and
    right degrees as even as their sum allows, so every prefix of the left
    side fits under the right side's caps."""
    left = np.sort(np.random.default_rng(seed).binomial(n, p, size=n))[::-1]
    q, r = divmod(int(left.sum()), n)
    return ",".join(map(str, left.tolist())), ",".join([str(q + 1)] * r + [str(q)] * (n - r))


def answer_peak(argv):
    """A call's exit code, stdout, and the peak of memory traced while it
    ran, in bytes.  The parser is built before tracing starts."""
    call(["check-pair", "--left", "1", "--right", "1"])
    tracemalloc.start()
    try:
        code, out, _ = call(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, peak


# Runs bgseq.cli.main on argv[1:] in a fresh interpreter, with stdout to
# wherever the caller points it, after numpy is loaded and one small call
# has run, and prints to stderr the exit code and how far the call raised
# VmHWM, the peak resident set, in KiB.
ANSWER_GROWTH = PEAK_KIB + """
import sys
from bgseq.cli import main

main(["check-pair", "--left", "1", "--right", "1", "--realize", "--json"])
before = peak_kib()
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, peak_kib() - before, file=sys.stderr)
"""


class TestAnswerPeakMemory:
    """Each answer streams: its pieces are written as they are made, a
    sequence run in repeats of at most _PIECE characters and an edge list in
    runs of at most _PIECE // 8 edges, so an answer holds its runs and one
    piece, not its own size.  The traced peaks of the large answers stay
    within bounds set below what one copy of the answer, or the (|E|, 2)
    edge array, took; the resident growth of a 2^25-edge answer stays flat,
    and that of a class answer whose runs hold 2^20 entries stays below one
    run's text."""

    @pytest.mark.parametrize("command", ["check-class", "canonical"])
    def test_class_runs_of_2_20_entries(self, command):
        # E = (3^349525, 1^1, 0^699050), the same for F: 4.2 MB of JSON
        # answer to os.devnull, of which the text of the run of zeros alone
        # is 1.4 MB.
        m = 1 << 20
        argv = class_argv(command, ClassParams(3, 0, 3, 0, m, m, m)) + ["--json"]
        proc = subprocess.run([sys.executable, "-c", ANSWER_GROWTH, *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        code, growth = map(int, proc.stderr.split())
        assert code == 0
        assert growth <= 512

    @pytest.mark.parametrize("argv", [
        ["realize", "--left", "1024^32768", "--right", "32768^1024"],
        ["check-pair", "--left", "1024^32768", "--right", "32768^1024", "--realize", "--json"],
    ], ids=["realize", "check-pair-realize-json"])
    def test_edge_list_of_2_25_edges(self, argv):
        # K(32768, 1024): 0.3 to 0.4 GB of answer to os.devnull, in 32,768
        # runs of 1,024 edges.
        proc = subprocess.run([sys.executable, "-c", ANSWER_GROWTH, *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        code, growth = map(int, proc.stderr.split())
        assert code == 0
        assert growth <= 32 * 1024

    def test_realize_json(self):
        left, right = graphic_pair_text(2000, 0.05, seed=11)
        code, out, peak = answer_peak(["check-pair", "--left", left, "--right", right,
                                       "--realize", "--json"])
        assert code == 0 and len(json.loads(out)["edges"]) > 150_000
        assert peak <= 6 * 2**20

    def test_realize_text(self):
        left, right = graphic_pair_text(2000, 0.05, seed=11)
        code, out, peak = answer_peak(["realize", "--left", left, "--right", right])
        assert code == 0 and out.count("\n") > 150_000
        assert peak <= 5 * 2**20

    def test_pair_json(self):
        left, right = graphic_pair_text(8000, 0.05, seed=12)
        code, out, peak = answer_peak(["check-pair", "--left", left, "--right", right, "--json"])
        assert code == 0 and json.loads(out)["left"] == [int(v) for v in left.split(",")]
        assert peak <= 2**20

    def test_class_json(self):
        m = 1 << 19
        code, out, peak = answer_peak(class_argv("check-class", ClassParams(9, 1, 7, 1, m, m, 3 * m // 2))
                                      + ["--json"])
        assert code in (0, 1) and len(json.loads(out)["E"]) == m
        assert peak <= 6 * 2**20


class TestEdgeRendering:
    def test_matches_plain_rendering(self, monkeypatch):
        # Edge lists are written by runs of right ends, straight from the
        # realization's runs; the bytes match a plain rendering of the
        # reference greedy's edges, edge by edge, and the (|E|, 2) array is
        # never built.
        def expanded(self):
            raise AssertionError("the CLI expanded the edge array")

        monkeypatch.setattr(BipartiteRealization, "edges", property(expanded))
        shapes = set()
        for e, f in [*tie_heavy_graphic_pairs(200, seed=41), *structured_graphic_pairs(150, seed=42),
                     *batch_boundary_pairs(200, seed=43)]:
            edges = reference_realize_edges(e, f)
            left, right = e.values.tolist(), f.values.tolist()
            sides = ["--left", ",".join(map(str, left)), "--right", ",".join(map(str, right))]
            lines = "".join(f"{u} {v}\n" for u, v in edges)
            plain = json.dumps(edges, separators=(",", ":"))
            pair = json.dumps({"left": left, "right": right, "graphic": True, "sums_equal": True,
                               "edges": edges}, separators=(",", ":"))
            assert call(["realize", *sides]) == (0, lines, "")
            assert call(["realize", *sides, "--json"]) == (0, f'{{"edges":{plain}}}\n', "")
            assert call(["check-pair", *sides, "--realize"]) == (0, "graphic\n" + lines, "")
            assert call(["check-pair", *sides, "--realize", "--json"]) == (0, pair + "\n", "")
            breaks = [a[0] == b[0] and b[1] > a[1] + 1 for a, b in zip(edges, edges[1:])]
            shapes.add((bool(edges), 0 in left, any(breaks)))
        assert {(False, True, False), (True, True, True), (True, False, True),
                (True, False, False)} <= shapes

    @pytest.mark.parametrize("left,right", [
        ("65536^16", "16^65536"), ("2048^3", "3^2048"),
        ("2049^3", "3^2049"), ("4097^2,1", "3,2^4096"),
    ])
    def test_runs_over_a_piece_are_cut(self, left, right):
        # A run of more than _PIECE // 8 edges is written as consecutive runs
        # of at most that many, to the bytes of a plain rendering of the
        # realization's runs; a run of exactly that many stays whole.
        real = realize(*(DegreeSequence(parse_sequence_arg(side)) for side in (left, right)))
        edges = [(u, v) for u, lo, hi in real.edge_runs.tolist() for v in range(lo, hi)]
        assert max(hi - lo for _, lo, hi in real.edge_runs.tolist()) >= _PIECE // 8
        cut = list(_edge_runs(real))
        assert [(u, int(v)) for u, cols in cut for v in cols] == edges
        assert max(len(cols) for _, cols in cut) <= _PIECE // 8
        assert "".join(_edges_text(real)) == "".join(f"{u} {v}\n" for u, v in edges)
        assert "".join(_edges_json(real)) == '"edges":' + json.dumps(edges, separators=(",", ":"))

    def test_real_pipe_matches_in_process_answers(self):
        # Answers written in pieces through the TextIOWrapper of a real
        # process's stdout: the bytes are those of an in-process call, and
        # of a plain rendering of the edges.
        left, right = graphic_pair_text(640, 0.05, seed=13)
        e, f = (DegreeSequence(parse_sequence_arg(side)) for side in (left, right))
        edges = realize(e, f).edges.tolist()
        assert 15_000 < len(edges) < 25_000
        sides = ["--left", left, "--right", right]
        pair = {"left": e.values.tolist(), "right": f.values.tolist(), "graphic": True,
                "sums_equal": True, "edges": edges}
        m = 1 << 16
        class_call = class_argv("check-class", ClassParams(9, 1, 7, 1, m, m, 3 * m // 2)) + ["--json"]
        cases = [
            (["realize", *sides], "".join(f"{u} {v}\n" for u, v in edges)),
            (["realize", *sides, "--json"], json.dumps({"edges": edges}, separators=(",", ":")) + "\n"),
            (["check-pair", *sides, "--realize", "--json"], json.dumps(pair, separators=(",", ":")) + "\n"),
            (class_call, None),
        ]
        for argv, expected in cases:
            code, out, err = call(argv)
            proc = subprocess.run([sys.executable, "-m", "bgseq.cli", *argv],
                                  capture_output=True, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
            if expected is None:
                obj = json.loads(out)
                assert len(obj["E"]) == m
                expected = json.dumps(obj, separators=(",", ":")) + "\n"
            assert out == expected


@st.composite
def long_run_blocks(draw):
    """BlockForms of one to four runs, cells of 2 to 8 characters, each run
    either short or up to three pieces long, with counts drawn near whole
    pieces as often as anywhere."""
    digits = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    values = sorted({draw(st.integers(10 ** (d - 1) if d > 1 else 0, min(10**d - 1, MAX_INPUT)))
                     for d in digits}, reverse=True)
    blocks = []
    for v in values:
        per = _PIECE // len(f"{v},")
        count = draw(st.one_of(st.integers(1, 3 * per),
                               st.builds(lambda j, step: max(1, j * per + step),
                                         st.integers(0, 3), st.integers(-1, 1))))
        blocks.append((v, count))
    return BlockForm(tuple(blocks))


class TestJsonRuns:
    @settings(max_examples=60, deadline=None)
    @given(long_run_blocks())
    def test_long_runs_are_written_in_pieces(self, blocks):
        pieces = list(_json_runs(blocks))
        expanded = [v for v, c in blocks.blocks for _ in range(c)]
        assert "".join(pieces) == json.dumps(expanded, separators=(",", ":"))
        assert max(map(len, pieces)) <= _PIECE

    def test_matches_json_dumps(self):
        rng = np.random.default_rng(21)
        arrays = [np.array([v]) for v in (0, 7, 10, MAX_INPUT)] + [np.zeros(9, dtype=np.int64)]
        # One run per entry, and one run of MAX_INPUT entries.
        arrays += [np.arange(8_000, 0, -1), np.full(MAX_INPUT, 1)]
        for width in range(1, 8):
            low, high = 10 ** (width - 1), min(10**width - 1, MAX_INPUT)
            values = np.append(rng.integers(0, high + 1, size=300), [low, high])
            arrays.append(np.sort(values)[::-1])
        for _ in range(200):
            values = rng.integers(0, MAX_INPUT + 1, size=int(rng.integers(1, 400)))
            arrays.append(np.sort(values)[::-1])
        for values in arrays:
            text = "".join(_json_runs(to_blocks(DegreeSequence(values))))
            assert text == json.dumps(values.tolist(), separators=(",", ":"))


class TestFormatRuns:
    @pytest.mark.parametrize(
        "entries,text",
        [([7], "7"), ([0], "0"), ([0, 0, 0], "0^3"), ([5, 5, 5], "5^3"), ([3, 0], "3,0")],
    )
    def test_examples(self, entries, text):
        assert format_runs(DegreeSequence(entries)) == text

    def test_runs_read_back_as_the_sequence(self):
        # Adjacent runs differ in value, and a run of one entry has no count.
        for seq in random_decreasing(3_000, seed=4):
            text = format_runs(seq)
            assert np.array_equal(parse_sequence_arg(text), seq.values), seq
            runs = [item.partition("^") for item in text.split(",")]
            assert all(run[0] != after[0] for run, after in zip(runs, runs[1:])), text
            assert all(not mark or int(count) > 1 for _, mark, count in runs), text

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
