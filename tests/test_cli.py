"""CLI contract: exit codes, output formats, CSV and JSON agreement."""

import argparse
import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bgseq.cli as cli
from bgseq.cli import (
    EXIT_INVALID,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_VACUOUS,
    SWEEP_FIELDS,
    VERDICT_EXIT,
    main,
    parse_sequence_arg,
)
from bgseq import ClassParams, Verdict, s_range, theorem_main
from helpers import decode_sweep_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSequenceArgs:
    def test_plain_and_runs(self):
        assert parse_sequence_arg("4,4,1,1").tolist() == [4, 4, 1, 1]
        assert parse_sequence_arg("4^2,1^2").tolist() == [4, 4, 1, 1]
        assert parse_sequence_arg("5^3").tolist() == [5, 5, 5]
        assert parse_sequence_arg("4^2,3,1^2").tolist() == [4, 4, 3, 1, 1]


HEADER = "a,b,c,d,m,n,S,nonempty,r,s,p,q,lhs,rhs,verdict"
BUDGET_HINT = "pass a larger --budget (budget= in the library) to override"
_P = ("-a", "3", "-b", "1", "-c", "3", "-d", "1", "-m", "3", "-n", "3")
_DEGENERATE = ("-a", "2", "-b", "2", "-c", "2", "-d", "1", "-m", "2", "-n", "3")
_SMALL = ("-a", "2", "-b", "1", "-c", "2", "-d", "1", "-m", "2", "-n", "2")
_CLASS_4 = ("-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "4", "-n", "4")
_CLASS_3 = ("-a", "2", "-b", "1", "-c", "2", "-d", "1", "-m", "3", "-n", "3")
_EQUAL_EXTREMES = ("-a", "3", "-b", "3", "-c", "2", "-d", "1", "-m", "4", "-n", "7")


def row(argv, code, lines=(), err=""):
    """One argv's whole answer: the exit code, stdout as lines, stderr."""
    return pytest.param(argv, code, "".join(line + "\n" for line in lines), err, id=" ".join(argv))


# Answers to the byte: key order, separators, empty cells, omitted keys,
# notes and refusals.
EXACT_OUTPUT = [
    row(("check-pair", "--left", "2,2", "--right", "2,2"), EXIT_OK, ["graphic"]),
    row(("check-pair", "--left", "4,4,1,1", "--right", "4^2,1^2"), EXIT_NEGATIVE,
        ["not graphic, failing k=2"]),
    row(("check-pair", "--left", "2,1", "--right", "2,2"), EXIT_NEGATIVE, ["not graphic, sums differ"]),
    row(("check-pair", "--left", "2,2", "--right", "3,1,x"), EXIT_INVALID,
        err="error: cannot parse sequence item 'x' (item 3)\n"),
    row(("check-pair", "--left", "1,2", "--right", "2,1"), EXIT_OK, ["graphic"],
        err="note: left sequence was sorted into decreasing order\n"),
    row(("check-pair", "--left", "1,2", "--right", "2,1", "--strict"), EXIT_INVALID,
        err="error: entries are not in decreasing order: entry 2 is 2, after 1\n"),
    row(("check-pair", "--left", "2,2", "--right", "2,2", "--realize"), EXIT_OK,
        ["graphic", "1 1", "1 2", "2 1", "2 2"]),
    row(("check-pair", "--left", "4^2,1^2", "--right", "4,4,1,1", "--json"), EXIT_NEGATIVE, [
        '{"left":[4,4,1,1],"right":[4,4,1,1],"graphic":false,"sums_equal":true,"failing_k":2}',
    ]),
    # The echo is int()'s reading of each item.
    row(("check-pair", "--left", " 3", "--right", "1^3", "--json"), EXIT_OK,
        ['{"left":[3],"right":[1,1,1],"graphic":true,"sums_equal":true}']),
    row(("check-pair", "--left", "+3", "--right", "1^3", "--json"), EXIT_OK,
        ['{"left":[3],"right":[1,1,1],"graphic":true,"sums_equal":true}']),
    row(("check-pair", "--left", "007", "--right", "1^7", "--json"), EXIT_OK,
        ['{"left":[7],"right":[1,1,1,1,1,1,1],"graphic":true,"sums_equal":true}']),
    row(("check-pair", "--left", "1,3,02", "--right", "2^3", "--json"), EXIT_OK, [
        '{"left":[3,2,1],"right":[2,2,2],"graphic":true,"sums_equal":true}',
    ], err="note: left sequence was sorted into decreasing order\n"),
    row(("check-class", *_CLASS_3, "-S", "4", "--json"), EXIT_OK, [
        '{"a":2,"b":1,"c":2,"d":1,"m":3,"n":3,"S":4,"nonempty":true,"verdict":"all-graphic",'
        '"branch":"general-inequality","r":1,"s":1,"p":0,"q":0,"lhs":4,"rhs":5,"min_term":0,'
        '"min_term_argument":"r-p-d","E":[2,1,1],"F":[2,1,1]}',
    ]),
    row(("check-class", *_P, "-S", "4", "--json"), EXIT_VACUOUS, [
        '{"a":3,"b":1,"c":3,"d":1,"m":3,"n":3,"S":4,"nonempty":false,"verdict":"vacuous"}',
    ]),
    row(("check-class", *_CLASS_3, "-S", "3"), EXIT_VACUOUS,
        ["class P(a=2, b=1, c=2, d=1, m=3, n=3, S=3)", "verdict: vacuous"]),
    row(("check-class", *_EQUAL_EXTREMES, "-S", "12", "--json"), EXIT_OK, [
        '{"a":3,"b":3,"c":2,"d":1,"m":4,"n":7,"S":12,"nonempty":true,"verdict":"all-graphic",'
        '"branch":"degenerate-equal-extremes"}',
    ]),
    row(("check-class", *_EQUAL_EXTREMES, "-S", "12"), EXIT_OK, [
        "class P(a=3, b=3, c=2, d=1, m=4, n=7, S=12)",
        "verdict: all-graphic",
        "branch: degenerate-equal-extremes",
    ]),
    row(("check-class", *_P, "-S", "7", "--verify", "--json"), EXIT_NEGATIVE, [
        '{"a":3,"b":1,"c":3,"d":1,"m":3,"n":3,"S":7,"nonempty":true,"verdict":"not-all-graphic",'
        '"branch":"general-inequality","r":2,"s":2,"p":0,"q":0,"lhs":12,"rhs":11,"min_term":0,'
        '"min_term_argument":"zero","E":[3,3,1],"F":[3,3,1],"oracle_verdict":"found-non-graphic",'
        '"oracle_agrees":true,"witness":{"left":[3,3,1],"right":[3,3,1],"failing_k":2}}',
    ]),
    row(("check-class", *_P, "-S", "7", "--verify"), EXIT_NEGATIVE, [
        "class P(a=3, b=1, c=3, d=1, m=3, n=3, S=7)",
        "verdict: not-all-graphic",
        "branch: general-inequality",
        "decomposition: r=2 s=2 p=0 q=0",
        "inequality: lhs = a*r + c*s = 12; rhs = S + r*s + min_term = 11; min term 'zero' = 0",
        "canonical pair: E = 3^2,1  F = 3^2,1",
        "oracle: found-non-graphic (agrees: yes); witness left=3^2,1 right=3^2,1 failing k=2",
    ]),
    # The class has one pair, with sides of 1,200 entries.
    row(("check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1", "-m", "1200", "-n", "1200",
         "-S", "1202", "--verify"), EXIT_OK, [
        "class P(a=2, b=1, c=2, d=1, m=1200, n=1200, S=1202)",
        "verdict: all-graphic",
        "branch: general-inequality",
        "decomposition: r=2 s=2 p=0 q=0",
        "inequality: lhs = a*r + c*s = 8; rhs = S + r*s + min_term = 1206; min term 'zero' = 0",
        "canonical pair: E = 2^2,1^1198  F = 2^2,1^1198",
        "oracle: all-graphic (agrees: yes)",
    ]),
    row(("check-class", "-a", "3", "-b", "4", "-c", "1", "-d", "1", "-m", "4", "-n", "4", "-S", "8"),
        EXIT_INVALID, err="error: requires a >= b\n"),
    row(("check-class", *_CLASS_4, "-S", "10", "--verify", "--budget", "1"), EXIT_INVALID,
        err=f"error: class holds 4 pairs, above the oracle budget 1; {BUDGET_HINT}\n"),
    # The class is empty, so no count can be above the budget.
    row(("check-class", *_CLASS_3, "-S", "3", "--verify", "--budget", "-1"), EXIT_INVALID,
        err="error: budget must be nonnegative\n"),
    row(("check-class", "-a", "9", "-b", "1", "-c", "9", "-d", "1", "-m", "2000", "-n", "2000",
         "-S", "6000", "--verify"), EXIT_INVALID,
        err="error: class holds 5909315676511283487743996994583225 pairs, above the oracle budget "
            f"10000000; {BUDGET_HINT}\n"),
    row(("check-class", "-a", "1026", "-b", "0", "-c", "1026", "-d", "0", "-m", "1026", "-n", "1026",
         "-S", "524288", "--verify"), EXIT_INVALID,
        err=f"error: class holds more than 10000000 pairs, above the oracle budget 10000000; {BUDGET_HINT}\n"),
    row(("sweep", *_SMALL), EXIT_OK, [
        HEADER,
        "2,1,2,1,2,2,2,false,,,,,,,vacuous",
        "2,1,2,1,2,2,3,true,1,1,0,0,4,4,all-graphic",
        "2,1,2,1,2,2,4,false,,,,,,,vacuous",
    ]),
    row(("sweep", *_CLASS_3), EXIT_OK, [
        HEADER,
        "2,1,2,1,3,3,3,false,,,,,,,vacuous",
        "2,1,2,1,3,3,4,true,1,1,0,0,4,5,all-graphic",
        "2,1,2,1,3,3,5,true,2,2,0,0,8,9,all-graphic",
        "2,1,2,1,3,3,6,false,,,,,,,vacuous",
    ]),
    row(("sweep", *_EQUAL_EXTREMES), EXIT_OK, [HEADER, "3,3,2,1,4,7,12,true,,,,,,,all-graphic"]),
    row(("sweep", "-a", "1", "-b", "1", "-c", "1", "-d", "1", "-m", "2", "-n", "2"), EXIT_OK,
        [HEADER, "1,1,1,1,2,2,2,true,,,,,,,all-graphic"]),
    row(("sweep", *_DEGENERATE, "--verify"), EXIT_OK, [
        HEADER + ",oracle_agrees",
        "2,2,2,1,2,3,4,true,,,,,,,all-graphic,true",
    ]),
    row(("sweep", *_CLASS_4, "--verify"), EXIT_OK, [
        HEADER + ",oracle_agrees",
        "4,1,4,1,4,4,4,false,,,,,,,vacuous,true",
        "4,1,4,1,4,4,5,false,,,,,,,vacuous,true",
        "4,1,4,1,4,4,6,false,,,,,,,vacuous,true",
        "4,1,4,1,4,4,7,true,1,1,0,0,8,8,all-graphic,true",
        "4,1,4,1,4,4,8,true,1,1,1,1,8,8,all-graphic,true",
        "4,1,4,1,4,4,9,true,1,1,2,2,8,7,not-all-graphic,true",
        "4,1,4,1,4,4,10,true,2,2,0,0,16,14,not-all-graphic,true",
        "4,1,4,1,4,4,11,true,2,2,1,1,16,15,not-all-graphic,true",
        "4,1,4,1,4,4,12,true,2,2,2,2,16,15,not-all-graphic,true",
        "4,1,4,1,4,4,13,true,3,3,0,0,24,22,not-all-graphic,true",
        "4,1,4,1,4,4,14,false,,,,,,,vacuous,true",
        "4,1,4,1,4,4,15,false,,,,,,,vacuous,true",
        "4,1,4,1,4,4,16,false,,,,,,,vacuous,true",
    ]),
    row(("sweep", *_SMALL, "--format", "json"), EXIT_OK, [
        '{"a":2,"b":1,"c":2,"d":1,"m":2,"n":2,"S":2,"nonempty":false,"verdict":"vacuous"}',
        '{"a":2,"b":1,"c":2,"d":1,"m":2,"n":2,"S":3,"nonempty":true,"r":1,"s":1,"p":0,"q":0,'
        '"lhs":4,"rhs":4,"verdict":"all-graphic"}',
        '{"a":2,"b":1,"c":2,"d":1,"m":2,"n":2,"S":4,"nonempty":false,"verdict":"vacuous"}',
    ]),
    row(("sweep", *_DEGENERATE, "--format", "json", "--verify"), EXIT_OK, [
        '{"a":2,"b":2,"c":2,"d":1,"m":2,"n":3,"S":4,"nonempty":true,"verdict":"all-graphic",'
        '"oracle_agrees":true}',
    ]),
    row(("sweep", "-a", "2", "-b", "3", "-c", "1", "-d", "1", "-m", "2", "-n", "2"), EXIT_INVALID,
        err="error: requires a >= b\n"),
    row(("sweep", "-a", "1048576", "-b", "0", "-c", "1048576", "-d", "0", "-m", "1048576",
         "-n", "1048576"), EXIT_INVALID,
        err="error: sums up to 1099511627776 exceed the supported bound 1048576\n"),
    row(("canonical", *_P, "-S", "6", "--json"), EXIT_OK, [
        '{"r":1,"s":1,"p":1,"q":1,"E":[3,2,1],"F":[3,2,1]}',
    ]),
    row(("canonical", "-a", "3", "-b", "1", "-c", "3", "-d", "1", "-m", "4", "-n", "4", "-S", "8",
         "--json"), EXIT_OK, [
        '{"r":2,"s":2,"p":0,"q":0,"E":[3,3,1,1],"F":[3,3,1,1]}',
    ]),
    row(("canonical", *_P, "-S", "6"), EXIT_OK, [
        "decomposition: r=1 s=1 p=1 q=1",
        "E = 3,2,1",
        "F = 3,2,1",
    ]),
    row(("canonical", *_CLASS_4, "-S", "10"), EXIT_OK, [
        "decomposition: r=2 s=2 p=0 q=0",
        "E = 4^2,1^2",
        "F = 4^2,1^2",
    ]),
    row(("canonical", *_EQUAL_EXTREMES, "-S", "12"), EXIT_INVALID,
        err="error: decomposition requires a > b and c > d\n"),
    row(("realize", "--left", "3", "--right", "1,1,1"), EXIT_OK, ["1 1", "1 2", "1 3"]),
    row(("realize", "--left", "2,1", "--right", "2,1", "--json"), EXIT_OK,
        ['{"edges":[[1,1],[1,2],[2,1]]}']),
    row(("realize", "--left", "2,nope", "--right", "2,1"), EXIT_INVALID,
        err="error: cannot parse sequence item 'nope' (item 2)\n"),
    row(("symmetric", "-a", "2", "-b", "1", "-m", "3"), EXIT_OK,
        ["condition 4*m*b >= (a+b)^2 - 1: holds (12 vs 8)"]),
    row(("symmetric", "-a", "2", "-b", "1", "-m", "3", "--full"), EXIT_OK, [
        "condition 4*m*b >= (a+b)^2 - 1: holds (12 vs 8)",
        "not-all-graphic S values: none",
    ]),
    row(("symmetric", "-a", "4", "-b", "1", "-m", "4", "--full"), EXIT_NEGATIVE, [
        "condition 4*m*b >= (a+b)^2 - 1: fails (16 vs 24)",
        "not-all-graphic S values: 9,10,11,12,13",
    ]),
    row(("symmetric", "-a", "4", "-b", "1", "-m", "4", "--full", "--json"), EXIT_NEGATIVE, [
        '{"a":4,"b":1,"m":4,"holds":false,"lhs":16,"rhs":24,"not_all_graphic_S":[9,10,11,12,13]}',
    ]),
    row(("symmetric", "-a", "0", "-b", "1", "-m", "3"), EXIT_INVALID, err="error: requires a >= b\n"),
    row(("symmetric", "-a", "0", "-b", "0", "-m", "0"), EXIT_INVALID, err="error: requires m >= 1\n"),
    row(("symmetric", "-a", "99999999999", "-b", "5", "-m", "99999999999"), EXIT_INVALID,
        err="error: parameters must not exceed 1048576\n"),
    row(("symmetric", "-a", "1048576", "-b", "0", "-m", "1048576", "--full"), EXIT_INVALID,
        err="error: sums up to 1099511627776 exceed the supported bound 1048576\n"),
]


@pytest.mark.parametrize("argv,code,out,err", EXACT_OUTPUT)
def test_exact_output(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


class TestCheckClass:
    def test_exit_table_is_verdict_driven(self):
        assert VERDICT_EXIT[Verdict.ALL_GRAPHIC] == EXIT_OK
        assert VERDICT_EXIT[Verdict.NOT_ALL_GRAPHIC] == EXIT_NEGATIVE
        assert VERDICT_EXIT[Verdict.VACUOUS] == EXIT_VACUOUS


def sweep_rows(out: str) -> list[dict]:
    header, *lines = out.strip().splitlines()
    return [decode_sweep_csv(header, line) for line in lines]


class TestSweep:
    def test_fields_by_branch(self, capsys):
        # A vacuous row carries the parameters, nonempty and the verdict, a
        # degenerate one nothing more, a general one every field.
        _, out, _ = run(capsys, "sweep", *_CLASS_4, "--verify")
        _, degenerate, _ = run(capsys, "sweep", *_EQUAL_EXTREMES)
        assert out.splitlines()[0] == ",".join(SWEEP_FIELDS) + ",oracle_agrees"
        short = ("a", "b", "c", "d", "m", "n", "S", "nonempty", "verdict")
        rows = sweep_rows(out) + sweep_rows(degenerate)
        for row in rows:
            names = tuple(name for name in SWEEP_FIELDS if name in row)
            assert names == (SWEEP_FIELDS if "r" in row else short)
            assert all(type(row[name]) is int for name in names if name not in ("nonempty", "verdict"))
            assert type(row["nonempty"]) is bool
        assert {row["nonempty"] for row in rows if "r" not in row} == {False, True}

    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    def test_json_matches_csv(self, capsys, verify):
        args = ["sweep", *_CLASS_4, *verify]
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--format", "json")
        csv_rows = [list(row.items()) for row in sweep_rows(csv_out)]
        json_rows = [list(json.loads(line).items()) for line in json_out.strip().splitlines()]
        assert csv_rows == json_rows


def reference_sweep_line(params: ClassParams, fmt: str, verify: bool) -> str:
    """A sweep row built from theorem_main's report: every SWEEP_FIELDS field
    the row carries, then oracle_agrees (true) under --verify.  A field the
    row does not carry (the decomposition and inequality off the general
    branch) is an omitted key in JSON and an empty cell in CSV."""
    report = theorem_main(params)
    dec = report.decomposition or (None,) * 4
    row = {**dict(zip(SWEEP_FIELDS, params)), "nonempty": report.verdict is not Verdict.VACUOUS,
           **dict(zip("rspq", dec)), "lhs": report.lhs, "rhs": report.rhs,
           "verdict": report.verdict.value}
    if verify:
        row["oracle_agrees"] = True
    if fmt == "json":
        return json.dumps({k: v for k, v in row.items() if v is not None}, separators=(",", ":"))
    return ",".join("" if v is None else v if isinstance(v, str) else json.dumps(v) for v in row.values())


@st.composite
def sweep_families(draw):
    """A sweep argv over a family with maxima up to 12, minima from 0, the
    left one equal to its maximum half the time (so vacuous, degenerate and
    general rows), lengths up to 64, either format, and --verify with a
    --budget of at most 10^4 pairs half the time."""
    a, c = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    b, d = draw(st.integers(0, a)), draw(st.integers(0, c))
    if draw(st.booleans()):
        b = a  # equal extremes: the degenerate branch where the class is nonempty
    m, n = draw(st.integers(c, 64)), draw(st.integers(max(a, 1), 64))
    family = (a, b, c, d, m, n)
    fmt, verify = draw(st.sampled_from(("csv", "json"))), draw(st.booleans())
    argv = ["sweep", *(token for flag, value in zip("abcdmn", family)
                       for token in (f"-{flag}", str(value))), "--format", fmt]
    if verify:
        argv += ["--verify", "--budget", str(draw(st.integers(0, 10**4)))]
    return family, fmt, verify, argv


class TestSweepReference:
    @settings(max_examples=150, deadline=None)
    @given(sweep_families())
    def test_rows_match_reference(self, drawn):
        family, fmt, verify, argv = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if verify and code == EXIT_INVALID:
            # A class above the budget: no row is written.
            assert out.getvalue() == "" and "above the oracle budget" in err.getvalue()
            return
        assert (code, err.getvalue()) == (EXIT_OK, "")
        lines = [reference_sweep_line(ClassParams(*family, S), fmt, verify) for S in s_range(*family)]
        if fmt == "csv":
            lines.insert(0, ",".join(SWEEP_FIELDS + ("oracle_agrees",) * verify))
        assert out.getvalue() == "".join(line + "\n" for line in lines)


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["realize", "--left", "1024^2048", "--right", "2048^1024"],
        ["sweep", "-a", "1000", "-b", "0", "-c", "1000", "-d", "0", "-m", "1000", "-n", "1000"],
    ], ids=["realize", "sweep"])
    def test_reader_leaving_after_one_line(self, argv):
        # The reader closes the pipe after one line, mid-answer: one error
        # line and the invalid-input code, no traceback.
        proc = subprocess.Popen([sys.executable, "-m", "bgseq.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_INVALID
        assert err == "error: stdout was closed before the whole answer was written\n"


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_INVALID

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["check-pair", "--left", "2,2"])
        assert err.value.code == EXIT_INVALID


class TestParseOnce:
    """main() builds its parser on the first call and reuses it."""

    def test_main_builds_parser_once(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_parser", None)
        build = cli.build_parser
        builds = []

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(3):
            assert run(capsys, "check-pair", "--left", "2,2", "--right", "2,2")[0] == EXIT_OK
        assert run(capsys, "symmetric", "-a", "4", "-b", "1", "-m", "4")[0] == EXIT_NEGATIVE
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_parse_args_wrapper_is_not_stacked(self, monkeypatch, capsys):
        # A wrapper that replaces parse_args on every parser build_parser
        # returns, as a tracer would: more calls than the recursion limit
        # must not nest it once per call.
        monkeypatch.setattr(cli, "_parser", None)
        build = cli.build_parser

        def wrapping_build():
            parser = build()
            parse = parser.parse_args

            def wrapped(*args, **kwargs):
                return parse(*args, **kwargs)

            parser.parse_args = wrapped
            return parser

        monkeypatch.setattr(cli, "build_parser", wrapping_build)
        for _ in range(2000):
            assert main(["symmetric", "-a", "2", "-b", "1", "-m", "3"]) == EXIT_OK
        capsys.readouterr()

    def test_realize_flag_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "check-pair", "--left", "2,2", "--right", "2,2", "--realize")
        assert code == EXIT_OK and len(out.splitlines()) == 5
        code, out, _ = run(capsys, "check-pair", "--left", "2,2", "--right", "2,2")
        assert code == EXIT_OK
        assert out == "graphic\n"

    def test_strict_flag_does_not_carry_over(self, capsys):
        code, _, err = run(capsys, "check-pair", "--left", "1,2", "--right", "2,1", "--strict")
        assert code == EXIT_INVALID and "decreasing" in err
        code, out, err = run(capsys, "check-pair", "--left", "1,2", "--right", "2,1")
        assert code == EXIT_OK
        assert "left sequence was sorted" in err
        assert out == "graphic\n"

    def test_verify_flag_does_not_carry_over(self, capsys):
        args = ["check-class", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
                "-m", "4", "-n", "4", "-S", "10", "--json"]
        code, out, _ = run(capsys, *args, "--verify")
        assert code == EXIT_NEGATIVE and json.loads(out)["oracle_agrees"] is True
        code, out, _ = run(capsys, *args)
        assert code == EXIT_NEGATIVE
        assert not [key for key in json.loads(out) if key.startswith("oracle_")]

    def test_argument_error_does_not_poison_next_call(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1", "-m", "3", "-n", "3"])
        assert err.value.code == EXIT_INVALID
        assert "-S" in capsys.readouterr().err
        code, out, _ = run(
            capsys, "check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "3", "-n", "3", "-S", "3",
        )
        assert code == EXIT_VACUOUS
        assert "vacuous" in out


class TestPairCommandsAgree:
    def test_realize_json_not_graphic_is_the_check_pair_object(self, capsys):
        for left, right in (("4^2,1^2", "4^2,1^2"), ("2,1", "2,2")):
            code, out, _ = run(capsys, "realize", "--left", left, "--right", right, "--json")
            assert code == EXIT_NEGATIVE
            assert (code, out) == run(capsys, "check-pair", "--left", left, "--right", right,
                                      "--json")[:2]
        code, out, _ = run(capsys, "realize", "--left", "4^2,1^2", "--right", "4^2,1^2", "--json")
        assert json.loads(out) == {"left": [4, 4, 1, 1], "right": [4, 4, 1, 1], "graphic": False,
                                   "sums_equal": True, "failing_k": 2}

    def test_realize_text_not_graphic(self, capsys):
        assert run(capsys, "realize", "--left", "4^2,1^2", "--right", "4^2,1^2")[:2] == (
            EXIT_NEGATIVE, "not graphic, failing k=2\n")
        assert run(capsys, "realize", "--left", "2,1", "--right", "2,2")[:2] == (
            EXIT_NEGATIVE, "not graphic, sums differ\n")


class TestSweepAllOrNothing:
    def test_verify_above_budget_prints_no_rows(self, capsys):
        # The first 18 classes fit the budget; a later one does not.
        code, out, err = run(
            capsys, "sweep", "-a", "9", "-b", "1", "-c", "9", "-d", "1",
            "-m", "30", "-n", "30", "--verify", "--budget", "1000",
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: class holds 1600 pairs, above the oracle budget 1000")
        assert "--budget" in err


_COMMANDS = ("check-pair", "check-class", "sweep", "canonical", "realize", "symmetric")
_FUZZ_TOKENS = _COMMANDS + (
    "--left", "--right", "--strict", "--json", "--realize", "--verify", "--budget",
    "--format", "--full", "-a", "-b", "-c", "-d", "-m", "-n", "-S", "json",
    "-1", "0", "1", "2", "3", "7", str(1 << 20), str((1 << 20) + 1), str(10**30),
    "x", "1^0", "", "3^99999999999",
)
_ARGV = st.one_of(
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=7),
    st.builds(lambda command, rest: [command, *rest], st.sampled_from(_COMMANDS),
              st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6)),
)


_CLASS = ("-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "4", "-n", "4", "-S", "10")
_HOSTILE_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["-hx"], ["-h", "check-class"], ["bogus", "-h"],
    ["check-class", "-h"], ["check-class", "--he"], ["check-class", "--h"],
    ["--", "check-class", *_CLASS], ["check-class", "--", *_CLASS], ["check-class", *_CLASS, "--"],
    ["check-clas", *_CLASS], ["check"], ["Check-class"], ["check-class"],
    ["check-class", *_CLASS, "extra"], ["check-class", *_CLASS, "extra", "--more", "-x"],
    ["check-pair", "--left=2,2", "--right=2,2"], ["check-pair", "--lef", "2,2", "--rig", "2,2"],
    ["check-pair", "--left", "2,2", "--right", "2,2", "--re"],
    ["check-class", "-a3", "-b1", "-c3", "-d1", "-m3", "-n3", "-S6"],
    ["sweep", "-a", "3", "-b", "1", "-c", "3", "-d", "1", "-m", "3", "-n", "3", "--form", "json"],
    ["sweep", "-a", "3", "-b", "1", "-c", "3", "-d", "1", "-m", "3", "-n", "3", "--format", "xml"],
    ["check-class", *_CLASS, *_CLASS], ["check-class", *_CLASS, "--json", "--json", "--verify"],
    ["check-class", "-5"], ["check-class", "-"], ["-5"], ["-"], ["--"], ["--", "--"],
    ["check-class", *_CLASS, "--bud", "3"], ["check-class", *_CLASS, "-S=5"],
    ["check-class", *_CLASS, "--verify=1"], ["check-class", "check-class", *_CLASS],
]


def _parse_outcome(parse, argv):
    """What one parse gives: the namespace and leftover arguments, or the
    exit code and the bytes written on the way out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, extras = parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    assert not out.getvalue() and not err.getvalue()
    return vars(namespace), extras


class TestParseDispatch:
    """An argv that starts with a command goes straight to that command's
    parser; the result is what argparse's own top-level pass gives."""

    @staticmethod
    def both_ways(argv, namespace=lambda: None):
        # namespace() gives each parse its own namespace to fill, or None.
        with contextlib.redirect_stdout(io.StringIO()):
            main(["symmetric", "-a", "2", "-b", "1", "-m", "3"])  # main builds its parser once
        fresh = cli.build_parser()
        return (_parse_outcome(lambda args: cli._parser.parse_known_args(args, namespace()),
                               list(argv)),
                _parse_outcome(lambda args: argparse.ArgumentParser.parse_known_args(
                    fresh, args, namespace()), list(argv)))

    @pytest.mark.parametrize("argv", _HOSTILE_ARGVS, ids=" ".join)
    def test_hostile_argv(self, argv):
        got, want = self.both_ways(argv)
        assert got == want

    @pytest.mark.parametrize("argv", [
        ["check-class", *_CLASS, "--json"],
        ["check-class", *_CLASS, "extra", "--more"],
        ["check-class", *_CLASS, "--budget", "x"],
    ], ids=" ".join)
    def test_caller_namespace(self, argv):
        # The command's values are copied over the caller's, as argparse's
        # subparsers action copies them; the caller's own names stay.
        got, want = self.both_ways(argv, lambda: argparse.Namespace(a=99, verify=True, own=1))
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(_ARGV)
    def test_fuzzed_argv(self, argv):
        # main answers with a code from the exit table and says why on stderr
        # when it refuses; the parse is argparse's own.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INVALID, cli.EXIT_DISAGREEMENT, EXIT_VACUOUS)
        if code == EXIT_INVALID:
            assert err.getvalue()
        got, want = self.both_ways(argv)
        assert got == want

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["bgseq", "symmetric", "-a", "4", "-b", "1", "-m", "4"])
        assert main() == EXIT_NEGATIVE
        assert capsys.readouterr().out.startswith("condition 4*m*b >= (a+b)^2 - 1: fails")
        monkeypatch.setattr("sys.argv", ["bgseq"])
        with pytest.raises(SystemExit) as err:
            main()
        assert err.value.code == EXIT_INVALID
        assert "required: command" in capsys.readouterr().err
