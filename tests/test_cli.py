"""CLI contract: exit codes, output formats, round-trips."""

import argparse
import contextlib
import io
import json

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
    SweepRow,
    format_runs,
    main,
    parse_sequence_arg,
    sweep_header,
)
from bgseq import DegreeSequence, Verdict


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

    @pytest.mark.parametrize("bad", ["3,1,x", "4^,1", "4^0", "", "1,,2"])
    def test_bad_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_sequence_arg(bad)

    def test_format_runs(self):
        assert format_runs(DegreeSequence([4, 4, 1, 1])) == "4^2,1^2"
        assert format_runs(DegreeSequence([4, 3, 2, 1])) == "4,3,2,1"
        assert format_runs(DegreeSequence([5, 5, 5])) == "5^3"


class TestCheckPair:
    def test_graphic(self, capsys):
        code, out, _ = run(capsys, "check-pair", "--left", "2,2", "--right", "2,2")
        assert code == EXIT_OK
        assert out.strip() == "graphic"

    def test_not_graphic(self, capsys):
        code, out, _ = run(capsys, "check-pair", "--left", "4,4,1,1", "--right", "4^2,1^2")
        assert code == EXIT_NEGATIVE
        assert "failing k=2" in out

    def test_sums_differ(self, capsys):
        code, out, _ = run(capsys, "check-pair", "--left", "2,1", "--right", "2,2")
        assert code == EXIT_NEGATIVE
        assert "sums differ" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "check-pair", "--left", "2,2", "--right", "3,1,x")
        assert code == EXIT_INVALID
        assert "x" in err

    def test_lenient_sorts_with_note(self, capsys):
        code, out, err = run(capsys, "check-pair", "--left", "1,2", "--right", "2,1")
        assert code == EXIT_OK
        assert "sorted" in err
        assert out.strip() == "graphic"

    def test_strict_rejects_unsorted(self, capsys):
        code, _, err = run(capsys, "check-pair", "--left", "1,2", "--right", "2,1", "--strict")
        assert code == EXIT_INVALID
        assert "decreasing" in err

    def test_realize_flag(self, capsys):
        code, out, _ = run(
            capsys, "check-pair", "--left", "2,2", "--right", "2,2", "--realize"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "graphic"
        assert lines[1:] == ["1 1", "1 2", "2 1", "2 2"]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "check-pair", "--left", "4^2,1^2", "--right", "4,4,1,1", "--json"
        )
        obj = json.loads(out)
        assert code == EXIT_NEGATIVE
        assert obj["left"] == [4, 4, 1, 1]
        assert obj["graphic"] is False
        assert obj["sums_equal"] is True
        assert obj["failing_k"] == 2

    @pytest.mark.parametrize("text, value", [(" 3", 3), ("+3", 3), ("007", 7)])
    def test_json_echoes_canonical_digits(self, capsys, text, value):
        code, out, _ = run(capsys, "check-pair", "--left", text, "--right", f"1^{value}", "--json")
        assert code == EXIT_OK
        ones = ",".join(["1"] * value)
        assert out == f'{{"left":[{value}],"right":[{ones}],"graphic":true,"sums_equal":true}}\n'

    def test_json_echoes_sorted_side(self, capsys):
        code, out, err = run(capsys, "check-pair", "--left", "1,3,02", "--right", "2^3", "--json")
        assert code == EXIT_OK and "left sequence was sorted" in err
        assert out.startswith('{"left":[3,2,1],"right":[2,2,2],"graphic":true')


class TestCheckClass:
    def test_all_graphic(self, capsys):
        code, out, _ = run(
            capsys, "check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "3", "-n", "3", "-S", "4", "--json",
        )
        obj = json.loads(out)
        assert code == EXIT_OK
        assert obj["verdict"] == "all-graphic"
        assert obj["lhs"] == 4 and obj["rhs"] == 5

    def test_not_all_graphic_with_verify(self, capsys):
        code, out, _ = run(
            capsys, "check-class", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
            "-m", "4", "-n", "4", "-S", "10", "--verify", "--json",
        )
        obj = json.loads(out)
        assert code == EXIT_NEGATIVE
        assert obj["verdict"] == "not-all-graphic"
        assert obj["oracle_agrees"] is True
        assert obj["witness"] == {"left": [4, 4, 1, 1], "right": [4, 4, 1, 1], "failing_k": 2}

    def test_hypothesis_violation(self, capsys):
        code, _, err = run(
            capsys, "check-class", "-a", "3", "-b", "4", "-c", "1", "-d", "1",
            "-m", "4", "-n", "4", "-S", "8",
        )
        assert code == EXIT_INVALID
        assert "a >= b" in err

    def test_vacuous(self, capsys):
        code, out, _ = run(
            capsys, "check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "3", "-n", "3", "-S", "3",
        )
        assert code == EXIT_VACUOUS
        assert "vacuous" in out

    def test_degenerate_branch_text(self, capsys):
        code, out, _ = run(
            capsys, "check-class", "-a", "3", "-b", "3", "-c", "2", "-d", "1",
            "-m", "4", "-n", "7", "-S", "12",
        )
        assert code == EXIT_OK
        assert "degenerate-equal-extremes" in out

    def test_budget_refusal(self, capsys):
        code, _, err = run(
            capsys, "check-class", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
            "-m", "4", "-n", "4", "-S", "10", "--verify", "--budget", "1",
        )
        assert code == EXIT_INVALID
        assert "budget" in err

    def test_negative_budget_refused(self, capsys):
        # The class is empty, so no count can be above the budget.
        code, out, err = run(
            capsys, "check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "3", "-n", "3", "-S", "3", "--verify", "--budget", "-1",
        )
        assert (code, out, err) == (EXIT_INVALID, "", "error: budget must be nonnegative\n")

    def test_long_one_pair_class_verifies(self, capsys):
        code, out, err = run(
            capsys, "check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "1200", "-n", "1200", "-S", "1202", "--verify",
        )
        assert code == EXIT_OK
        assert "oracle: all-graphic (agrees: yes)" in out
        assert err == ""

    def test_long_sides_refused_by_budget(self, capsys):
        code, out, err = run(
            capsys, "check-class", "-a", "9", "-b", "1", "-c", "9", "-d", "1",
            "-m", "2000", "-n", "2000", "-S", "6000", "--verify",
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: class holds 5909315676511283487743996994583225 pairs")
        assert "budget" in err

    def test_far_above_budget_refused_with_bound(self, capsys):
        code, _, err = run(
            capsys, "check-class", "-a", "1026", "-b", "0", "-c", "1026", "-d", "0",
            "-m", "1026", "-n", "1026", "-S", "524288", "--verify",
        )
        assert code == EXIT_INVALID
        assert "more than 10000000 pairs, above the oracle budget" in err

    def test_exit_table_is_verdict_driven(self):
        assert VERDICT_EXIT[Verdict.ALL_GRAPHIC] == EXIT_OK
        assert VERDICT_EXIT[Verdict.NOT_ALL_GRAPHIC] == EXIT_NEGATIVE
        assert VERDICT_EXIT[Verdict.VACUOUS] == EXIT_VACUOUS


class TestSweep:
    def test_rows_and_vacuity(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-a", "2", "-b", "1", "-c", "2", "-d", "1", "-m", "3", "-n", "3"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == sweep_header(False) == ",".join(SWEEP_FIELDS)
        rows = [SweepRow.from_csv(line) for line in lines[1:]]
        assert [row.S for row in rows] == [3, 4, 5, 6]
        assert [row.verdict for row in rows] == ["vacuous", "all-graphic", "all-graphic", "vacuous"]
        for row in rows:
            if not row.nonempty:
                assert row.verdict == "vacuous"
                assert row.r is None and row.lhs is None

    def test_single_point_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-a", "3", "-b", "3", "-c", "2", "-d", "1", "-m", "4", "-n", "7"
        )
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert len(lines) == 2
        row = SweepRow.from_csv(lines[1])
        assert row.S == 12 and row.verdict == "all-graphic"

    def test_perfect_matching_class(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-a", "1", "-b", "1", "-c", "1", "-d", "1", "-m", "2", "-n", "2"
        )
        lines = out.strip().splitlines()
        assert len(lines) == 2
        row = SweepRow.from_csv(lines[1])
        assert row.S == 2 and row.verdict == "all-graphic"

    def test_invalid_params(self, capsys):
        code, _, err = run(
            capsys, "sweep", "-a", "2", "-b", "3", "-c", "1", "-d", "1", "-m", "2", "-n", "2"
        )
        assert code == EXIT_INVALID
        assert "a >= b" in err

    def test_sums_above_bound(self, capsys):
        code, out, err = run(
            capsys, "sweep", "-a", "1048576", "-b", "0", "-c", "1048576", "-d", "0",
            "-m", "1048576", "-n", "1048576",
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert "exceed the supported bound" in err

    def test_verify_column(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
            "-m", "4", "-n", "4", "--verify",
        )
        lines = out.strip().splitlines()
        assert lines[0] == sweep_header(True)
        assert lines[0].endswith(",oracle_agrees")
        rows = [SweepRow.from_csv(line, verify=True) for line in lines[1:]]
        assert all(row.oracle_agrees for row in rows)
        assert any(row.verdict == "not-all-graphic" for row in rows)

    def test_csv_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
            "-m", "4", "-n", "4", "--verify",
        )
        for line in out.strip().splitlines()[1:]:
            assert SweepRow.from_csv(line, verify=True).to_csv() == line

    def test_json_round_trip_matches_csv(self, capsys):
        args = ["sweep", "-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "4", "-n", "4"]
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--format", "json")
        csv_rows = [SweepRow.from_csv(line) for line in csv_out.strip().splitlines()[1:]]
        json_rows = [SweepRow.from_json(line) for line in json_out.strip().splitlines()]
        assert csv_rows == json_rows
        for line, row in zip(json_out.strip().splitlines(), json_rows):
            assert row.to_json() == line

    def test_json_omits_absent_fields(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "3", "-n", "3", "--format", "json",
        )
        first = json.loads(out.strip().splitlines()[0])
        assert first["S"] == 3 and first["verdict"] == "vacuous"
        assert "r" not in first and "lhs" not in first
        assert first["nonempty"] is False


class TestCanonical:
    def test_prints_pair(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
            "-m", "4", "-n", "4", "-S", "10",
        )
        assert code == EXIT_OK
        assert "E = 4^2,1^2" in out and "F = 4^2,1^2" in out
        assert "r=2 s=2 p=0 q=0" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "-a", "3", "-b", "1", "-c", "3", "-d", "1",
            "-m", "4", "-n", "4", "-S", "8", "--json",
        )
        obj = json.loads(out)
        assert obj == {"r": 2, "s": 2, "p": 0, "q": 0, "E": [3, 3, 1, 1], "F": [3, 3, 1, 1]}

    def test_degenerate_is_invalid(self, capsys):
        code, _, err = run(
            capsys, "canonical", "-a", "3", "-b", "3", "-c", "2", "-d", "1",
            "-m", "4", "-n", "7", "-S", "12",
        )
        assert code == EXIT_INVALID
        assert "a > b" in err

    def test_empty_is_vacuous(self, capsys):
        code, _, err = run(
            capsys, "canonical", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
            "-m", "3", "-n", "3", "-S", "3",
        )
        assert code == EXIT_VACUOUS
        assert "empty" in err


class TestRealizeCommand:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "realize", "--left", "3", "--right", "1,1,1")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["1 1", "1 2", "1 3"]

    def test_not_graphic(self, capsys):
        code, out, _ = run(capsys, "realize", "--left", "4^2,1^2", "--right", "4^2,1^2")
        assert code == EXIT_NEGATIVE
        assert "failing k=2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "realize", "--left", "2,1", "--right", "2,1", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"edges": [[1, 1], [1, 2], [2, 1]]}

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "realize", "--left", "2,nope", "--right", "2,1")
        assert code == EXIT_INVALID
        assert "nope" in err


class TestSymmetric:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "symmetric", "-a", "2", "-b", "1", "-m", "3")
        assert code == EXIT_OK
        assert "holds" in out

    def test_fails_and_full_lists_s(self, capsys):
        code, out, _ = run(capsys, "symmetric", "-a", "4", "-b", "1", "-m", "4", "--full")
        assert code == EXIT_NEGATIVE
        assert "fails" in out
        s_line = [line for line in out.splitlines() if "not-all-graphic" in line][0]
        listed = {int(s) for s in s_line.split(":")[1].split(",")}
        assert 10 in listed

    def test_full_none_when_condition_holds(self, capsys):
        code, out, _ = run(capsys, "symmetric", "-a", "2", "-b", "1", "-m", "3", "--full")
        assert code == EXIT_OK
        assert "none" in out

    def test_hypothesis_violation(self, capsys):
        code, _, err = run(capsys, "symmetric", "-a", "0", "-b", "1", "-m", "3")
        assert code == EXIT_INVALID
        assert "a >= b" in err

    def test_parameters_above_bound(self, capsys):
        code, out, err = run(capsys, "symmetric", "-a", "99999999999", "-b", "5",
                             "-m", "99999999999")
        assert code == EXIT_INVALID
        assert out == ""
        assert "must not exceed" in err

    def test_full_sums_above_bound(self, capsys):
        code, out, err = run(capsys, "symmetric", "-a", "1048576", "-b", "0",
                             "-m", "1048576", "--full")
        assert code == EXIT_INVALID
        assert out == ""
        assert "exceed the supported bound" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "symmetric", "-a", "4", "-b", "1", "-m", "4", "--full", "--json"
        )
        obj = json.loads(out)
        assert code == EXIT_NEGATIVE
        assert obj["holds"] is False
        assert 10 in obj["not_all_graphic_S"]


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


class TestHostileArgv:
    @settings(max_examples=400, deadline=None)
    @given(_ARGV)
    def test_exit_code_stays_in_table(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INVALID, cli.EXIT_DISAGREEMENT, EXIT_VACUOUS)
        if code == EXIT_INVALID:
            assert err.getvalue()


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
    def both_ways(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            main(["symmetric", "-a", "2", "-b", "1", "-m", "3"])  # main builds its parser once
        fresh = cli.build_parser()
        return (_parse_outcome(cli._parser.parse_known_args, list(argv)),
                _parse_outcome(lambda args: argparse.ArgumentParser.parse_known_args(fresh, args),
                               list(argv)))

    @pytest.mark.parametrize("argv", _HOSTILE_ARGVS, ids=" ".join)
    def test_hostile_argv(self, argv):
        got, want = self.both_ways(argv)
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(_ARGV)
    def test_fuzzed_argv(self, argv):
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
