"""Acceptance suite: every criterion at its stated scale, zero tolerance.

The parameter grid (maxima, minima and lengths up to 6, minima at least 1,
every compatible sum) is driven once through the CLI with --verify and the
results are shared by the criteria that need them; its zero-minimum classes
get their own pass.  Each test prints one PASS line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import contextlib
import io
import json
from collections import Counter

import numpy as np
import pytest

import bgseq.kernels as kernels
from bgseq import (
    Branch,
    ClassParams,
    DegreeSequence,
    Verdict,
    brute_force_all_graphic,
    canonical_pair,
    canonical_sequence,
    gale_ryser,
    realize,
    s_range,
    smooth_step,
    symmetric_sufficient,
    theorem_main,
    zz_check,
)
from bgseq.cli import VERDICT_EXIT, main
from bgseq.criterion import MIN_TERM_NAMES
from bgseq.enumeration import OracleVerdict, _count_side, _left_tables, _right_caps
from helpers import (
    all_decreasing,
    decode_sweep_csv,
    grid_params,
    min_cap_sum,
    random_graphic_pairs,
    random_pair_corpus,
)

GRID_LIMIT = 6


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def grid_results():
    """check-class --verify --json over the full grid, keyed by params: each
    answer parsed, its exit code and its raw line."""
    results = {}
    for params in grid_params(GRID_LIMIT):
        code, out = run_cli(
            "check-class",
            "-a", str(params.a), "-b", str(params.b),
            "-c", str(params.c), "-d", str(params.d),
            "-m", str(params.m), "-n", str(params.n),
            "-S", str(params.S),
            "--verify", "--json",
        )
        results[params] = (json.loads(out), code, out)
    return results


def test_01_theorem_equivalence_exhaustive(grid_results):
    checked = 0
    for params, (obj, code, _) in grid_results.items():
        if not obj["nonempty"]:
            assert obj["verdict"] == "vacuous"
            assert obj["oracle_verdict"] == "empty"
            continue
        if obj["verdict"] == "all-graphic":
            assert obj["oracle_verdict"] == "all-graphic", params
        else:
            assert obj["verdict"] == "not-all-graphic"
            assert obj["oracle_verdict"] == "found-non-graphic", params
        assert obj["oracle_agrees"] is True
        assert code in (0, 1)
        checked += 1
    assert checked > 3000
    print(f"ACCEPTANCE 1 theorem equivalence: PASS ({checked} nonempty classes)")


def test_02_canonical_pair_reduction(grid_results):
    checked = 0
    for params, (obj, *_) in grid_results.items():
        if not obj["nonempty"] or params.a == params.b or params.c == params.d:
            continue
        pair = canonical_pair(params)
        oracle_all = obj["oracle_verdict"] == "all-graphic"
        # The canonical pair alone decides the whole class.
        assert gale_ryser(pair.E, pair.F).graphic == oracle_all, params

        # The oracle's per-side reductions are the canonical pair's sums.
        # Claim (i): E has the largest prefix sums of the left side at every k.
        left = _count_side(params.a, params.b, params.m, params.S)
        prefix_max = _left_tables(params.a, params.b, params.m, params.S, left)[0]
        assert np.array_equal(prefix_max, np.cumsum(pair.E.values)), params

        # Claim (ii): F has the smallest min-cap sums of the right side for every k <= m.
        right = _count_side(params.c, params.d, params.n, params.S)
        caps_min = _right_caps(params.c, params.d, params.n, params.S, params.m, right)[0]
        caps_f = kernels.cap_sum_rows(pair.F.values.reshape(1, -1), params.m)[0]
        assert np.array_equal(caps_min, caps_f), params
        checked += 1
    print(f"ACCEPTANCE 2 canonical-pair reduction: PASS ({checked} classes)")


def test_03_strong_index_equals_full_check():
    seqs = [DegreeSequence(t) for t in all_decreasing(5, 5)]
    pairs = 0
    for x in seqs:
        for y in seqs:
            assert zz_check(x, y).graphic == gale_ryser(x, y).graphic, (x, y)
            pairs += 1
    assert pairs == len(seqs) ** 2 == 63001

    random_pairs = random_pair_corpus(100_000, seed=20260810, max_len=50, max_val=50)
    for x, y in random_pairs:
        assert zz_check(x, y).graphic == gale_ryser(x, y).graphic, (x, y)
    print(f"ACCEPTANCE 3 strong index = full check: PASS "
          f"({pairs} exhaustive + {len(random_pairs)} random pairs)")


def test_04_smoothing_converges_to_canonical():
    count = 0
    for entries in all_decreasing(8, 8):
        if len(entries) < 2 or entries[0] == entries[-1]:
            continue
        f = DegreeSequence(entries)
        c, d = entries[0], entries[-1]
        cap_range = range(1, c + 2)
        current = f
        while True:
            stepped = smooth_step(current, c, d)
            if stepped is None:
                break
            assert len(stepped) == len(current)
            assert stepped.total == current.total
            assert stepped.largest == c and stepped.smallest == d
            assert sum(v * v for v in stepped) > sum(v * v for v in current)
            for k in cap_range:
                assert min_cap_sum(stepped, k) <= min_cap_sum(current, k)
            current = stepped
        want = canonical_sequence(c, d, len(entries), f.total)
        assert current == want, (entries, current, want)
        count += 1
    assert count == 12805
    print(f"ACCEPTANCE 4 smoothing convergence: PASS ({count} sequences)")


def test_05_symmetric_condition_consistent():
    checked_criterion = checked_oracle = 0
    for m in range(1, 11):
        for a in range(1, m + 1):
            for b in range(1, a + 1):
                if not symmetric_sufficient(a, b, m):
                    continue
                for S in s_range(a, b, a, b, m, m):
                    params = ClassParams(a, b, a, b, m, m, S)
                    verdict = theorem_main(params).verdict
                    assert verdict is not Verdict.NOT_ALL_GRAPHIC, params
                    checked_criterion += 1
                    if m <= 7:
                        oracle = brute_force_all_graphic(params).verdict
                        assert oracle is not OracleVerdict.FOUND_NON_GRAPHIC, params
                        assert (verdict is Verdict.VACUOUS) == (
                            oracle is OracleVerdict.EMPTY
                        )
                        checked_oracle += 1
    print(f"ACCEPTANCE 5 symmetric sufficient condition: PASS "
          f"({checked_criterion} criterion checks, {checked_oracle} oracle checks)")


def test_06_witness_fixture():
    code, out = run_cli(
        "check-class", "-a", "4", "-b", "1", "-c", "4", "-d", "1",
        "-m", "4", "-n", "4", "-S", "10", "--verify", "--json",
    )
    obj = json.loads(out)
    assert code == 1
    assert obj["verdict"] == "not-all-graphic"
    assert obj["lhs"] == 16 and obj["rhs"] == 14
    assert obj["oracle_verdict"] == "found-non-graphic"
    assert obj["witness"] == {"left": [4, 4, 1, 1], "right": [4, 4, 1, 1], "failing_k": 2}
    print("ACCEPTANCE 6 witness fixture: PASS")


def test_07_realization_soundness():
    count = 0
    for e, f in random_graphic_pairs(10_000, seed=42):
        graph = realize(e, f)
        assert graph.degree_audit(), (e, f)
        assert len(graph.edges) == e.total
        # Rows strictly increase in (left, right) order, so no edge repeats.
        rows = graph.edges[:, 0] * (len(f) + 1) + graph.edges[:, 1]
        assert np.all(np.diff(rows) > 0), (e, f)
        count += 1
    assert count == 10_000
    print(f"ACCEPTANCE 7 realization soundness: PASS ({count} pairs)")


def test_08_cli_contract(grid_results):
    # Criterion/oracle disagreement (exit 3) never occurred across the grid.
    codes = {code for _, code, _ in grid_results.values()}
    assert 3 not in codes
    assert codes <= {0, 1, 4}

    # Exit-code table, one command per verdict class.
    assert run_cli("check-pair", "--left", "2,2", "--right", "2,2")[0] == 0
    assert run_cli("check-pair", "--left", "4^2,1^2", "--right", "4^2,1^2")[0] == 1
    assert run_cli("check-pair", "--left", "2,2", "--right", "3,1,x")[0] == 2
    assert run_cli(
        "check-class", "-a", "2", "-b", "1", "-c", "2", "-d", "1",
        "-m", "3", "-n", "3", "-S", "3",
    )[0] == 4
    assert run_cli(
        "check-class", "-a", "3", "-b", "4", "-c", "1", "-d", "1",
        "-m", "4", "-n", "4", "-S", "4",
    )[0] == 2
    assert run_cli("symmetric", "-a", "4", "-b", "1", "-m", "4")[0] == 1

    # CSV and JSON renderings carry the same rows, field for field.
    args = ("-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "4", "-n", "4")
    code_csv, csv_out = run_cli("sweep", *args, "--verify")
    code_json, json_out = run_cli("sweep", *args, "--verify", "--format", "json")
    assert code_csv == code_json == 0
    header, *csv_lines = csv_out.strip().splitlines()
    assert header == "a,b,c,d,m,n,S,nonempty,r,s,p,q,lhs,rhs,verdict,oracle_agrees"
    csv_rows = [list(decode_sweep_csv(header, line).items()) for line in csv_lines]
    json_lines = json_out.strip().splitlines()
    assert csv_rows == [list(json.loads(line).items()) for line in json_lines]
    for line, row in zip(json_lines, csv_rows):
        assert json.dumps(dict(row), separators=(",", ":")) == line
    print("ACCEPTANCE 8 CLI contract: PASS")


def test_09_zero_minimum_classes():
    # The grid again with minima of 0 allowed: every class with b = 0 or
    # d = 0, each through the CLI with --verify.
    codes = Counter()
    for params in grid_params(GRID_LIMIT, min_floor=0):
        if params.b and params.d:
            continue
        code, out = run_cli(
            "check-class",
            "-a", str(params.a), "-b", str(params.b),
            "-c", str(params.c), "-d", str(params.d),
            "-m", str(params.m), "-n", str(params.n),
            "-S", str(params.S),
            "--verify", "--json",
        )
        obj = json.loads(out)
        assert obj["oracle_agrees"] is True, params
        assert (obj["verdict"] == "vacuous") == (not obj["nonempty"]), params
        assert code == VERDICT_EXIT[Verdict(obj["verdict"])], params
        codes[code] += 1
    assert codes == {0: 2132, 1: 3077, 4: 7236}
    print(f"ACCEPTANCE 9 zero-minimum classes: PASS ({sum(codes.values())} classes)")


# check-class --json keys, in the order an answer writes them.
CLASS_KEYS = (
    "a", "b", "c", "d", "m", "n", "S", "nonempty", "verdict", "branch", "r", "s", "p", "q",
    "lhs", "rhs", "min_term", "min_term_argument", "E", "F", "oracle_verdict", "oracle_agrees",
    "witness",
)
EXPECTED_ORACLE = {
    Verdict.ALL_GRAPHIC: OracleVerdict.ALL_GRAPHIC,
    Verdict.NOT_ALL_GRAPHIC: OracleVerdict.FOUND_NON_GRAPHIC,
    Verdict.VACUOUS: OracleVerdict.EMPTY,
}


def test_10_grid_answers_match_library(grid_results):
    # The fixed names an answer carries as strings need no JSON escaping.
    for name in (*(v.value for v in Verdict), *(b.value for b in Branch), *MIN_TERM_NAMES):
        assert json.dumps(name) == f'"{name}"', name
    for params, (obj, _, line) in grid_results.items():
        assert line == json.dumps(obj, separators=(",", ":")) + "\n", params
        report = theorem_main(params)
        want = {**params._asdict(), "nonempty": report.verdict is not Verdict.VACUOUS,
                "verdict": report.verdict.value}
        if report.branch is not None:
            want["branch"] = report.branch.value
        if report.decomposition is not None:
            pair = canonical_pair(params)
            want.update(report.decomposition._asdict(), lhs=report.lhs, rhs=report.rhs,
                        min_term=report.min_term, min_term_argument=report.min_term_argument,
                        E=pair.E.values.tolist(), F=pair.F.values.tolist())
        oracle = brute_force_all_graphic(params)
        want.update(oracle_verdict=oracle.verdict.value,
                    oracle_agrees=oracle.verdict is EXPECTED_ORACLE[report.verdict])
        if (w := oracle.witness) is not None:
            want["witness"] = {"left": w.left.values.tolist(), "right": w.right.values.tolist(),
                               "failing_k": w.failing_k}
        assert list(obj.items()) == [(key, want[key]) for key in CLASS_KEYS if key in want], params
    print(f"ACCEPTANCE 10 grid answers match the library: PASS ({len(grid_results)} classes)")
