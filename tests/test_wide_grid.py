"""The closed form against the brute-force oracle through the library alone
(no argparse, no CLI), on grids wider than the CLI acceptance grid.

The limit-8 grid with minima >= 1 runs with the suite.  The zero-minimum
limit-8 grid and the limit-10 grid take about a minute together, so they
are opt-in: ``pytest -m wide_grid``.
"""

from collections import Counter

import pytest

from bgseq import Verdict, brute_force_all_graphic, theorem_main
from bgseq.enumeration import OracleVerdict
from helpers import grid_params

EXPECTED_ORACLE = {
    Verdict.ALL_GRAPHIC: OracleVerdict.ALL_GRAPHIC,
    Verdict.NOT_ALL_GRAPHIC: OracleVerdict.FOUND_NON_GRAPHIC,
    Verdict.VACUOUS: OracleVerdict.EMPTY,
}


def verdict_counts(limit: int, min_floor: int, zero_minimum_only: bool = False) -> Counter:
    """Check every class of the grid against the oracle; count the verdicts."""
    counts = Counter()
    for params in grid_params(limit, min_floor):
        if zero_minimum_only and params.b and params.d:
            continue
        verdict = theorem_main(params).verdict
        assert brute_force_all_graphic(params).verdict is EXPECTED_ORACLE[verdict], params
        counts[verdict.value] += 1
    return counts


def test_limit_8_positive_minima():
    assert verdict_counts(8, 1) == {"all-graphic": 26367, "not-all-graphic": 9949,
                                    "vacuous": 27048}


@pytest.mark.wide_grid
def test_limit_8_zero_minima():
    assert verdict_counts(8, 0, zero_minimum_only=True) == {
        "all-graphic": 12859, "not-all-graphic": 23341, "vacuous": 32572}


@pytest.mark.wide_grid
def test_limit_10_positive_minima():
    assert verdict_counts(10, 1) == {"all-graphic": 146882, "not-all-graphic": 65132,
                                     "vacuous": 117686}
