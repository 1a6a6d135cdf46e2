"""The closed form against the brute-force oracle through the library alone
(no argparse, no CLI), on grids wider than the CLI acceptance grid and on
seeded classes with long sides.

The limit-8 grid with minima >= 1 runs with the suite.  The zero-minimum
limit-8 grid, the limit-10 grid and the long-sided classes take about a
minute and a half together, so they are opt-in: ``pytest -m wide_grid``.
"""

from collections import Counter

import numpy as np
import pytest

from bgseq import ClassParams, Verdict, brute_force_all_graphic, s_range, theorem_main
from bgseq.enumeration import OracleVerdict, _count_side
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


def long_sided_classes(count: int, seed: int):
    """Seeded classes with lengths from 2 to 30, maxima uniform up to the
    other side's length, each minimum zero a quarter of the time (else
    uniform up to the maximum) and S uniform over the class's sums, kept when
    both sides are nonempty, the longer one has 10^3 to 10^5 sequences;
    each with its two side counts."""
    rng = np.random.default_rng(seed)
    while count:
        m, n = (int(v) for v in rng.integers(2, 31, size=2))
        a, c = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
        b, d = (0 if rng.random() < 0.25 else int(rng.integers(0, high + 1)) for high in (a, c))
        sums = s_range(a, b, c, d, m, n)
        if not sums:
            continue
        S = int(rng.choice(sums))
        sides = _count_side(a, b, m, S, 10**5), _count_side(c, d, n, S, 10**5)
        if None not in sides and min(sides) > 0 and 10**3 <= max(sides) <= 10**5:
            count -= 1
            yield ClassParams(a, b, c, d, m, n, S), sides


@pytest.mark.wide_grid
def test_random_classes_with_long_sides():
    # The budget is each class's size, up to 10^10 pairs.
    counts = Counter()
    for params, (left, right) in long_sided_classes(60, seed=20261021):
        verdict = theorem_main(params).verdict
        got = brute_force_all_graphic(params, budget=left * right).verdict
        assert got is EXPECTED_ORACLE[verdict], params
        counts[verdict.value] += 1
    assert counts == {"all-graphic": 39, "not-all-graphic": 21}
