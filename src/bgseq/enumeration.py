"""Exhaustive class generation and the brute-force oracle.

``enum_sequences`` streams every decreasing sequence with prescribed length,
max, min and sum in reverse-lexicographic order (most spread-out first, which
is where non-graphic witnesses concentrate).  ``brute_force_all_graphic``
scans the full Cartesian product of a class with the strong-index test,
spot-validated against the full dominance test; it is the independent ground
truth the closed-form criterion is verified against, so it deliberately
shares no code path with ``theorem_main``.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .galeryser import gale_ryser, zz_check
from .seqcore import ClassParams, DegreeSequence, LimitExceeded, OracleBudgetExceeded, _check_side_args

__all__ = [
    "OracleBudgetExceeded",
    "OracleVerdict",
    "WitnessPair",
    "ClassWitness",
    "DEFAULT_ORACLE_BUDGET",
    "SPOT_STRIDE",
    "enum_sequences",
    "enum_class",
    "count_class",
    "brute_force_all_graphic",
]

DEFAULT_ORACLE_BUDGET = 10**7

# Side counts that take more steps than this are first bounded from below,
# so that a class far above the oracle budget is refused quickly, and
# count_class refuses them.
EXACT_COUNT_STEPS = 1 << 20

# Every 1000th scanned pair is re-tested with the full dominance check.
SPOT_STRIDE = 1000


class OracleVerdict(Enum):
    ALL_GRAPHIC = "all-graphic"
    FOUND_NON_GRAPHIC = "found-non-graphic"
    EMPTY = "empty"


class WitnessPair(NamedTuple):
    left: DegreeSequence
    right: DegreeSequence
    failing_k: int


class ClassWitness(NamedTuple):
    """Oracle outcome: either every pair passed, or the first failing pair in
    enumeration order together with a violated index, or the class is empty."""

    verdict: OracleVerdict
    witness: WitnessPair | None = None


def _walk(A: int, B: int, L: int, S: int) -> Iterator[tuple[int, ...]]:
    # Decreasing length-L sequences with first entry A, last entry B, sum S,
    # emitted in reverse-lexicographic order.  Bounds are exact, so every
    # branch taken completes to at least one sequence.
    if L == 1:
        if A == B == S:
            yield (A,)
        return
    mid = L - 2
    target = S - A - B
    if target < B * mid or target > A * mid:
        return
    if mid == 0:
        yield (A, B)
        return
    # Odometer over the middle entries: fill every position from `i` on with
    # its largest feasible value, emit, then step the deepest position that
    # is still above its smallest feasible value down by one.
    buf = [0] * mid
    low = [0] * mid
    rem = [0] * (mid + 1)  # rem[j]: what positions j.. must sum to
    rem[0] = target
    i = 0
    while True:
        for j in range(i, mid):
            slots = mid - j
            r = rem[j]
            buf[j] = min(buf[j - 1] if j else A, r - B * (slots - 1))
            low[j] = max(B, -(-r // slots))
            rem[j + 1] = r - buf[j]
        yield (A, *buf, B)
        j = mid - 1
        while j >= 0 and buf[j] == low[j]:
            j -= 1
        if j < 0:
            return
        buf[j] -= 1
        rem[j + 1] += 1
        i = j + 1


def enum_sequences(A: int, B: int, L: int, S: int) -> Iterator[DegreeSequence]:
    """Stream each decreasing length-L sequence with max A, min B and sum S
    exactly once, in reverse-lexicographic order."""
    A, B, L, S = _check_side_args(A, B, L, S)
    for row in _walk(A, B, L, S):
        yield DegreeSequence._from_trusted(np.array(row, dtype=np.int64))


def enum_class(params: ClassParams) -> Iterator[tuple[DegreeSequence, DegreeSequence]]:
    """Stream the Cartesian product of the two sides of the class, left-major.

    The right side is materialized once; the left side is streamed.
    """
    rights = list(enum_sequences(params.c, params.d, params.n, params.S))
    if not rights:
        return
    for e in enum_sequences(params.a, params.b, params.m, params.S):
        for f in rights:
            yield (e, f)


def _box_partitions(parts: int, size: int, total: int) -> int:
    # Partitions of `total` into at most `parts` parts, each at most `size`:
    # the coefficient of q^total in the Gaussian binomial
    # [parts + size choose size]_q, multiplied out from its product formula
    # prod_{i=1..k} (1 - q^(K+i)) / (1 - q^i), k = min(parts, size),
    # K = max(parts, size), truncated above q^total.  O(k * total) int steps.
    k, K = min(parts, size), max(parts, size)
    coeffs = [1] + [0] * total
    for i in range(1, k + 1):
        step = K + i
        for t in range(total, step - 1, -1):
            coeffs[t] -= coeffs[t - step]
        for t in range(i, total + 1):
            coeffs[t] += coeffs[t - i]
    return coeffs[total]


@lru_cache(maxsize=1 << 14)
def _count_side(A: int, B: int, L: int, S: int, cap: int | None = None) -> int | None:
    """Number of decreasing length-L sequences with max A, min B and sum S.

    With ``cap``, returns None as soon as that number is known to exceed
    ``cap``, without finishing the count.  Cached, because the oracle counts
    both sides of every class it is asked about."""
    if L == 1:
        return 1 if A == B == S else 0
    if A < B:
        return 0
    # Fixed first entry A and last entry B; shift the L-2 middle entries down
    # by B and count the partitions of what remains that fit an
    # (L-2) x (A-B) box.
    parts, size = L - 2, A - B
    total = S - A - B - parts * B
    if total < 0 or total > parts * size:
        return 0
    # The box counts are symmetric about parts*size/2, and no partition of
    # `total` has more than `total` parts or a part above `total`.
    total = min(total, parts * size - total)
    parts, size = min(parts, total), min(size, total)
    steps = min(parts, size) * total
    if cap is None and steps > EXACT_COUNT_STEPS:
        raise LimitExceeded(f"counting a side exactly takes {steps} steps, above {EXACT_COUNT_STEPS}")
    if cap is None or steps <= EXACT_COUNT_STEPS:
        return _box_partitions(parts, size, total)
    # The box counts also rise up to the middle (Sylvester), so the count at
    # any t <= total is a lower bound: stop once one passes the cap.
    t = 64
    while t < total:
        if _box_partitions(parts, size, t) > cap:
            return None
        t *= 4
    return _box_partitions(parts, size, total)


def count_class(params: ClassParams) -> int:
    """Exact size of the class, |left side| * |right side|, without
    enumerating anything.  Raises LimitExceeded when counting a side would
    take more than ``EXACT_COUNT_STEPS`` integer steps (a side's count costs
    min(parts, size) * total steps, as in ``_box_partitions``)."""
    left = _count_side(params.a, params.b, params.m, params.S)
    if left == 0:
        return 0
    return left * _count_side(params.c, params.d, params.n, params.S)


@lru_cache(maxsize=4096)
def _side_matrix(A: int, B: int, L: int, S: int) -> np.ndarray:
    rows = list(_walk(A, B, L, S))
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), L)
    assert arr.shape[0] == _count_side(A, B, L, S, cap=arr.shape[0])
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=4096)
def _left_tables(A: int, B: int, L: int, S: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    seqs = _side_matrix(A, B, L, S)
    prefix = kernels.prefix_sum_rows(seqs)
    mask = kernels.boundary_mask_rows(seqs)
    prefix.setflags(write=False)
    mask.setflags(write=False)
    return seqs, prefix, mask


@lru_cache(maxsize=32768)
def _right_caps(A: int, B: int, L: int, S: int, kmax: int) -> np.ndarray:
    caps = kernels.cap_sum_rows(_side_matrix(A, B, L, S), kmax)
    caps.setflags(write=False)
    return caps


def brute_force_all_graphic(params: ClassParams, budget: int | None = None) -> ClassWitness:
    """Definitional check of the class: test every pair.

    Scans the Cartesian product in enumeration order with the strong-index
    kernel, spot-validating a deterministic 1-in-1000 subsample against the
    full dominance test.  Refuses classes above the pair budget, and a
    negative budget with ValueError.
    """
    limit = DEFAULT_ORACLE_BUDGET if budget is None else operator.index(budget)
    if limit < 0:
        raise ValueError("budget must be nonnegative")
    left = _count_side(params.a, params.b, params.m, params.S, limit)
    right = _count_side(params.c, params.d, params.n, params.S, limit)
    if left == 0 or right == 0:
        size = 0
    elif left is None or right is None:
        size = None  # known only to exceed the budget
    else:
        size = left * right
    if size is None or size > limit:
        held = f"more than {limit}" if size is None else size
        raise OracleBudgetExceeded(
            f"class holds {held} pairs, above the oracle budget {limit}; "
            "pass a larger --budget (budget= in the library) to override"
        )
    if size == 0:
        return ClassWitness(OracleVerdict.EMPTY)
    _, prefix, mask = _left_tables(params.a, params.b, params.m, params.S)
    caps = _right_caps(params.c, params.d, params.n, params.S, params.m)
    i, j, k, disagreements = kernels.scan_pairs(prefix, mask, caps, SPOT_STRIDE)
    if disagreements:
        raise RuntimeError(
            "strong-index test disagreed with the full dominance test "
            f"{disagreements} time(s) on {params}; this is a bug"
        )
    if i < 0:
        return ClassWitness(OracleVerdict.ALL_GRAPHIC)
    lefts = _side_matrix(params.a, params.b, params.m, params.S)
    rights = _side_matrix(params.c, params.d, params.n, params.S)
    left = DegreeSequence._from_trusted(lefts[i])
    right = DegreeSequence._from_trusted(rights[j])
    # Self-certification: the witness must fail the scalar tests the same way.
    scalar = zz_check(left, right)
    assert not scalar.graphic and scalar.failing_k == k
    assert not gale_ryser(left, right).graphic
    return ClassWitness(OracleVerdict.FOUND_NON_GRAPHIC, WitnessPair(left, right, k))
