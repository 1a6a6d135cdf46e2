"""Exhaustive class generation and the brute-force oracle.

``enum_sequences`` streams every decreasing sequence with prescribed length,
max, min and sum in reverse-lexicographic order (most spread-out first, which
is where non-graphic witnesses concentrate).  ``brute_force_all_graphic``
decides a class from every sequence of both sides: by Gale-Ryser it is
all-graphic iff, at every k, the largest k-prefix sum over the left side L is
at most the smallest cap sum over the right side R.  One walk of each side
in blocks builds those two vectors in O(|L| * m + |R| * (m + n)) time, with
memory one block and its table (``BLOCK_CELLS`` cells, or one row and its
table if longer), plus each side's spot sample (``SPOT_CELLS`` cells, or one
row), plus the caches, cleared once they hold ``CACHE_BYTES``.  The oracle
is the independent ground truth the closed-form criterion is verified
against, so it deliberately shares no code path with ``theorem_main``.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache
from itertools import chain, islice
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

# The oracle walks a side in int64 blocks of this many cells, with their
# tables (one row at least), so its memory does not grow with the side.
BLOCK_CELLS = 1 << 16

# Each side's spot sample: every step-th row, at most this many table cells.
SPOT_CELLS = 1 << 10

# The oracle's caches are cleared together once the arrays they made hold
# more than this many bytes.
CACHE_BYTES = 1 << 23
_cache_bytes = 0


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


def _table(block: np.ndarray, kmax: int | None) -> np.ndarray:
    # The rows' prefix sums, or with kmax their cap sums up to kmax.
    return kernels.prefix_sum_rows(block) if kmax is None else kernels.cap_sum_rows(block, kmax)


@lru_cache(maxsize=4096)
def _side_matrix(A: int, B: int, L: int, S: int, rows: int, kmax: int | None):
    """The side's first ``rows`` rows (all of them if fewer), as int64, and their table."""
    block = np.fromiter(chain.from_iterable(islice(_walk(A, B, L, S), rows)), np.int64).reshape(-1, L)
    return _held(block, _table(block, kmax))


def _side_tables(A: int, B: int, L: int, S: int, count: int, kmax: int | None = None):
    """The side's ``count`` rows in order, as (first row index, int64 block,
    its table) triples, the table as in ``_table``.  A block and its table
    hold at most ``BLOCK_CELLS`` cells (one row at least).  The first block
    and its table are cached."""
    rows = max(1, BLOCK_CELLS // (L + (L if kmax is None else kmax)))
    yield 0, *_side_matrix(A, B, L, S, rows, kmax)
    rest = chain.from_iterable(islice(_walk(A, B, L, S), rows, None))
    for lo in range(rows, count, rows):
        block = np.fromiter(rest, np.int64, min(rows, count - lo) * L).reshape(-1, L)
        yield lo, block, _table(block, kmax)


def _reduce(A: int, B: int, L: int, S: int, count: int, kmax: int | None, pick):
    # One walk of the side: the per-k `pick` (np.maximum or np.minimum) of
    # its rows' tables, the tables of its spot sample (every step-th row, at
    # most SPOT_CELLS cells, one row at least) and the step.
    step, spots = -(-count // max(1, SPOT_CELLS // (L if kmax is None else kmax))), []
    for lo, _, rows in _side_tables(A, B, L, S, count, kmax):
        acc = pick.reduce(rows) if lo == 0 else pick(acc, pick.reduce(rows))
        spots.append(rows[-lo % step :: step].copy())
    if lo + len(rows) != count:
        raise RuntimeError(f"walked {lo + len(rows)} rows of a side counted {count}; this is a bug")
    return (*_held(acc, np.concatenate(spots)), step)


@lru_cache(maxsize=4096)
def _left_tables(A: int, B: int, L: int, S: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-k maximum of the side's prefix sums, its spot sample's and the sample's step."""
    return _reduce(A, B, L, S, count, None, np.maximum)


@lru_cache(maxsize=32768)
def _right_caps(A: int, B: int, L: int, S: int, kmax: int,
                count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-k minimum of the side's cap sums, its spot sample's and the sample's step."""
    return _reduce(A, B, L, S, count, kmax, np.minimum)


def _held(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # Arrays the caches keep: read-only, and counted against CACHE_BYTES,
    # past which all three caches start again empty.
    global _cache_bytes
    if _cache_bytes > CACHE_BYTES:
        for cache in (_side_matrix, _left_tables, _right_caps):
            cache.cache_clear()
        _cache_bytes = 0
    for arr in arrays:
        arr.setflags(write=False)
        _cache_bytes += arr.nbytes
    return arrays


def _first_failure(params: ClassParams, caps_min: np.ndarray, left: int, right: int):
    # (i, j, witness) of the first failing pair, from a second walk of each
    # side: left row i is the first whose prefix sums exceed caps_min
    # somewhere, right row j the first that row i fails against, at strong
    # index k (the smallest).  (left, 0, None), past every pair, if none fails.
    a, b, c, d, m, n, S = params
    for lo, block, prefix in _side_tables(a, b, m, S, left):
        over = prefix > caps_min
        r, t = divmod(int(over.argmax()), m)
        if over[r, t]:
            mask = kernels.boundary_mask_rows(block[r : r + 1])
            for lo_r, block_r, caps in _side_tables(c, d, n, S, right, m):
                _, j, k = kernels.scan_pairs(prefix[r : r + 1], mask, caps)
                if j >= 0:
                    e, f = (DegreeSequence._from_trusted(row.copy()) for row in (block[r], block_r[j]))
                    return lo + r, lo_r + j, WitnessPair(e, f, k)
            break
    return left, 0, None


def brute_force_all_graphic(params: ClassParams, budget: int | None = None) -> ClassWitness:
    """Definitional check of the class, from every sequence of both sides.

    All-graphic iff no left prefix sum exceeds the smallest right cap sum at
    its k (Gale-Ryser); else the first failing pair in enumeration order and
    its smallest violated strong index.  The product of the two sides' spot
    samples is tested with the full dominance test against that answer, up
    to the witness.  Refuses classes above the pair budget, and a negative
    budget with ValueError.
    """
    limit = DEFAULT_ORACLE_BUDGET if budget is None else operator.index(budget)
    if limit < 0:
        raise ValueError("budget must be nonnegative")
    left = _count_side(params.a, params.b, params.m, params.S, limit)
    right = _count_side(params.c, params.d, params.n, params.S, limit)
    if left == 0 or right == 0:
        return ClassWitness(OracleVerdict.EMPTY)
    # A side counted None is known only to exceed the budget.
    if left is None or right is None or left * right > limit:
        held = f"more than {limit}" if left is None or right is None else left * right
        raise OracleBudgetExceeded(
            f"class holds {held} pairs, above the oracle budget {limit}; "
            "pass a larger --budget (budget= in the library) to override"
        )
    a, b, c, d, m, n, S = params
    prefix_max, left_spots, left_step = _left_tables(a, b, m, S, left)
    caps_min, right_spots, right_step = _right_caps(c, d, n, S, m, right)
    passes = not (prefix_max > caps_min).any()
    i, j, witness = (left, 0, None) if passes else _first_failure(params, caps_min, left, right)
    # Spot checks: no sampled pair before the first failing one, (i, j), may
    # fail the full test.
    si, sj, _ = kernels.scan_pairs(left_spots, None, right_spots)
    if (witness is None) != passes or si >= 0 and (si * left_step, sj * right_step) < (i, j):
        raise RuntimeError("the per-side reductions disagreed with the full dominance test "
                           f"on {params}; this is a bug")
    if passes:
        return ClassWitness(OracleVerdict.ALL_GRAPHIC)
    # Self-certification: both scalar tests must fail the witness, zz_check at its k.
    if zz_check(*witness[:2]).failing_k != witness.failing_k or gale_ryser(*witness[:2]).graphic:
        raise RuntimeError(f"the scalar tests disagreed with the witness on {params}; this is a bug")
    return ClassWitness(OracleVerdict.FOUND_NON_GRAPHIC, witness)
