"""Graphicality tests for a concrete pair of degree sequences.

``gale_ryser`` runs the full dominance test (equal sums plus prefix sums of
one side bounded by min-cap sums of the other, for every k).  ``zz_check``
reaches the same verdict testing only the strong indices of the left
sequence; both take O(len(x) + len(y)) time and memory.  ``realize``
constructs an explicit bipartite graph for a graphic pair as sorted runs of
right ends.  It keeps the right side as levels of equal residual demand, each
a list of index intervals, and takes equal-degree left vertices in batches
that each cost O(log L + j) for L levels and the j intervals merged or
written (the runs): O(len(e) + len(f)) plus that per batch, never per edge.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .seqcore import DegreeSequence, to_blocks

__all__ = [
    "NotGraphic",
    "PairVerdict",
    "BipartiteRealization",
    "gale_ryser",
    "zz_check",
    "realize",
]


class NotGraphic(ValueError):
    """Raised by ``realize`` when the pair admits no bipartite graph."""


class PairVerdict(NamedTuple):
    """Outcome of a pair test.

    ``failing_k`` is the smallest tested k at which the dominance inequality
    fails; it is present exactly when the sums match but dominance does not.
    """

    graphic: bool
    failing_k: int | None
    sums_equal: bool


def _first_violation(x: DegreeSequence, y: DegreeSequence, strong: bool) -> PairVerdict:
    # viol's first set entry, if any, is the smallest k (a strong index of x
    # when ``strong``) with prefix_k(x) > sum_i min(k, y_i).  Zeros need no
    # stripping: the mask skips x's zero tail; y's zeros add nothing to caps.
    prefix = np.add.accumulate(x.values)
    if prefix[-1] != y.values.sum():
        return PairVerdict(False, None, False)
    viol = prefix > kernels.cap_sum_rows(y.values.reshape(1, -1), prefix.size)[0]
    if strong:
        viol &= kernels.boundary_mask_rows(x.values.reshape(1, -1))[0]
    k = int(viol.argmax())
    return PairVerdict(False, k + 1, True) if viol[k] else PairVerdict(True, None, True)


def gale_ryser(e: DegreeSequence, f: DegreeSequence) -> PairVerdict:
    """Full bipartite graphicality test.

    Graphic iff sum(e) = sum(f) and for every k = 1..len(e) the k-prefix sum
    of e is at most sum_i min(k, f_i).  O(len(e) + len(f)) time and memory.
    """
    return _first_violation(e, f, strong=False)


def zz_check(x: DegreeSequence, y: DegreeSequence) -> PairVerdict:
    """Strong-index graphicality test.

    Tests the dominance inequality only at the block boundaries of x (the
    cumulative run lengths of its positive entries); agrees with
    ``gale_ryser`` on every pair.  O(len(x) + len(y)) time and memory.
    """
    return _first_violation(x, y, strong=True)


class BipartiteRealization:
    """A simple bipartite graph with prescribed degrees on both sides.

    ``edge_runs`` is a read-only (R, 3) int64 array of runs (left, first,
    end): left vertex ``left`` is joined to right vertices first .. end - 1.
    Indices are 1-based, runs sorted by (left, first) and disjoint, so no
    edge repeats; left vertex i has exactly ``left_degrees[i-1]`` edges and
    symmetrically on the right.  ``edges`` expands the runs on first use into
    a read-only (|E|, 2) array of (left, right) rows in the same order.
    Attributes cannot be assigned.  Equality and hashing are by identity,
    because arrays do not compare as one truth value.
    """

    def __init__(self, left_degrees: DegreeSequence, right_degrees: DegreeSequence,
                 edge_runs: np.ndarray):
        vars(self).update(left_degrees=left_degrees, right_degrees=right_degrees, edge_runs=edge_runs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to BipartiteRealization.{name}")

    def __repr__(self) -> str:
        return (f"BipartiteRealization(left_degrees={self.left_degrees!r}, "
                f"right_degrees={self.right_degrees!r}, edge_runs={self.edge_runs!r})")

    @cached_property
    def edges(self) -> np.ndarray:
        left, first, end = self.edge_runs.T
        lengths = end - first
        right = np.repeat(first - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
        edges = np.column_stack((np.repeat(left, lengths), right))
        edges.setflags(write=False)
        return edges

    def degree_audit(self) -> bool:
        """Whether ``edge_runs`` is a simple graph with the prescribed
        degrees: an (R, 3) integer array of in-range 1-based runs, each
        nonempty, in strictly increasing (left, first) order with the runs of
        one left vertex disjoint, so no edge repeats, whose recounted degrees
        equal both sequences entrywise."""
        runs = np.asarray(self.edge_runs)
        m, n = len(self.left_degrees), len(self.right_degrees)
        if runs.dtype.kind not in "iu" or runs.ndim != 2 or runs.shape[1] != 3:
            return False
        left, first, end = runs.astype(np.int64, copy=False).T
        if np.any((left < 1) | (left > m) | (first < 1) | (end <= first) | (end > n + 1)):
            return False
        # Each run starts at or past where the one before it ends, in (left, right) order.
        if np.any(left[1:] * (n + 2) + first[1:] < left[:-1] * (n + 2) + end[:-1]):
            return False
        # Right degrees: the cumulative sum of +1 at each run's first, -1 at its end.
        steps = np.bincount(first, minlength=n + 2) - np.bincount(end, minlength=n + 2)
        return (np.array_equal(np.bincount(left - 1, end - first, minlength=m), self.left_degrees.values)
                and np.array_equal(np.cumsum(steps)[1:n + 1], self.right_degrees.values))


def _union(a: list[int], b: list[int]) -> list[int]:
    # Union of two disjoint sorted interval lists in flat [lo, hi, lo, hi, ...]
    # form.  A bound in both lists is one interval ending where the other
    # starts, so dropping it joins them: no two intervals of the result touch.
    if not a:
        return b
    if not b:
        return a
    return sorted(set(a).symmetric_difference(b))


def realize(e: DegreeSequence, f: DegreeSequence) -> BipartiteRealization:
    """Build a bipartite graph realizing the pair (e, f), as runs of right ends.

    Left vertices are processed in the given (decreasing-degree) order; each
    connects to the right vertices of currently largest residual demand,
    breaking ties by smallest index.  Raises NotGraphic when the pair fails
    the dominance test.

    Because f is decreasing and ties go to the smallest index, a right
    vertex never has residual demand two below a later one, so a row that
    takes everything above residual t plus the head of residual t changes
    only the levels t + 1, t and t - 1 of the right side, each kept as sorted
    index intervals.  Rows of equal degree go in batches of k: while no level
    sits at t + 1, k rows take the same prefix and the next k heads of level
    t; while no level sits at t - 1, k rows that each take all of level t
    take the same prefix.  A batch costs O(log L + j) for L nonempty levels
    and the j intervals it merges or writes, and the intervals it writes are
    the runs returned: O(n + m) plus that per batch, not per left vertex.
    """
    verdict = gale_ryser(e, f)
    if not verdict.graphic:
        if not verdict.sums_equal:
            raise NotGraphic("pair is not bipartite graphic: sums differ")
        raise NotGraphic(
            f"pair is not bipartite graphic: dominance fails at k={verdict.failing_k}"
        )
    # Level k holds the right vertices of residual gaps[1] + ... + gaps[k] as
    # a flat interval list; -negcum[k] of them have at least that residual.
    # Level 0 (residual 0) is always there; every other level is nonempty.
    levels, gaps, negcum = [[]], [0], [-len(f)]
    end, below = len(f), 0
    for value, count in reversed(to_blocks(f).blocks):
        if value:
            levels.append([end - count, end])
            gaps.append(value - below)
            negcum.append(-end)
            below = value
        else:
            levels[0] = [end - count, end]
        end -= count
    bounds: list[int] = []  # the intervals each row takes, row after row
    copies: list[int] = []  # (span, count) pairs: that span is `count` equal rows
    for deg, rows in to_blocks(e).blocks:
        while deg and rows:
            # Level i has residual t, the deg-th largest; a row takes every
            # vertex above t and the next `need` vertices of level t.
            i = bisect_right(negcum, -deg) - 1
            if i < 1:
                raise RuntimeError("greedy realization ran out of demand on a graphic pair")
            if deg == -negcum[i] and gaps[i] > 1:
                # Each row takes all of levels >= t, the prefix [0, deg), and
                # they move down together until level t is one above the next.
                k = min(rows, gaps[i] - 1)
                copies += (len(bounds) // 2, k)
                bounds += (0, deg)
                gaps[i] -= k
                rows -= k
                continue
            above = i + 1 < len(levels)
            need = deg + negcum[i + 1] if above else deg
            level = levels[i]
            upper = levels[i + 1] if above and gaps[i + 1] == 1 else []
            lower = levels[i - 1] if gaps[i] == 1 else None
            # With no level at t + 1, rows take the same prefix and the next
            # heads of level t (which holds need - deg - negcum[i] vertices),
            # until a level above comes down to t + 1 or level t runs short.
            k = 1 if upper else min(rows, (need - deg - negcum[i]) // need,
                                    gaps[i + 1] - 1 if above else rows)
            rows -= k
            # Every vertex before p has residual above t, and past p only level
            # t + 1 has any: the first vertex of residual t or t - 1 is p.
            p = level[0] if not lower or lower[0] > level[0] else lower[0]
            beyond = upper[bisect_right(upper, p):]
            j, cut = 0, level[0]
            for _ in range(k):
                if cut == level[j + 1]:
                    j += 2
                    cut = level[j]
                row, left = [cut], need
                while level[j + 1] - cut < left:
                    left -= level[j + 1] - cut
                    row += (level[j + 1], level[j + 2])
                    j += 2
                    cut = level[j]
                cut += left
                row.append(cut)
                if p:
                    bounds += (0, p)
                bounds += sorted(beyond + row) if beyond else row
            head = level[:j + 1] + [cut]
            rest = level[j + 2:] if cut == level[j + 1] else [cut] + level[j + 1:]
            # Level t + 1 and the rest of t form the new level t, the heads
            # join level t - 1, and the levels above t + 1 move down k.
            window, window_gaps, window_cum = [], [], []
            if lower is None:
                window.append(head)
                window_gaps.append(gaps[i] - 1)
                window_cum.append(negcum[i])
            else:
                levels[i - 1] = _union(lower, head)
            merged = _union(rest, upper)
            if merged:
                window.append(merged)
                window_gaps.append(1)
                window_cum.append(negcum[i] + k * need)
            if above and not upper:
                gaps[i + 1] -= k if merged else k - 1
            stop = i + 2 if upper else i + 1
            levels[i:stop], gaps[i:stop], negcum[i:stop] = window, window_gaps, window_cum
    if len(levels) > 1:
        raise RuntimeError("greedy realization left unmet demand on a graphic pair")
    spans = np.array(bounds, dtype=np.int64).reshape(-1, 2)
    if copies:
        counts = np.ones(len(spans), dtype=np.int64)
        counts[copies[::2]] = copies[1::2]
        spans = np.repeat(spans, counts, axis=0)
    # A span's left vertex is the row its first edge falls in.
    lengths = spans[:, 1] - spans[:, 0]
    rows = np.searchsorted(np.cumsum(e.values), np.cumsum(lengths) - lengths, side="right")
    runs = np.column_stack((rows + 1, spans + 1))
    runs.setflags(write=False)
    return BipartiteRealization(e, f, runs)
