"""Graphicality tests for a concrete pair of degree sequences.

``gale_ryser`` runs the full dominance test (equal sums plus prefix sums of
one side bounded by min-cap sums of the other, for every k).  ``zz_check``
reaches the same verdict testing only the strong indices of the left
sequence; both take O(len(x) + len(y)) time and memory.  ``realize``
constructs an explicit bipartite graph for a graphic pair as a sorted edge
array.  It keeps the right side as levels of equal residual demand, each a
list of index intervals, so a left vertex costs O(log D + k) for the largest
right degree D and the k intervals it merges, not a pass over the right
side: O(len(e) + len(f) + |E|) plus that per-row term in all.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of a pair test.

    ``failing_k`` is the smallest tested k at which the dominance inequality
    fails; it is present exactly when the sums match but dominance does not.
    """

    graphic: bool
    failing_k: int | None
    sums_equal: bool


def _first_violation(x: DegreeSequence, y: DegreeSequence, strong: bool) -> PairVerdict:
    # Smallest k, among the strong indices of x when ``strong``, with
    # prefix_k(x) > sum_i min(k, y_i).  Zero entries need no stripping: the
    # mask excludes the zero tail of x, and zeros of y add nothing to caps.
    if x.total != y.total:
        return PairVerdict(False, None, False)
    caps = kernels.cap_sum_rows(y.values.reshape(1, -1), len(x))[0]
    viol = np.cumsum(x.values) > caps
    if strong:
        viol &= kernels.boundary_mask_rows(x.values.reshape(1, -1))[0]
    if viol.any():
        return PairVerdict(False, int(np.argmax(viol)) + 1, True)
    return PairVerdict(True, None, True)


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


@dataclass(frozen=True, eq=False)
class BipartiteRealization:
    """A simple bipartite graph with prescribed degrees on both sides.

    ``edges`` is a read-only (|E|, 2) int64 array of (left_index,
    right_index) rows, 1-based and sorted by (left, right), so no edge
    repeats; left vertex i has exactly ``left_degrees[i-1]`` edges and
    symmetrically on the right.
    """

    left_degrees: DegreeSequence
    right_degrees: DegreeSequence
    edges: np.ndarray

    def degree_audit(self) -> bool:
        """Whether ``edges`` is a simple graph with the prescribed degrees:
        an (|E|, 2) array of in-range 1-based rows that strictly increase in
        (left, right) order, so no edge repeats, whose recounted degrees
        equal both sequences entrywise."""
        edges = np.asarray(self.edges)
        m, n = len(self.left_degrees), len(self.right_degrees)
        if (edges.dtype.kind not in "iu" or edges.ndim != 2 or edges.shape[1] != 2
                or len(edges) != self.left_degrees.total):
            return False
        edges = edges.astype(np.int64, copy=False)
        left, right = edges[:, 0], edges[:, 1]
        if np.any((left < 1) | (left > m) | (right < 1) | (right > n)):
            return False
        if np.any(np.diff(left * (n + 1) + right) <= 0):
            return False
        return all(
            np.array_equal(np.bincount(ends - 1, minlength=len(degrees)), degrees.values)
            for ends, degrees in ((left, self.left_degrees), (right, self.right_degrees))
        )


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
    """Build a bipartite graph realizing the pair (e, f).

    Left vertices are processed in the given (decreasing-degree) order; each
    connects to the right vertices of currently largest residual demand,
    breaking ties by smallest index.  Raises NotGraphic when the pair fails
    the dominance test.

    Because f is decreasing and ties go to the smallest index, a right
    vertex never has residual demand two below a later one.  So the
    vertices of residual at least t + 2 precede every vertex of residual at
    most t, and a row that takes everything above residual t, plus the head
    of residual t, changes only the levels t + 1, t and t - 1 of the right
    side: the levels above move down one as a whole.  Each level is kept as
    sorted index intervals.  O(n + m * (log D + k) + |E|) time for
    D = f.largest and k intervals in the levels a row merges, plus one
    pointer move over the list of nonempty levels per row.
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
    for deg in e.values.tolist():
        if deg == 0:
            continue
        # Level i has residual t, the deg-th largest; the row takes every
        # vertex above t and the first `need` vertices of level t.
        i = bisect_right(negcum, -deg) - 1
        if i < 1:
            raise RuntimeError("greedy realization ran out of demand on a graphic pair")
        above = i + 1 < len(levels)
        need = deg + negcum[i + 1] if above else deg
        level = levels[i]
        upper = levels[i + 1] if above and gaps[i + 1] == 1 else []
        lower = levels[i - 1] if gaps[i] == 1 else None
        k, left = 0, need
        while level[k + 1] - level[k] < left:
            left -= level[k + 1] - level[k]
            k += 2
        cut = level[k] + left
        head = level[:k + 1] + [cut]
        rest = level[k + 2:] if cut == level[k + 1] else [cut] + level[k + 1:]
        # Every vertex before p has residual above t, and past p only level
        # t + 1 has any: the first vertex of residual t or t - 1 is p.
        p = level[0] if not lower or lower[0] > level[0] else lower[0]
        if p:
            bounds += (0, p)
        beyond = upper[bisect_right(upper, p):]
        bounds += sorted(beyond + head) if beyond else head
        # Level t + 1 and the rest of t form the new level t, the head joins
        # level t - 1, and the levels above t + 1 move down one.
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
            window_cum.append(negcum[i] + need)
            if above and not upper:
                gaps[i + 1] -= 1
        stop = i + 2 if upper else i + 1
        levels[i:stop], gaps[i:stop], negcum[i:stop] = window, window_gaps, window_cum
    if len(levels) > 1:
        raise RuntimeError("greedy realization left unmet demand on a graphic pair")
    spans = np.array(bounds, dtype=np.int64).reshape(-1, 2)
    lengths = spans[:, 1] - spans[:, 0]
    edges = np.empty((e.total, 2), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(1, len(e) + 1), e.values)
    edges[:, 1] = np.repeat(spans[:, 0] - (np.cumsum(lengths) - lengths) + 1, lengths)
    edges[:, 1] += np.arange(e.total)
    edges.setflags(write=False)
    return BipartiteRealization(e, f, edges)
