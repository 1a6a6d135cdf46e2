"""Graphicality tests for a concrete pair of degree sequences.

``gale_ryser`` runs the full dominance test (equal sums plus prefix sums of
one side bounded by min-cap sums of the other, for every k).  ``zz_check``
reaches the same verdict testing only the strong indices of the left
sequence; both take O(len(x) + len(y)) time and memory.  ``realize``
constructs an explicit bipartite graph for a graphic pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .seqcore import DegreeSequence

__all__ = [
    "NotGraphic",
    "PairVerdict",
    "BipartiteRealization",
    "gale_ryser",
    "zz_check",
    "last_index_shortcut",
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
        viol &= kernels.boundary_mask_rows(x.values.reshape(1, -1))[0].astype(bool)
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


def last_index_shortcut(y: DegreeSequence, m: int) -> bool:
    """Whether y_1 <= m.

    When sum(x) = sum(y) and len(x) = m, this equals the k = m instance of
    the dominance inequality, so the final strong index never needs the full
    cap sum.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return y.largest <= m


@dataclass(frozen=True)
class BipartiteRealization:
    """A simple bipartite graph with prescribed degrees on both sides.

    Edges are (left_index, right_index) pairs, 1-based; left vertex i has
    exactly ``left_degrees[i-1]`` edges and symmetrically on the right.
    """

    left_degrees: DegreeSequence
    right_degrees: DegreeSequence
    edges: frozenset[tuple[int, int]]

    def degree_audit(self) -> bool:
        """Recount degrees from the edge set and compare entrywise."""
        left = [0] * len(self.left_degrees)
        right = [0] * len(self.right_degrees)
        for u, v in self.edges:
            left[u - 1] += 1
            right[v - 1] += 1
        return left == list(self.left_degrees) and right == list(self.right_degrees)


def realize(e: DegreeSequence, f: DegreeSequence) -> BipartiteRealization:
    """Build a bipartite graph realizing the pair (e, f).

    Left vertices are processed in the given (decreasing-degree) order; each
    connects to the right vertices of currently largest residual demand,
    breaking ties by smallest index.  Raises NotGraphic when the pair fails
    the dominance test.
    """
    verdict = gale_ryser(e, f)
    if not verdict.graphic:
        if not verdict.sums_equal:
            raise NotGraphic("pair is not bipartite graphic: sums differ")
        raise NotGraphic(
            f"pair is not bipartite graphic: dominance fails at k={verdict.failing_k}"
        )
    residual = f.values.copy()
    indices = np.arange(residual.size)
    edges: set[tuple[int, int]] = set()
    for i, deg in enumerate(e.values.tolist()):
        if deg == 0:
            continue
        chosen = np.lexsort((indices, -residual))[:deg]
        if residual[chosen[-1]] <= 0:
            raise RuntimeError("greedy realization ran out of demand on a graphic pair")
        residual[chosen] -= 1
        for j in chosen.tolist():
            edges.add((i + 1, j + 1))
    if residual.any():
        raise RuntimeError("greedy realization left unmet demand on a graphic pair")
    return BipartiteRealization(e, f, frozenset(edges))
