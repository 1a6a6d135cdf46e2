"""Pair tests: full dominance check, strong-index check, realization."""

import tracemalloc

import numpy as np
import pytest

from bgseq import (
    MAX_INPUT,
    BipartiteRealization,
    DegreeSequence,
    NotGraphic,
    PairVerdict,
    gale_ryser,
    realize,
    zz_check,
)
from bgseq import galeryser
from bgseq.seqcore import to_blocks
from helpers import all_decreasing, min_cap_sum, random_pair_corpus


def seq(*entries):
    return DegreeSequence(entries)


def expanded_runs(real):
    """The edges of a realization as (left, right) lists, after checking
    that its runs are a read-only int64 (R, 3) array sorted by (left,
    first), each nonempty, the runs of one row disjoint."""
    runs = real.edge_runs
    assert runs.dtype == np.int64 and runs.ndim == 2 and runs.shape[1] == 3
    assert not runs.flags.writeable
    left, first, end = runs.T
    assert (first < end).all()
    assert ((left[1:] > left[:-1]) | ((left[1:] == left[:-1]) & (first[1:] >= end[:-1]))).all()
    return real.edges.tolist()


class TestGaleRyser:
    def test_complete_bipartite(self):
        verdict = gale_ryser(seq(2, 2), seq(2, 2))
        assert verdict.graphic and verdict.sums_equal and verdict.failing_k is None

    def test_spread_pair_fails_at_two(self):
        verdict = gale_ryser(seq(4, 4, 1, 1), seq(4, 4, 1, 1))
        assert not verdict.graphic
        assert verdict.sums_equal
        assert verdict.failing_k == 2

    def test_mixed_pair_graphic(self):
        assert gale_ryser(seq(3, 2, 2, 1), seq(3, 3, 1, 1)).graphic

    def test_unequal_sums(self):
        verdict = gale_ryser(seq(3, 1), seq(3, 2))
        assert not verdict.graphic
        assert not verdict.sums_equal
        assert verdict.failing_k is None

    def test_failing_k_is_smallest_and_genuine(self):
        for x, y in random_pair_corpus(400, seed=11, max_len=20, max_val=20):
            verdict = gale_ryser(x, y)
            if verdict.graphic or not verdict.sums_equal:
                continue
            k = verdict.failing_k
            prefix = sum(list(x)[:k])
            assert prefix > min_cap_sum(y, k)
            for smaller in range(1, k):
                assert sum(list(x)[:smaller]) <= min_cap_sum(y, smaller)

    def test_symmetry_exhaustive_small(self):
        seqs = [DegreeSequence(t) for t in all_decreasing(4, 4)]
        for x in seqs:
            for y in seqs:
                assert gale_ryser(x, y).graphic == gale_ryser(y, x).graphic

    def test_symmetry_random(self):
        for x, y in random_pair_corpus(1000, seed=17):
            assert gale_ryser(x, y).graphic == gale_ryser(y, x).graphic

    def test_handles_zero_entries(self):
        assert gale_ryser(seq(2, 2, 0), seq(2, 2)).graphic
        assert gale_ryser(seq(0), seq(0, 0)).graphic


class TestZZCheck:
    def test_checks_only_boundaries(self):
        assert zz_check(seq(3, 2, 2, 1), seq(3, 3, 1, 1)).graphic

    def test_fails_at_first_boundary(self):
        verdict = zz_check(seq(4, 4, 1, 1), seq(4, 4, 1, 1))
        assert not verdict.graphic
        assert verdict.failing_k == 2

    def test_single_block(self):
        assert zz_check(seq(5, 5, 5), seq(3, 3, 3, 3, 3)).graphic

    def test_strips_zeros(self):
        with_zeros = (seq(3, 2, 2, 1, 0, 0), seq(3, 3, 1, 1, 0))
        assert zz_check(*with_zeros).graphic
        assert zz_check(seq(4, 4, 1, 1, 0), seq(4, 4, 1, 1, 0)).failing_k == 2

    def test_all_zero_pair(self):
        assert zz_check(seq(0, 0), seq(0, 0, 0)).graphic

    def test_failing_k_genuine(self):
        for x, y in random_pair_corpus(400, seed=13, max_len=20, max_val=20):
            verdict = zz_check(x, y)
            if verdict.graphic or not verdict.sums_equal:
                continue
            k = verdict.failing_k
            assert sum(list(x)[:k]) > min_cap_sum(y, k)


class TestLargePairs:
    def test_gale_ryser_memory_is_linear(self):
        e = DegreeSequence(np.arange(8000, 0, -1, dtype=np.int64))
        tracemalloc.start()
        try:
            assert gale_ryser(e, e).sums_equal
            assert tracemalloc.get_traced_memory()[1] <= 1 << 20
        finally:
            tracemalloc.stop()

    def test_verdicts_at_max_input(self):
        ones = DegreeSequence(np.ones(MAX_INPUT, dtype=np.int64))
        assert gale_ryser(ones, ones).graphic and zz_check(ones, ones).graphic
        # Degree 3 against two right vertices fails at k = 1; strong index 2.
        left, right = np.zeros((2, MAX_INPUT), dtype=np.int64)
        left[:2], left[2 : MAX_INPUT - 4], right[:2] = 3, 1, MAX_INPUT // 2
        e, f = DegreeSequence(left), DegreeSequence(right)
        assert gale_ryser(e, f) == PairVerdict(False, 1, True)
        assert zz_check(e, f) == PairVerdict(False, 2, True)


class TestRealize:
    def test_two_by_two(self):
        real = realize(seq(2, 1), seq(2, 1))
        assert real.edges.tolist() == [[1, 1], [1, 2], [2, 1]]

    def test_star(self):
        assert realize(seq(3), seq(1, 1, 1)).edges.tolist() == [[1, 1], [1, 2], [1, 3]]

    def test_complete(self):
        assert realize(seq(2, 2), seq(2, 2)).edges.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_rejects_non_graphic(self):
        with pytest.raises(NotGraphic):
            realize(seq(4, 4, 1, 1), seq(4, 4, 1, 1))
        with pytest.raises(NotGraphic):
            realize(seq(2, 1), seq(2, 2))

    def test_handles_zero_degrees(self):
        real = realize(seq(1, 0), seq(1, 0))
        assert real.edges.tolist() == [[1, 1]]
        assert real.degree_audit()

    def test_edges_are_a_sorted_read_only_array(self):
        real = realize(seq(3, 2, 2, 1), seq(3, 3, 1, 1))
        assert real.edges.dtype == np.int64 and real.edges.shape == (8, 2)
        assert not real.edges.flags.writeable
        assert real.edges.tolist() == sorted(real.edges.tolist())
        assert realize(seq(0, 0), seq(0)).edges.shape == (0, 2)
        assert realize(seq(0, 0), seq(0)).edge_runs.shape == (0, 3)

    def test_edges_are_expanded_on_first_use(self):
        real = realize(seq(3, 2, 2, 1), seq(3, 3, 1, 1))
        assert "edges" not in vars(real) and real.degree_audit()
        assert expanded_runs(real) == [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [3, 1], [3, 2], [4, 4]]
        assert vars(real)["edges"] is real.edges

    def test_matches_lexsort_reference(self):
        # The residual levels keep the original greedy's tie-break: same
        # edges, same order, on tie-heavy pairs with zero degrees, full rows
        # and single vertices, and on staircases, right sides of distinct
        # values with gaps, regular, zero-heavy and one-block right sides.
        from helpers import (
            reference_realize_edges,
            structured_graphic_pairs,
            tie_heavy_graphic_pairs,
        )

        shapes = set()
        for e, f in tie_heavy_graphic_pairs(2_500, seed=11):
            assert expanded_runs(realize(e, f)) == reference_realize_edges(e, f), (e, f)
            shapes.add((len(e) == 1, len(f) == 1, e.smallest == 0, e.largest == len(f)))
        assert len(shapes) >= 12
        right_shapes = set()
        for e, f in structured_graphic_pairs(1_500, seed=12):
            assert expanded_runs(realize(e, f)) == reference_realize_edges(e, f), (e, f)
            runs = len(to_blocks(f).blocks)
            right_shapes.add((runs == 1, runs == len(f), f.smallest == 0))
        assert len(right_shapes) == 8

    def test_batches_match_lexsort_reference(self):
        # Runs of equal left degree go in batches; a batch ends where a level
        # above comes down to one above the run's level t, where level t
        # runs short, and where t comes down to one above the level below.
        # Seen at the start of each run: the gaps to the levels above and
        # below t, and the size of level t against what the whole run takes.
        from helpers import batch_boundary_pairs, reference_realize_edges

        above, below, level, tail = set(), set(), set(), set()
        for e, f in batch_boundary_pairs(5_000, seed=13):
            edges = expanded_runs(realize(e, f))
            assert edges == reference_realize_edges(e, f), (e, f)
            residual = f.values.tolist()
            for deg, rows in to_blocks(e).blocks:
                if deg == 0:
                    break
                t = sorted(residual, reverse=True)[deg - 1]
                higher = [r for r in residual if r > t]
                lower = [r for r in residual if r < t]
                need, size = deg - len(higher), len(residual) - len(higher) - len(lower)
                above.add(min(min(higher) - t, 3) if higher else None)
                below.add(min(t - max(lower), 3) if lower else None)
                level.add(((size > need * rows) - (size < need * rows), size == need))
                for _, v in edges[:deg * rows]:
                    residual[v - 1] -= 1
                del edges[:deg * rows]
            tail.add(f.smallest == 0)
        assert above >= {1, 2, 3} and below >= {1, 2, 3}
        # A level exactly as large as one row's need is never more than the
        # whole run takes.
        assert level == {(-1, False), (0, False), (1, False), (-1, True), (0, True)}
        assert tail == {False, True}

    def test_long_runs_against_two_right_vertices(self):
        # 5·10^5 rows of degree 2 and 5·10^5 of degree 1 against right
        # degrees (10^6, 5·10^5): each run is one batch plus one single row.
        # Rows 1..5·10^5 take right vertices 1 and 2; later rows take 1.
        half = 500_000
        e = DegreeSequence(np.repeat(np.array([2, 1]), half))
        real = realize(e, DegreeSequence(np.array([2 * half, half])))
        edges = real.edges
        assert edges.shape == (3 * half, 2) and real.degree_audit()
        assert np.array_equal(edges[:2 * half, 0], np.repeat(np.arange(1, half + 1), 2))
        assert np.array_equal(edges[:2 * half, 1], np.tile([1, 2], half))
        assert np.array_equal(edges[2 * half:, 0], np.arange(half + 1, 2 * half + 1))
        assert (edges[2 * half:, 1] == 1).all()

    def test_large_sparse_pair(self):
        # n = 10^5 with about 10^6 edges: one scan of the right side per
        # left vertex took 28 s here.
        rng = np.random.default_rng(3)
        n = 100_000
        cells = np.unique(rng.integers(0, n * n, size=1_000_000))
        e, f = (DegreeSequence(np.sort(np.bincount(ends, minlength=n))[::-1].copy())
                for ends in (cells // n, cells % n))
        real = realize(e, f)
        assert len(real.edges) == cells.size and real.degree_audit()

    def test_guards_catch_a_pair_that_is_not_graphic(self, monkeypatch):
        # Past a dominance test that lets everything through, the greedy
        # itself notices that it cannot finish.
        monkeypatch.setattr(galeryser, "gale_ryser", lambda e, f: PairVerdict(True, None, True))
        with pytest.raises(RuntimeError, match="ran out of demand"):
            realize(seq(2), seq(1))
        with pytest.raises(RuntimeError, match="left unmet demand"):
            realize(seq(1), seq(1, 1))

    def test_audit_catches_a_moved_edge(self):
        real = realize(seq(2, 1), seq(2, 1))
        assert real.edge_runs[-1].tolist() == [2, 1, 2]
        moved = real.edge_runs.copy()
        moved[-1, 1:] += 1
        assert not BipartiteRealization(real.left_degrees, real.right_degrees, moved).degree_audit()

    def test_audit_rejects_repeats_bad_indices_and_disorder(self):
        # Each edge (u, v) as the unit run (u, v, v + 1), unless a case needs
        # longer runs.
        def audit(e, f, rows):
            runs = np.array(rows, dtype=np.int64).reshape(-1, 3)
            return BipartiteRealization(seq(*e), seq(*f), runs).degree_audit()

        assert audit((2, 1), (2, 1), [[1, 1, 2], [1, 2, 3], [2, 1, 2]])
        assert audit((2, 1), (2, 1), [[1, 1, 3], [2, 1, 2]])
        # A repeated edge whose degree counts still match.
        assert not audit((2,), (2,), [[1, 1, 2], [1, 1, 2]])
        assert not audit((2, 2), (2, 2), [[1, 1, 2], [1, 1, 2], [2, 2, 3], [2, 2, 3]])
        # Zero, negative and too-large indices.
        assert not audit((1,), (1,), [[0, 1, 2]])
        assert not audit((1,), (1,), [[1, 0, 1]])
        assert not audit((1,), (1,), [[1, -1, 0]])
        assert not audit((1, 0), (1,), [[1, 2, 3]])
        assert not audit((1,), (1,), [[2, 1, 2]])
        # The right set of edges, out of (left, right) order.
        assert not audit((2, 1), (2, 1), [[1, 2, 3], [1, 1, 2], [2, 1, 2]])
        assert not audit((2, 1), (2, 1), [[2, 1, 2], [1, 1, 2], [1, 2, 3]])
        # A run whose end is not past its start: an empty one, with degrees
        # that still match, and a reversed one.
        assert not audit((2,), (1, 1), [[1, 1, 3], [1, 3, 3]])
        assert not audit((1,), (1, 0), [[1, 1, 2], [1, 3, 2]])
        # Overlapping runs in one row, with degrees that still match.
        assert not audit((3,), (2, 1), [[1, 1, 3], [1, 1, 2]])
        assert not audit((4,), (2, 1, 1), [[1, 1, 2], [1, 1, 4]])
        # Wrong shape or dtype.
        assert not BipartiteRealization(seq(1), seq(1), np.array([1, 1, 2])).degree_audit()
        assert not BipartiteRealization(seq(1), seq(1), np.array([[1, 1]])).degree_audit()
        assert not BipartiteRealization(seq(1), seq(1), np.array([[1.0, 1.0, 2.0]])).degree_audit()
