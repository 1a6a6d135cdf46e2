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

    def test_agrees_with_gale_ryser_exhaustive(self):
        seqs = [DegreeSequence(t) for t in all_decreasing(4, 4)]
        for x in seqs:
            for y in seqs:
                assert zz_check(x, y).graphic == gale_ryser(x, y).graphic, (x, y)

    def test_agrees_with_gale_ryser_random(self):
        for x, y in random_pair_corpus(3000, seed=7):
            assert zz_check(x, y).graphic == gale_ryser(x, y).graphic, (x, y)

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

    def test_audit_on_random_graphic_pairs(self):
        from helpers import random_graphic_pairs

        for e, f in random_graphic_pairs(500, seed=5):
            real = realize(e, f)
            assert real.degree_audit()
            assert len(real.edges) == e.total

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
            assert realize(e, f).edges.tolist() == reference_realize_edges(e, f), (e, f)
            shapes.add((len(e) == 1, len(f) == 1, e.smallest == 0, e.largest == len(f)))
        assert len(shapes) >= 12
        right_shapes = set()
        for e, f in structured_graphic_pairs(1_500, seed=12):
            assert realize(e, f).edges.tolist() == reference_realize_edges(e, f), (e, f)
            runs = len(to_blocks(f).blocks)
            right_shapes.add((runs == 1, runs == len(f), f.smallest == 0))
        assert len(right_shapes) == 8

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
        moved = real.edges.copy()
        moved[2, 1] = 2
        assert not BipartiteRealization(real.left_degrees, real.right_degrees, moved).degree_audit()

    def test_audit_rejects_repeats_bad_indices_and_disorder(self):
        def audit(e, f, rows):
            edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
            return BipartiteRealization(seq(*e), seq(*f), edges).degree_audit()

        assert audit((2, 1), (2, 1), [[1, 1], [1, 2], [2, 1]])
        # A repeated edge whose degree counts still match.
        assert not audit((2,), (2,), [[1, 1], [1, 1]])
        assert not audit((2, 2), (2, 2), [[1, 1], [1, 1], [2, 2], [2, 2]])
        # Zero, negative and too-large indices.
        assert not audit((1,), (1,), [[0, 1]])
        assert not audit((1,), (1,), [[1, 0]])
        assert not audit((1,), (1,), [[1, -1]])
        assert not audit((1, 0), (1,), [[1, 2]])
        # The right set of edges, out of (left, right) order.
        assert not audit((2, 1), (2, 1), [[1, 2], [1, 1], [2, 1]])
        # Wrong shape or dtype.
        assert not BipartiteRealization(seq(1), seq(1), np.array([1, 1])).degree_audit()
        assert not BipartiteRealization(seq(1), seq(1), np.array([[1.0, 1.0]])).degree_audit()
