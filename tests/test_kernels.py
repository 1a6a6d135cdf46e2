"""Array kernels: cap tables, strong-index masks and the pair compare, each
against a direct definition."""

import numpy as np
import pytest

import bgseq.kernels as kernels
from bgseq import ClassParams, DegreeSequence, enum_sequences, gale_ryser, zz_check


def random_decreasing_matrix(rng, rows, width, max_val, allow_zero=True):
    low = 0 if allow_zero else 1
    mat = rng.integers(low, max_val + 1, size=(rows, width))
    return np.sort(mat, axis=1)[:, ::-1].astype(np.int64).copy()


class TestCapSums:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        cases = [(np.zeros((0, 5), dtype=np.int64), 4), (np.zeros((3, 4), dtype=np.int64), 6)]
        for _ in range(60):
            rows, width = int(rng.integers(0, 12)), int(rng.integers(1, 10))
            seqs = random_decreasing_matrix(rng, rows, width, int(rng.integers(0, 13)))
            seqs[rng.random(rows) < 0.2] = 0
            cases += [(seqs, k) for k in (0, int(rng.integers(1, 12)), int(seqs.max(initial=0)) + 3)]
        for seqs, kmax in cases:
            caps = kernels.cap_sum_rows(seqs, kmax)
            assert caps.shape == (seqs.shape[0], kmax)
            for r in range(seqs.shape[0]):
                for k in range(1, kmax + 1):
                    assert caps[r, k - 1] == int(np.minimum(seqs[r], k).sum())


class TestBoundaryMask:
    def test_matches_block_form(self):
        from bgseq import to_blocks

        rng = np.random.default_rng(2)
        seqs = random_decreasing_matrix(rng, 60, 8, 6, allow_zero=False)
        mask = kernels.boundary_mask_rows(seqs)
        for r in range(seqs.shape[0]):
            want = set(to_blocks(DegreeSequence(seqs[r].copy())).boundaries())
            got = {t + 1 for t in np.nonzero(mask[r])[0]}
            assert got == want

    def test_zero_rows_and_tails(self):
        seqs = np.array([[0, 0, 0], [2, 1, 0], [3, 3, 3]], dtype=np.int64)
        mask = kernels.boundary_mask_rows(seqs)
        assert mask[0].tolist() == [0, 0, 0]
        assert mask[1].tolist() == [1, 1, 0]
        assert mask[2].tolist() == [0, 0, 1]


def side_matrix(A, B, L, S):
    """Every sequence of one side, one per row, in enumeration order."""
    rows = [seq.values for seq in enum_sequences(A, B, L, S)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), L)


def first_failing_cell(prefix, mask, caps):
    """Scalar reference for scan_pairs: the first (i, j, k) in row-major
    order with prefix[i, k-1] > caps[j, k-1], at masked k when a mask is given."""
    for i in range(prefix.shape[0]):
        for j in range(caps.shape[0]):
            for k in range(prefix.shape[1]):
                if (mask is None or mask[i, k]) and prefix[i, k] > caps[j, k]:
                    return i, j, k + 1
    return -1, -1, -1


SCAN_CASES = [
    ClassParams(4, 1, 4, 1, 4, 4, 10),
    ClassParams(5, 1, 5, 1, 6, 6, 16),
    ClassParams(5, 2, 4, 1, 6, 6, 14),
    ClassParams(3, 1, 3, 1, 5, 5, 9),
    ClassParams(6, 1, 6, 1, 6, 6, 21),
    ClassParams(6, 0, 5, 0, 6, 6, 12),
]


class TestScanPairs:
    @pytest.mark.parametrize("strong", [True, False], ids=["zz_check", "gale_ryser"])
    @pytest.mark.parametrize("params", SCAN_CASES, ids=str)
    def test_matches_scalar_reference(self, params, strong):
        lefts = side_matrix(params.a, params.b, params.m, params.S)
        rights = side_matrix(params.c, params.d, params.n, params.S)
        mask = kernels.boundary_mask_rows(lefts) if strong else None
        got = kernels.scan_pairs(kernels.prefix_sum_rows(lefts), mask,
                                 kernels.cap_sum_rows(rights, params.m))

        scalar = zz_check if strong else gale_ryser
        expected = (-1, -1, -1)
        for li in range(lefts.shape[0]):
            left = DegreeSequence(lefts[li].copy())
            hit = None
            for rj in range(rights.shape[0]):
                verdict = scalar(left, DegreeSequence(rights[rj].copy()))
                if not verdict.graphic:
                    hit = (li, rj, verdict.failing_k)
                    break
            if hit:
                expected = hit
                break
        assert got == expected

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    def test_matches_double_loop_on_random_shapes(self, masked):
        # 0 to 6 rows on either side; left and right rows of 1 to 6 entries.
        rng = np.random.default_rng(20261022)
        outcomes = set()
        for _ in range(400):
            nl, nr, width, right_width = (int(v) for v in rng.integers((0, 0, 1, 1), 7))
            lefts = random_decreasing_matrix(rng, nl, width, 6)
            prefix = kernels.prefix_sum_rows(lefts)
            mask = kernels.boundary_mask_rows(lefts) if masked else None
            caps = kernels.cap_sum_rows(random_decreasing_matrix(rng, nr, right_width, 6), width)
            got = kernels.scan_pairs(prefix, mask, caps)
            assert got == first_failing_cell(prefix, mask, caps), (lefts, caps)
            assert all(type(v) is int for v in got)
            outcomes.add((min(nl, nr) == 0, got[0] >= 0))
        assert outcomes == {(True, False), (False, False), (False, True)}
