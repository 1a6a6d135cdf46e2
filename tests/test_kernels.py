"""Array kernels: cap tables, strong-index masks and the blocked pair scan,
each against a direct definition."""

import numpy as np
import pytest

import bgseq.kernels as kernels
from bgseq import ClassParams, DegreeSequence, zz_check
from bgseq.enumeration import _side_matrix


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


def class_tables(params: ClassParams):
    lefts = _side_matrix(params.a, params.b, params.m, params.S)
    rights = _side_matrix(params.c, params.d, params.n, params.S)
    prefix = kernels.prefix_sum_rows(lefts)
    mask = kernels.boundary_mask_rows(lefts)
    caps = kernels.cap_sum_rows(rights, params.m)
    return lefts, rights, prefix, mask, caps


def dense_scan(prefix, mask, caps, stride):
    """The scan without blocks: first failing pair of the full comparison in
    row-major order, and spot disagreements among pairs 0, stride, ... up to it."""
    nr, width = caps.shape
    viol = (caps[None] < prefix[:, None]).reshape(-1, width)
    fail = viol & np.repeat(mask.astype(bool), nr, axis=0)
    has = fail.any(axis=1)
    hit = int(np.argmax(has)) if has.any() else -1
    spots = np.arange(0, has.size if hit < 0 else hit + 1, stride) if stride else np.arange(0)
    disagreements = int(np.count_nonzero(viol[spots].any(axis=1) != has[spots]))
    first = (*divmod(hit, nr), int(np.argmax(fail[hit])) + 1) if hit >= 0 else (-1, -1, -1)
    return (*first, disagreements)


def synthetic_tables(rng, nl, nr, width, first_bad):
    """Rows before ``first_bad`` pass (entries <= 3 against rights >= 3, for
    width >= 3); later rows have entries up to 4*width, and every other one,
    from ``first_bad`` on, loses its mask so the spot checks disagree."""
    lefts = random_decreasing_matrix(rng, nl, width, 3, allow_zero=False)
    lefts[first_bad:] = random_decreasing_matrix(rng, nl - first_bad, width, 4 * width)
    rights = random_decreasing_matrix(rng, nr, width, width)
    np.maximum(rights, 3, out=rights)
    mask = kernels.boundary_mask_rows(lefts)
    mask[first_bad::2] = 0
    return kernels.prefix_sum_rows(lefts), mask, kernels.cap_sum_rows(rights, width)


SCAN_CASES = [
    ClassParams(4, 1, 4, 1, 4, 4, 10),
    ClassParams(5, 1, 5, 1, 6, 6, 16),
    ClassParams(5, 2, 4, 1, 6, 6, 14),
    ClassParams(3, 1, 3, 1, 5, 5, 9),
    ClassParams(6, 1, 6, 1, 6, 6, 21),
]


class TestScanPairs:
    @pytest.mark.parametrize("stride", [0, 1, 3, 1000])
    @pytest.mark.parametrize("params", SCAN_CASES, ids=str)
    def test_matches_scalar_reference(self, params, stride):
        lefts, rights, prefix, mask, caps = class_tables(params)
        i, j, k, disagreements = kernels.scan_pairs(prefix, mask, caps, stride)
        assert disagreements == 0

        expected = (-1, -1, -1)
        for li in range(lefts.shape[0]):
            left = DegreeSequence(lefts[li].copy())
            hit = None
            for rj in range(rights.shape[0]):
                verdict = zz_check(left, DegreeSequence(rights[rj].copy()))
                if not verdict.graphic:
                    hit = (li, rj, verdict.failing_k)
                    break
            if hit:
                expected = hit
                break
        assert (i, j, k) == expected

    def test_matches_dense_reference_across_blocks(self):
        nr, width = 50, 10
        late = 2 * (kernels.SCAN_BLOCK_CELLS // (nr * width)) + 7  # in the third block
        prefix, mask, caps = synthetic_tables(np.random.default_rng(4), late + 3000, nr, width, late)
        got = {stride: kernels.scan_pairs(prefix, mask, caps, stride) for stride in (0, 1, 997)}
        assert got == {stride: dense_scan(prefix, mask, caps, stride) for stride in got}
        assert got[0][0] > late and got[1][3] > 0
        passing = prefix[:late], mask[:late], caps
        assert kernels.scan_pairs(*passing, 997) == dense_scan(*passing, 997) == (-1, -1, -1, 0)

    def test_matches_dense_reference_with_small_blocks(self, monkeypatch):
        rng = np.random.default_rng(6)
        for cells in (1, 7, 40, 300):
            monkeypatch.setattr(kernels, "SCAN_BLOCK_CELLS", cells)
            for _ in range(40):
                nl, nr, width = (int(v) for v in rng.integers(1, 30, size=3))
                prefix, mask, caps = synthetic_tables(
                    rng, nl, nr, width, first_bad=int(rng.integers(0, nl + 1))
                )
                for stride in (0, 1, 3, 11):
                    want = dense_scan(prefix, mask, caps, stride)
                    assert kernels.scan_pairs(prefix, mask, caps, stride) == want

    def test_spot_check_sees_no_disagreement(self):
        for params in SCAN_CASES:
            _, _, prefix, mask, caps = class_tables(params)
            assert kernels.scan_pairs(prefix, mask, caps, 1)[3] == 0

    def test_spot_check_catches_dropped_strong_index(self):
        _, _, prefix, mask, caps = class_tables(SCAN_CASES[0])
        i, _, k, _ = kernels.scan_pairs(prefix, mask, caps, 1)
        broken = mask.copy()
        broken[i, k - 1] = 0
        assert kernels.scan_pairs(prefix, broken, caps, 1)[3] > 0
