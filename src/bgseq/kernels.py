"""Array kernels for the exhaustive oracle and the single-pair tests.

Matrix conventions: one sequence per row, entries nonnegative and decreasing
left to right, dtype int64.  All k indices reported to callers are 1-based.
For a rows x width matrix, ``prefix_sum_rows`` and ``boundary_mask_rows``
take O(rows * width) time and ``cap_sum_rows`` O(rows * (width + kmax)) time
and memory.  ``scan_pairs`` takes O(nl * nr * width) time in the worst case;
it compares blocks of left rows with every right row at once, the blocks
sized so that rows * nr * width <= ``SCAN_BLOCK_CELLS`` (one row at least).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "USING_NUMBA",
    "prefix_sum_rows",
    "cap_sum_rows",
    "boundary_mask_rows",
    "scan_pairs",
]

# numpy is the only backend; the flag stays for callers that report it.
USING_NUMBA = False

SCAN_BLOCK_CELLS = 1 << 21


def prefix_sum_rows(seqs: np.ndarray) -> np.ndarray:
    """Row-wise prefix sums."""
    return np.cumsum(seqs, axis=1, dtype=np.int64)


def cap_sum_rows(seqs: np.ndarray, kmax: int) -> np.ndarray:
    """For each row y, T[k-1] = sum_i min(k, y_i) for k = 1..kmax.

    T is the running sum over t = 1..k of #{i : y_i >= t}, a reversed running
    sum of the histogram of min(y_i, kmax); one bincount with a per-row
    offset builds every row's histogram."""
    rows = seqs.shape[0]
    clipped = np.minimum(seqs, kmax)
    clipped += (np.arange(rows, dtype=np.int64) * (kmax + 1))[:, None]
    hist = np.bincount(clipped.ravel(), minlength=rows * (kmax + 1)).reshape(rows, kmax + 1)
    at_least = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]
    return np.cumsum(at_least, axis=1, dtype=np.int64)


def boundary_mask_rows(seqs: np.ndarray) -> np.ndarray:
    """Strong-index mask per row, as bool: position k (1-based) is set when
    a run of equal positive values ends there.  Trailing zero entries carry
    no indices; an all-zero row has an empty mask."""
    # With a zero appended to each row, a run of positive values ends exactly
    # where an entry exceeds its successor; zero entries never do.
    nxt = np.zeros_like(seqs)
    nxt[:, :-1] = seqs[:, 1:]
    return seqs > nxt


def scan_pairs(prefix_l: np.ndarray, mask_l: np.ndarray, caps_r: np.ndarray,
               spot_stride: int) -> tuple[int, int, int, int]:
    """Scan all pairs in row-major order using the strong-index test, with
    ``mask_l`` the left rows' ``boundary_mask_rows``.

    Returns (i, j, k, disagreements) for the first failing pair, with k the
    smallest violated strong index of left row i against right row j, or
    (-1, -1, -1, disagreements) when every pair passes.  Every
    ``spot_stride``-th pair, from pair 0 up to the first failure, is
    re-tested with the full dominance check (all k, not just strong indices);
    ``disagreements`` counts verdict mismatches and must come back 0.  Each
    block holds two block-sized boolean arrays, the full compare and its
    strong-index part, and its spot checks are strided rows of the first.
    """
    nl, width = prefix_l.shape
    nr = caps_r.shape[0]
    block = max(1, SCAN_BLOCK_CELLS // max(1, nr * width))
    disagreements = 0
    for lo in range(0, nl, block):
        below = caps_r[None, :, :] < prefix_l[lo : lo + block, None, :]
        fail = below & mask_l[lo : lo + block, None, :]
        has = fail.any(axis=2).ravel()
        hit = int(np.argmax(has)) if has.any() else -1
        if spot_stride > 0:
            stop = has.size if hit < 0 else hit + 1
            spots = slice((-(lo * nr)) % spot_stride, stop, spot_stride)
            full = below.reshape(-1, width)[spots].any(axis=1)
            disagreements += int(np.count_nonzero(full != has[spots]))
        if hit >= 0:
            bi, j = divmod(hit, nr)
            k = int(np.argmax(fail[bi, j])) + 1
            return lo + bi, j, k, disagreements
    return -1, -1, -1, disagreements
