"""Array kernels for the exhaustive oracle and the single-pair tests.

Matrix conventions: one sequence per row, entries nonnegative and decreasing
left to right, dtype int64.  All k indices reported to callers are 1-based.
For a rows x width matrix, ``prefix_sum_rows`` and ``boundary_mask_rows``
take O(rows * width) time and ``cap_sum_rows`` O(rows * (width + kmax)) time
and memory.  ``scan_pairs`` is one compare of every left row with every
right row, O(nl * nr * width) time and memory.  The oracle calls these on
one block of a side at a time, and ``scan_pairs`` on a block against one
row of caps, on one row against a block, or on its two spot samples, so a
class of sides L and R with lengths m and n costs O(|L| * m + |R| * (m + n))
time, in memory set by the block and sample sizes in ``enumeration``, not by
the class.
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


def scan_pairs(prefix_l: np.ndarray, mask_l: np.ndarray | None,
               caps_r: np.ndarray) -> tuple[int, int, int]:
    """First failing pair in row-major order, left rows by their prefix sums
    against right rows by their cap sums: (i, j, k) with k the smallest index
    at which prefix_l[i] exceeds caps_r[j], or (-1, -1, -1) when every pair
    passes.  With ``mask_l`` (the left rows' ``boundary_mask_rows``) only
    strong indices are tested; with None, every k (the full dominance test).
    """
    fail = caps_r[None, :, :] < prefix_l[:, None, :]
    if mask_l is not None:
        fail &= mask_l[:, None, :]
    has = fail.any(axis=2)
    if not has.any():
        return -1, -1, -1
    i, j = divmod(int(has.argmax()), has.shape[1])
    return i, j, int(fail[i, j].argmax()) + 1
