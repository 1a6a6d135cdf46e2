"""Array kernels for the exhaustive oracle and the single-pair tests.

Matrix conventions: one sequence per row, entries nonnegative and decreasing
left to right, dtype int64.  All k indices reported to callers are 1-based.
For a rows x width matrix, ``prefix_sum_rows`` and ``boundary_mask_rows``
take O(rows * width) time and ``cap_sum_rows`` O(rows * (width + kmax)) time
and memory.  ``scan_pairs`` is one compare of every left row with every
right row, O(nl * nr * width) time and memory.  The oracle calls these on
one block of a side at a time, and ``scan_pairs`` on one row against a
block or on its two spot samples, so a class of sides L and R with lengths
m and n costs O(|L| * m + |R| * (m + n)) time, in memory set by the block
and sample sizes in ``enumeration``, not by the class.
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
    return np.add.accumulate(seqs, axis=1, dtype=np.int64)


def cap_sum_rows(seqs: np.ndarray, kmax: int) -> np.ndarray:
    """For each row y, T[k-1] = sum_i min(k, y_i) for k = 1..kmax.

    One bincount, with row r's entries offset by r * (kmax + 1), builds every
    row's histogram of min(y_i, kmax).  Its reversed running sum counts
    #{i : y_i >= t} for t = 1..kmax, and T is the running sum of those counts."""
    rows, width = seqs.shape[0], kmax + 1
    clipped = np.minimum(seqs, kmax)
    clipped += np.arange(0, rows * width, width)[:, None]
    hist = np.bincount(clipped.ravel(), minlength=rows * width).reshape(rows, width)
    at_least = np.add.accumulate(hist[:, :0:-1], axis=1)[:, ::-1]
    return np.add.accumulate(at_least, axis=1, dtype=np.int64)


def boundary_mask_rows(seqs: np.ndarray) -> np.ndarray:
    """Strong-index mask per row, as bool: position k (1-based) is set when
    a run of equal positive values ends there.  Trailing zero entries carry
    no indices; an all-zero row has an empty mask."""
    # A run of positive values ends where an entry exceeds its successor, or
    # at the last entry if that is positive; zero entries never end one.
    mask = seqs > 0
    np.greater(seqs[:, :-1], seqs[:, 1:], out=mask[:, :-1])
    return mask


def scan_pairs(prefix_l: np.ndarray, mask_l: np.ndarray | None,
               caps_r: np.ndarray) -> tuple[int, int, int]:
    """First failing pair in row-major order, left rows by their prefix sums
    against right rows by their cap sums: (i, j, k) with k the smallest index
    at which prefix_l[i] exceeds caps_r[j], or (-1, -1, -1) when every pair
    passes, as when either side has no rows.  With ``mask_l`` (the left rows'
    ``boundary_mask_rows``) only strong indices are tested; with None, every
    k (the full dominance test)."""
    fail = caps_r[None, :, :] < prefix_l[:, None, :]
    if mask_l is not None:
        fail &= mask_l[:, None, :]
    flat = fail.ravel()
    if not flat.size or not flat[at := int(flat.argmax())]:
        return -1, -1, -1
    i, jk = divmod(at, caps_r.size)
    j, k = divmod(jk, caps_r.shape[1])
    return i, j, k + 1
