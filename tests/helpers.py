"""Shared corpora and grid iterators for the test suite."""

import json
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from bgseq import (
    MAX_INPUT,
    BlockForm,
    ClassParams,
    DegreeSequence,
    EmptyInput,
    LimitExceeded,
    NegativeEntry,
    NotDecreasing,
    s_range,
)


# Python source that defines peak_kib(): the peak resident set (VmHWM) of the
# process that runs it, in KiB.  Scripts run in a fresh interpreter read it
# before and after the call they measure.
PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def grid_params(limit: int = 6, min_floor: int = 1) -> Iterator[ClassParams]:
    """Every valid ClassParams with maxima and lengths up to `limit` and
    minima at least `min_floor`, over every compatible sum."""
    for a in range(max(1, min_floor), limit + 1):
        for b in range(min_floor, a + 1):
            for n in range(a, limit + 1):
                for c in range(max(1, min_floor), limit + 1):
                    for d in range(min_floor, c + 1):
                        for m in range(c, limit + 1):
                            for S in s_range(a, b, c, d, m, n):
                                yield ClassParams(a, b, c, d, m, n, S)


def decode_sweep_csv(header: str, line: str) -> dict:
    """One sweep CSV row as the object its JSON line carries: an empty cell
    is an omitted key, the verdict is text and every other cell is JSON."""
    cells = zip(header.split(","), line.split(","), strict=True)
    return {name: cell if name == "verdict" else json.loads(cell) for name, cell in cells if cell}


def min_cap_sum(f: DegreeSequence, k: int) -> int:
    """Sum of min(k, f_i) over all entries, i.e. the k-th partial sum of the
    conjugate partition of f: the scalar reference for the cap tables."""
    return int(np.minimum(f.values, k).sum())


def all_decreasing(max_len: int, max_val: int, min_val: int = 1) -> Iterator[tuple[int, ...]]:
    """Every non-increasing tuple with entries in [min_val, max_val] and
    length 1..max_len."""
    for length in range(1, max_len + 1):
        yield from combinations_with_replacement(range(max_val, min_val - 1, -1), length)


def _retarget_sum(y: list[int], target: int, max_val: int, rng) -> None:
    # Nudge entries (staying in [1, max_val]) in place until the sum hits
    # `target`; leaves y unchanged when the target is unreachable.
    n = len(y)
    if not n <= target <= n * max_val:
        return
    diff = target - sum(y)
    while diff != 0:
        idx = int(rng.integers(0, n))
        if diff > 0 and y[idx] < max_val:
            step = min(diff, max_val - y[idx])
            y[idx] += step
            diff -= step
        elif diff < 0 and y[idx] > 1:
            step = min(-diff, y[idx] - 1)
            y[idx] -= step
            diff += step


def random_pair_corpus(count: int, seed: int, max_len: int = 50, max_val: int = 50):
    """Seeded random decreasing positive pairs; every other pair is adjusted
    to share a sum so the dominance logic actually gets exercised."""
    rng = np.random.default_rng(seed)
    pairs = []
    for trial in range(count):
        m = int(rng.integers(1, max_len + 1))
        n = int(rng.integers(1, max_len + 1))
        x = sorted(rng.integers(1, max_val + 1, size=m).tolist(), reverse=True)
        y = rng.integers(1, max_val + 1, size=n).tolist()
        if trial % 2 == 0:
            _retarget_sum(y, sum(x), max_val, rng)
        y.sort(reverse=True)
        # Decreasing entries in [1, max_val]: valid as they are, so the
        # strict validation is skipped.
        pairs.append(tuple(DegreeSequence._from_trusted(np.array(side, dtype=np.int64))
                           for side in (x, y)))
    return pairs


def random_graphic_pairs(count: int, seed: int, max_side: int = 30):
    """Degree-sequence pairs of seeded random bipartite graphs; graphic by
    construction, zeros included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, max_side + 1))
        n = int(rng.integers(1, max_side + 1))
        adj = rng.random((m, n)) < rng.uniform(0.05, 0.95)
        e = np.sort(adj.sum(axis=1).astype(np.int64))[::-1]
        f = np.sort(adj.sum(axis=0).astype(np.int64))[::-1]
        yield DegreeSequence(e.copy()), DegreeSequence(f.copy())


def tie_heavy_graphic_pairs(count: int, seed: int, max_side: int = 12):
    """Degree-sequence pairs of seeded random bipartite graphs drawn to tie:
    small sides, densities from 0 to 1 (so zero degrees and full rows), and
    repeated rows.  Graphic by construction; sides of length 1 included."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m = int(rng.integers(1, max_side + 1))
        n = int(rng.integers(1, max_side + 1))
        adj = rng.random((m, n)) < rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        if trial % 3 == 0:
            adj = adj[rng.integers(0, m, size=m)]
        if trial % 5 == 0:
            adj[0] = True
        e = np.sort(adj.sum(axis=1).astype(np.int64))[::-1]
        f = np.sort(adj.sum(axis=0).astype(np.int64))[::-1]
        yield DegreeSequence(e.copy()), DegreeSequence(f.copy())


def structured_graphic_pairs(count: int, seed: int, max_side: int = 60):
    """Degree-sequence pairs of seeded bipartite graphs of the shapes that
    stress the greedy's levels: staircases (Ferrers diagrams), right sides of
    distinct values with gaps, regular sides (circulants), zero-heavy right
    sides and right sides of one long block.  Graphic by construction; both
    sides at most ``max_side`` long."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m = int(rng.integers(1, max_side + 1))
        n = int(rng.integers(1, max_side + 1))
        kind = trial % 5
        if kind == 0:
            adj = np.tri(m, n, int(rng.integers(-m, n)), dtype=bool)
        elif kind == 3:
            d = int(rng.integers(0, n + 1))
            adj = np.zeros((m, n), dtype=bool)
            for i in range(m):
                adj[i, (i * d + np.arange(d)) % n] = True
        else:
            # Fill column j with f_j ones on random rows.
            if kind == 1:
                step = int(rng.integers(1, 4))
                f = np.arange(m, -1, -step)[rng.permutation(m // step + 1)[:n]]
            elif kind == 2:
                f = rng.integers(1, m + 1, size=n) * (rng.random(n) < 0.2)
            else:
                f = np.full(n, int(rng.integers(0, m + 1)))
            adj = rng.random((m, f.size)).argsort(axis=0) < f
        e = np.sort(adj.sum(axis=1).astype(np.int64))[::-1]
        f = np.sort(adj.sum(axis=0).astype(np.int64))[::-1]
        yield DegreeSequence(e.copy()), DegreeSequence(f.copy())


def batch_boundary_pairs(count: int, seed: int, max_side: int = 10):
    """Degree-sequence pairs of seeded bipartite graphs made of one to three
    adjacency rows, each repeated up to 12 times: long runs of equal left
    degree against right sides whose levels sit 1, 2 or more apart, hold
    fewer, as many or more vertices than a run takes, and end in zeros where
    no row reaches a column.  Graphic by construction."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_side + 1))
        rows = rng.random((int(rng.integers(1, 4)), n)) < rng.uniform(0.1, 0.9)
        adj = np.repeat(rows, rng.integers(1, 13, size=len(rows)), axis=0)
        e = np.sort(adj.sum(axis=1).astype(np.int64))[::-1]
        f = np.sort(adj.sum(axis=0).astype(np.int64))[::-1]
        yield DegreeSequence(e.copy()), DegreeSequence(f.copy())


def reference_realize_edges(e: DegreeSequence, f: DegreeSequence) -> list[list[int]]:
    """Ryser's greedy as first written, kept to pin the tie-break: one lexsort
    per left vertex (largest residual first, then smallest index), edges
    gathered in a set and listed in (left, right) order."""
    residual = f.values.copy()
    indices = np.arange(residual.size)
    edges = set()
    for i, deg in enumerate(e.values.tolist()):
        if deg == 0:
            continue
        chosen = np.lexsort((indices, -residual))[:deg]
        residual[chosen] -= 1
        edges.update((i + 1, j + 1) for j in chosen.tolist())
    return [list(edge) for edge in sorted(edges)]


def run_length_graphic(x: BlockForm, y: BlockForm) -> bool:
    """The strong-index test of Zverovich & Zverovich (1992) on run-length
    forms: equal sums, and prefix_K(x) <= sum_i min(K, y_i) only at the ends
    K of the positive runs of x.  The caps come from the runs of y, smallest
    first, as K * (entries of y at least K) + (sum of the entries below K):
    O(runs of x + runs of y), no sequence expanded."""
    if sum(v * c for v, c in x.blocks) != sum(w * c for w, c in y.blocks):
        return False
    ascending = list(reversed(y.blocks))
    j, low_sum, high_count = 0, 0, sum(c for _, c in y.blocks)
    k = prefix = 0
    for v, c in x.blocks:
        if v == 0:
            break
        k, prefix = k + c, prefix + v * c
        while j < len(ascending) and ascending[j][0] < k:
            low_sum += ascending[j][0] * ascending[j][1]
            high_count -= ascending[j][1]
            j += 1
        if prefix > k * high_count + low_sum:
            return False
    return True


def random_general_classes(count: int, seed: int) -> Iterator[ClassParams]:
    """Seeded nonempty classes with a > b and c > d: lengths log-uniform from
    2 to MAX_INPUT, maxima log-uniform up to the other side's length, each
    minimum zero half the time (else uniform below the maximum, as far as
    MAX_INPUT lets a sum reach), and S uniform over the sums both sides
    allow, at most MAX_INPUT."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        m, n = (int(2 ** rng.uniform(1, 20)) for _ in range(2))
        a, c = int(2 ** rng.uniform(0, np.log2(n))), int(2 ** rng.uniform(0, np.log2(m)))
        b, d = (int(rng.integers(0, min(high, (MAX_INPUT - high) // (length - 1) + 1)))
                if rng.random() < 0.5 else 0 for high, length in ((a, m), (c, n)))
        lo = max(a + b * (m - 1), c + d * (n - 1))
        hi = min(a * (m - 1) + b, c * (n - 1) + d, MAX_INPUT)
        if lo <= hi:
            made += 1
            yield ClassParams(a, b, c, d, m, n, int(rng.integers(lo, hi + 1)))


def random_decreasing(count: int, seed: int, max_len: int = 40, max_val: int = 6):
    """Seeded decreasing sequences with many runs: lengths from 1, values from
    0, every tenth one constant."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        length = int(rng.integers(1, max_len + 1))
        if trial % 10 == 0:
            values = np.full(length, int(rng.integers(0, max_val + 1)), dtype=np.int64)
        else:
            values = np.sort(rng.integers(0, max_val + 1, size=length))[::-1]
        yield DegreeSequence(values.copy())


def reference_sequence_input(text: str, strict: bool) -> tuple[list[int], bool]:
    """Sequence input as first written, one Python step per token and entry:
    parse_sequence_arg's loop, validate_sequence's checks, then the bound
    checks of DegreeSequence.  Two rules are newer than that loop: an entry
    beyond int64 is refused once every item has parsed, and unsorted input
    names its first rise rather than listing every entry.  Returns the
    decreasing entries and whether they had to be sorted, or raises what the
    CLI path raises."""
    out: list[int] = []
    for index, token in enumerate(text.split(","), 1):
        token = token.strip()
        try:
            if "^" not in token:
                out.append(int(token))
                continue
            value_s, count_s = token.split("^", 1)
            value, count = int(value_s), int(count_s)
            if count < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse sequence item {token!r} (item {index})") from None
        if len(out) + count > MAX_INPUT:
            raise LimitExceeded(f"sequence length {len(out) + count} exceeds {MAX_INPUT}")
        out.extend([value] * count)
    if any(not -(1 << 63) <= v < 1 << 63 for v in out):
        raise LimitExceeded(f"entries must not exceed the supported bound {MAX_INPUT}")
    if len(out) > MAX_INPUT:
        raise LimitExceeded(f"sequence length {len(out)} exceeds {MAX_INPUT}")
    if not out:
        raise EmptyInput("expected at least one entry")
    for v in out:
        if v < 0:
            raise NegativeEntry(f"negative entry {v} not allowed")
    rises = [i for i in range(1, len(out)) if out[i] > out[i - 1]]
    if strict and rises:
        i = rises[0]
        raise NotDecreasing(f"entries are not in decreasing order: entry {i + 1} is {out[i]}, "
                            f"after {out[i - 1]}")
    ordered = sorted(out, reverse=True)
    if ordered[0] > MAX_INPUT:
        raise LimitExceeded(f"entry {ordered[0]} exceeds {MAX_INPUT}")
    return ordered, bool(rises)
