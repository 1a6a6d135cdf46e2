"""Seeded inputs for the three benchmark workloads.

Each workload is a list of jobs: the argv handed to ``bgseq.cli.main`` plus
what the benchmark expects of the response.  Everything here runs in the
benchmark's parent process, before any timed pass, so neither its time nor
its memory reaches the measured worker.  Expectations come from the
benchmark's own arithmetic (class emptiness, sum ranges, a counting
Gale-Ryser reference), never from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from checks import cap_sums, first_violation

WORKLOADS = ("grid_verify", "large_inputs")

# Per-verdict totals of the full acceptance grid.  They do not depend on the
# seed, which only reorders the calls.
GRID_LIMIT = {"full": 6, "smoke": 3}
GRID_CLASSES = 8136
GRID_VERDICTS = {"all-graphic": 3053, "not-all-graphic": 819, "vacuous": 4264}

# large_inputs: sizes, densities and call order are fixed so that every seed
# does the same amount of work; the seed picks the graphs and the classes.
LARGE = {
    "full": {
        "pair_sizes": (1000, 2000, 4000, 8000),
        "pairs_per_size": 2,  # graphic ones; as many non-graphic ones again
        "pair_density": 0.05,
        "realize": ((500, 0.04), (1000, 0.05), (2000, 0.05)),
        "class_sizes": tuple(1 << k for k in range(16, 20)),
        "classes_per_size": 3,
    },
    "smoke": {
        "pair_sizes": (50, 100),
        "pairs_per_size": 2,
        "pair_density": 0.2,
        "realize": ((40, 0.2), (80, 0.1)),
        "class_sizes": (1 << 8, 1 << 10),
        "classes_per_size": 2,
    },
}
MAX_INPUT = 1 << 20  # the program's documented bound on entries, lengths and sums


@dataclass(frozen=True)
class Job:
    argv: list[str]
    kind: str  # class_verify | pair | realize | class
    expect: dict


@dataclass
class Workload:
    jobs: list[Job]
    # Per-verdict totals one pass must reproduce; only the listed keys count.
    verdicts: dict[str, int] = field(default_factory=dict)


def side_nonempty(length: int, high: int, low: int, total: int) -> bool:
    """Whether a decreasing sequence with this length, first entry, last entry
    and sum exists."""
    if length == 1:
        return high == low == total
    return high + low * (length - 1) <= total <= high * (length - 1) + low


def sum_range(a: int, b: int, c: int, d: int, m: int, n: int) -> range:
    """Every common sum S the class hypotheses allow."""
    return range(max(m * b, n * d), min(m * a, n * c) + 1)


def _class_argv(command: str, a, b, c, d, m, n, S=None) -> list[str]:
    argv = [command, "-a", str(a), "-b", str(b), "-c", str(c), "-d", str(d),
            "-m", str(m), "-n", str(n)]
    if S is not None:
        argv += ["-S", str(S)]
    return argv


def grid_verify(seed: int, scale: str) -> Workload:
    limit = GRID_LIMIT[scale]
    jobs = []
    for a in range(1, limit + 1):
        for b in range(1, a + 1):
            for n in range(a, limit + 1):
                for c in range(1, limit + 1):
                    for d in range(1, c + 1):
                        for m in range(c, limit + 1):
                            for S in sum_range(a, b, c, d, m, n):
                                nonempty = side_nonempty(m, a, b, S) and side_nonempty(n, c, d, S)
                                jobs.append(Job(
                                    _class_argv("check-class", a, b, c, d, m, n, S) + ["--verify", "--json"],
                                    "class_verify",
                                    {"params": (a, b, c, d, m, n, S), "nonempty": nonempty},
                                ))
    random.Random(seed).shuffle(jobs)
    verdicts = {"vacuous": sum(not job.expect["nonempty"] for job in jobs)}
    if scale == "full":
        assert len(jobs) == GRID_CLASSES, len(jobs)
        assert verdicts["vacuous"] == GRID_VERDICTS["vacuous"]
        verdicts = dict(GRID_VERDICTS)
    return Workload(jobs, verdicts)


def random_bipartite_degrees(rng: np.random.Generator, m: int, n: int, p: float):
    """Degree sequences (both decreasing) of a random bipartite graph in which
    each left vertex joins a Binomial(n, p) set of distinct right vertices.
    Memory stays O(m + n): no adjacency matrix is drawn."""
    left = rng.binomial(n, p, size=m).astype(np.int64)
    right = np.zeros(n, dtype=np.int64)
    for deg in left.tolist():
        right[rng.choice(n, size=deg, replace=False)] += 1
    return np.sort(left)[::-1], np.sort(right)[::-1]


def non_graphic_left(rng: np.random.Generator, f: np.ndarray) -> tuple[np.ndarray, int]:
    """A decreasing left sequence with sum(f) and as many entries as f whose
    first Gale-Ryser violation against f is at a known k.

    The left side opens with k0 entries equal to h, chosen so that h*k stays
    within the caps of f for every k < k0 (caps_k / k never increases) and
    exceeds them at k0; the remaining sum is spread evenly below h.
    """
    m, total = f.size, int(f.sum())
    caps = cap_sums(f, m)
    lo_k, hi_k = int(np.median(f)), int(f[0])
    for _ in range(1000):
        k0 = int(rng.integers(max(2, lo_k), max(3, hi_k)))
        h = caps[k0 - 1] // k0 + 1
        if h * (k0 - 1) > caps[k0 - 2] or h * k0 > total:
            continue
        rest, extra = divmod(total - h * k0, m - k0)
        if rest + (extra > 0) > h:
            continue
        e = np.concatenate([
            np.full(k0, h), np.full(extra, rest + 1), np.full(m - k0 - extra, rest),
        ]).astype(np.int64)
        assert first_violation(e, f) == k0
        return e, k0
    raise RuntimeError("no non-graphic construction found")


def _seq(values: np.ndarray) -> str:
    return ",".join(map(str, values.tolist()))


def large_inputs(seed: int, scale: str) -> Workload:
    cfg = LARGE[scale]
    rng = np.random.default_rng(seed)
    jobs = []
    for n in cfg["pair_sizes"]:
        for _ in range(cfg["pairs_per_size"]):
            e, f = random_bipartite_degrees(rng, n, n, cfg["pair_density"])
            jobs.append(Job(["check-pair", "--left", _seq(e), "--right", _seq(f), "--json"],
                            "pair", {"graphic": True, "failing_k": None}))
            _, f = random_bipartite_degrees(rng, n, n, cfg["pair_density"])
            e, k0 = non_graphic_left(rng, f)
            jobs.append(Job(["check-pair", "--left", _seq(e), "--right", _seq(f), "--json"],
                            "pair", {"graphic": False, "failing_k": k0}))
    for n, p in cfg["realize"]:
        e, f = random_bipartite_degrees(rng, n, n, p)
        jobs.append(Job(["check-pair", "--left", _seq(e), "--right", _seq(f), "--realize", "--json"],
                        "realize", {"graphic": True, "failing_k": None}))
    for m in cfg["class_sizes"]:
        for _ in range(cfg["classes_per_size"]):
            # Minima 1 keep S within MAX_INPUT at m = n = 2^19.
            a, c = (int(v) for v in rng.integers(3, 10, size=2))
            lo = max(a + m - 1, c + m - 1)
            hi = min(MAX_INPUT, a * (m - 1) + 1, c * (m - 1) + 1)
            S = int(rng.integers(lo, hi + 1))
            params = (a, 1, c, 1, m, m, S)
            jobs.append(Job(_class_argv("check-class", *params) + ["--json"], "class",
                            {"params": params}))
    # A fixed interleaving: memory the program keeps from one call raises the
    # high-water mark of a later one, so a seeded order would move peak RSS.
    random.Random(0).shuffle(jobs)
    graphic = sum(1 for job in jobs if job.kind in ("pair", "realize") and job.expect["graphic"])
    not_graphic = sum(1 for job in jobs if job.kind == "pair" and not job.expect["graphic"])
    return Workload(jobs, {"graphic": graphic, "not-graphic": not_graphic})


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[name](seed, scale)
