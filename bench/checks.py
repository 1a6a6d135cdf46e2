"""Response checks for every benchmark call.

``check`` inspects one CLI response (exit code, stdout, stderr) against the
job's expectation and returns the problems it found plus the verdicts the
response reports.  A call fails when its exit code is outside the expected
set or any check fails; exit codes 2 (invalid input) and 3 (criterion and
oracle disagree) are never expected.  The reference pair test here counts
(bincount plus two cumulative sums) and shares no code with the program.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

CLASS_EXIT = {"all-graphic": 0, "not-all-graphic": 1, "vacuous": 4}


def cap_sums(f: np.ndarray, kmax: int) -> np.ndarray:
    """caps[k-1] = sum_i min(k, f_i) for k = 1..kmax, by counting."""
    counts = np.bincount(np.minimum(f, kmax), minlength=kmax + 1)
    at_least = np.cumsum(counts[::-1])[::-1]
    return np.cumsum(at_least[1:kmax + 1])


def first_violation(e: np.ndarray, f: np.ndarray) -> int | None:
    """Smallest k whose Gale-Ryser inequality fails for the pair (e, f), 0 when
    the sums differ, None when the pair is graphic."""
    e, f = np.asarray(e, dtype=np.int64), np.asarray(f, dtype=np.int64)
    if e.sum() != f.sum():
        return 0
    viol = np.cumsum(e) > cap_sums(f, e.size)
    return int(np.argmax(viol)) + 1 if viol.any() else None


def _sequence(argv: list[str], flag: str) -> list[int]:
    return [int(v) for v in argv[argv.index(flag) + 1].split(",")]


def _check_side(name: str, seq: list[int], length: int, total: int, high: int, low: int) -> list[str]:
    problems = []
    if len(seq) != length:
        problems.append(f"{name} has length {len(seq)}, expected {length}")
    if sum(seq) != total:
        problems.append(f"{name} sums to {sum(seq)}, expected {total}")
    if seq and (seq[0] != high or max(seq) != high):
        problems.append(f"{name} maximum is {max(seq)}, expected {high}")
    if seq and (seq[-1] != low or min(seq) != low):
        problems.append(f"{name} minimum is {min(seq)}, expected {low}")
    return problems


def _check_class_verify(job, code, obj):
    nonempty = job.expect["nonempty"]
    verdict = obj["verdict"]
    problems = []
    if obj.get("oracle_agrees") is not True:
        problems.append(f"oracle_agrees is {obj.get('oracle_agrees')!r}")
    if (verdict == "vacuous") == nonempty or obj["nonempty"] != nonempty:
        problems.append(f"verdict {verdict} but the class is {'non' if nonempty else ''}empty")
    if CLASS_EXIT.get(verdict) != code:
        problems.append(f"exit code {code} does not match verdict {verdict}")
    return problems, [verdict]


def _check_pair(job, code, obj):
    left, right = _sequence(job.argv, "--left"), _sequence(job.argv, "--right")
    graphic = job.expect["graphic"]
    problems = []
    if code != (0 if graphic else 1):
        problems.append(f"exit code {code}, expected {0 if graphic else 1}")
    if obj["left"] != left or obj["right"] != right:
        problems.append("echoed sequences differ from the input")
    if obj["graphic"] is not graphic or obj["sums_equal"] is not True:
        problems.append(f"graphic={obj['graphic']} sums_equal={obj['sums_equal']}, expected graphic={graphic}")
    if obj.get("failing_k") != job.expect["failing_k"]:
        problems.append(f"failing_k {obj.get('failing_k')}, constructed {job.expect['failing_k']}")
    if job.kind == "realize":
        problems += _check_edges(obj.get("edges"), left, right)
    return problems, ["graphic" if obj["graphic"] else "not-graphic"]


def _check_edges(edges, left: list[int], right: list[int]) -> list[str]:
    if not edges:
        return ["no edge list"]
    arr = np.asarray(edges, dtype=np.int64)
    m, n = len(left), len(right)
    u, v = arr[:, 0], arr[:, 1]
    if u.min() < 1 or u.max() > m or v.min() < 1 or v.max() > n:
        return ["edge endpoint out of range"]
    problems = []
    if np.unique(u * (n + 1) + v).size != arr.shape[0]:
        problems.append("duplicate edges")
    if not np.array_equal(np.bincount(u - 1, minlength=m), left):
        problems.append("edge list does not recount to the left degrees")
    if not np.array_equal(np.bincount(v - 1, minlength=n), right):
        problems.append("edge list does not recount to the right degrees")
    return problems


def _check_class(job, code, obj):
    a, b, c, d, m, n, S = job.expect["params"]
    verdict = obj["verdict"]
    if verdict not in ("all-graphic", "not-all-graphic") or "E" not in obj:
        return [f"verdict {verdict} without a canonical pair on a nonempty class"], [verdict]
    problems = _check_side("E", obj["E"], m, S, a, b) + _check_side("F", obj["F"], n, S, c, d)
    if CLASS_EXIT[verdict] != code:
        problems.append(f"exit code {code} does not match verdict {verdict}")
    # The canonical pair is graphic exactly when the whole class is.
    if not problems and (first_violation(obj["E"], obj["F"]) is None) != (verdict == "all-graphic"):
        problems.append(f"verdict {verdict} contradicts the canonical pair")
    return problems, [verdict]


_CHECKS = {"class_verify": _check_class_verify, "pair": _check_pair,
                "realize": _check_pair, "class": _check_class}


def check(job, code: int, out: str, err: str) -> tuple[list[str], list[str]]:
    """Problems found in one response, and the verdicts it reports."""
    if code in (2, 3) or code < 0:
        return [f"exit code {code}: {err.strip()[-300:]}"], []
    try:
        return _CHECKS[job.kind](job, code, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed response ({type(exc).__name__}: {exc})"], []


class Tally:
    """Attempted and failed calls of one pass, with the verdicts reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts: Counter[str] = Counter()
        self.messages: list[str] = []

    def add(self, job, code: int, out: str, err: str) -> bool:
        """Check and record one response; returns whether it passed."""
        return self.record(job, *check(job, code, out, err))

    def record(self, job, problems: list[str], verdicts: list[str]) -> bool:
        """Record a response whose checks have run."""
        self.attempted += 1
        self.verdicts.update(verdicts)
        if problems:
            self.failed += 1
            self.messages.append(f"{' '.join(job.argv)[:120]}: {'; '.join(problems)}")
        return not problems
