"""Closed-form class criterion and its reduction machinery.

Given class parameters (a, b, c, d, m, n, S), the class is decided without
enumerating it: a nonempty class with a > b and c > d is all-graphic iff

    a*r + c*s <= S + r*s + min(r-p-d, s-q-b, r+s-p-q-b-d+1, 0)

with (r, s, p, q) the canonical decomposition computed here.  The canonical
pair (E, F) realizes the worst case of the class: it is graphic iff every
pair in the class is.  The smoothing walk (``smooth_step`` /
``smooth_to_canonical``) carries any class member to the canonical shape
without increasing any min-cap sum, which is why a single pair suffices.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import NamedTuple

from .seqcore import (
    MAX_INPUT,
    BlockForm,
    ClassParams,
    DegreeSequence,
    LimitExceeded,
    _check_side_args,
    _side_nonempty,
    class_nonempty,
)

__all__ = [
    "DegenerateClass",
    "EmptyClass",
    "LengthMismatch",
    "BadExtremes",
    "HypothesisViolation",
    "Verdict",
    "Branch",
    "MIN_TERM_NAMES",
    "CanonicalDecomposition",
    "CanonicalPair",
    "CriterionReport",
    "decompose",
    "canonical_sequence",
    "canonical_pair",
    "theorem_main",
    "dominates_prefix",
    "smooth_step",
    "smooth_to_canonical",
    "symmetric_sufficient",
]


class DegenerateClass(ValueError):
    """The decomposition needs a > b and c > d."""


class EmptyClass(ValueError):
    """The requested class contains no sequence (pair)."""


class LengthMismatch(ValueError):
    """Prefix dominance compares sequences of equal length only."""


class BadExtremes(ValueError):
    """The sequence does not have the stated first/last entries."""


class HypothesisViolation(ValueError):
    """The symmetric sufficient condition needs m >= a >= b >= 0 and m >= 1."""


class Verdict(enum.Enum):
    ALL_GRAPHIC = "all-graphic"
    NOT_ALL_GRAPHIC = "not-all-graphic"
    VACUOUS = "vacuous"


class Branch(enum.Enum):
    DEGENERATE_EQUAL_EXTREMES = "degenerate-equal-extremes"
    GENERAL_INEQUALITY = "general-inequality"


# Candidate expressions of the min term, in tie-breaking order.
MIN_TERM_NAMES = ("r-p-d", "s-q-b", "r+s-p-q-b-d+1", "zero")


class CanonicalDecomposition(NamedTuple):
    """Derived quantities of a nonempty class with a > b and c > d:
    r leading maxima and leftover q on the left side, s and p on the right."""

    r: int
    s: int
    p: int
    q: int


class _PairBlocks(NamedTuple):
    E_blocks: BlockForm
    F_blocks: BlockForm


class CanonicalPair(_PairBlocks):
    """The extremal pair (E, F) of a class: E = (a^r, b+q, b^(m-r-1)) and
    F = (c^s, d+p, d^(n-s-1)).  Held as run-length blocks, at most three a
    side; the O(m + n) arrays ``E`` and ``F`` are expanded on first use and
    kept in the instance ``__dict__``, which takes no other attribute."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to CanonicalPair.{name}")

    @cached_property
    def E(self) -> DegreeSequence:
        return self.E_blocks.expand()

    @cached_property
    def F(self) -> DegreeSequence:
        return self.F_blocks.expand()


class CriterionReport(NamedTuple):
    """Verdict of the class criterion plus the arithmetic behind it.

    ``branch`` is absent for vacuous (empty-class) verdicts; the inequality
    fields are populated only on the general branch.
    """

    verdict: Verdict
    branch: Branch | None = None
    lhs: int | None = None
    rhs: int | None = None
    min_term: int | None = None
    min_term_argument: str | None = None
    decomposition: CanonicalDecomposition | None = None


def _split(high: int, low: int, length: int, total: int) -> tuple[int, int]:
    # Head count and leftover of the extremal sequence with the given shape:
    # as many leading `high` entries as the sum allows, remainder on the next
    # entry, `low` everywhere after.
    head = (total - length * low) // (high - low)
    leftover = total - high * head - low * (length - head)
    return head, leftover


def decompose(params: ClassParams) -> CanonicalDecomposition:
    """Compute (r, s, p, q) for a nonempty class with a > b and c > d.

    r = floor((S - m*b) / (a - b)), q = S - a*r - b*(m - r), and s, p are the
    mirror quantities of the right side.
    """
    if params.a == params.b or params.c == params.d:
        raise DegenerateClass("decomposition requires a > b and c > d")
    if not class_nonempty(params):
        raise EmptyClass(f"{params} describes an empty class")
    r, q = _split(params.a, params.b, params.m, params.S)
    s, p = _split(params.c, params.d, params.n, params.S)
    assert 1 <= r <= params.m - 1, f"r={r} out of range for {params}"
    assert 1 <= s <= params.n - 1, f"s={s} out of range for {params}"
    assert 0 <= q < params.a - params.b, f"q={q} out of range for {params}"
    assert 0 <= p < params.c - params.d, f"p={p} out of range for {params}"
    return CanonicalDecomposition(r, s, p, q)


def _canonical_blocks(high: int, low: int, length: int, head: int, leftover: int) -> BlockForm:
    """Runs of the extremal decreasing sequence with the given max, min and
    length, and the head count and leftover ``_split`` gives for its sum:
    `head` entries `high`, one leftover entry, `low` after.  O(1): at most
    three blocks.  The leftover is below high - low, so a positive one is its
    own block and a zero one joins the low tail."""
    blocks = [(high, head)]
    if leftover:
        blocks.append((low + leftover, 1))
    rest = length - head - (1 if leftover else 0)
    if rest:
        blocks.append((low, rest))
    assert head >= 1 and blocks[-1][0] == low
    assert sum(c for _, c in blocks) == length
    return BlockForm(tuple(blocks))


def canonical_sequence(high: int, low: int, length: int, total: int) -> DegreeSequence:
    """The extremal decreasing sequence with the given max, min, length and
    sum: maximal head of `high` entries, one leftover entry, `low` after."""
    if high <= low:
        raise DegenerateClass("requires max > min")
    high, low, length, total = _check_side_args(high, low, length, total)
    if not _side_nonempty(length, high, low, total):
        raise EmptyClass(
            f"no decreasing length-{length} sequence with max {high}, "
            f"min {low}, sum {total}"
        )
    return _canonical_blocks(high, low, length, *_split(high, low, length, total)).expand()


def canonical_pair(params: ClassParams) -> CanonicalPair:
    """The extremal pair (E, F) of a nonempty class with a > b, c > d, as
    blocks built from its decomposition; O(1) until ``E`` or ``F`` is read."""
    return _pair_from(params, decompose(params))


def _pair_from(params: ClassParams, dec: CanonicalDecomposition) -> CanonicalPair:
    # The canonical pair of a class whose decomposition is already known.
    return CanonicalPair(
        _canonical_blocks(params.a, params.b, params.m, dec.r, dec.q),
        _canonical_blocks(params.c, params.d, params.n, dec.s, dec.p),
    )


def theorem_main(params: ClassParams) -> CriterionReport:
    """Decide whether every pair in the class is bipartite graphic.

    Empty classes get the explicit verdict VACUOUS rather than a vacuously
    true ALL_GRAPHIC from the inequality.  When a = b or c = d one side is
    forced constant and the class is always all-graphic; otherwise the
    closed-form inequality on (r, s, p, q) decides.  O(1): only the seven
    parameters are read; the canonical pair comes from ``canonical_pair``.
    """
    if not class_nonempty(params):
        return CriterionReport(Verdict.VACUOUS)
    if params.a == params.b or params.c == params.d:
        return CriterionReport(Verdict.ALL_GRAPHIC, Branch.DEGENERATE_EQUAL_EXTREMES)
    dec = decompose(params)
    r, s, p, q = dec
    b, d = params.b, params.d
    lhs = params.a * r + params.c * s
    candidates = (r - p - d, s - q - b, r + s - p - q - b - d + 1, 0)
    min_term = min(candidates)
    argument = MIN_TERM_NAMES[candidates.index(min_term)]
    rhs = params.S + r * s + min_term
    verdict = Verdict.ALL_GRAPHIC if lhs <= rhs else Verdict.NOT_ALL_GRAPHIC
    return CriterionReport(
        verdict,
        Branch.GENERAL_INEQUALITY,
        lhs=lhs,
        rhs=rhs,
        min_term=min_term,
        min_term_argument=argument,
        decomposition=dec,
    )


def dominates_prefix(e: DegreeSequence, E: DegreeSequence) -> bool:
    """Whether every prefix sum of e is at most the matching prefix sum of E."""
    import numpy as np

    if len(e) != len(E):
        raise LengthMismatch(f"lengths differ: {len(e)} vs {len(E)}")
    return bool(np.all(np.cumsum(e.values) <= np.cumsum(E.values)))


def smooth_step(f: DegreeSequence, c: int, d: int) -> DegreeSequence | None:
    """One smoothing move toward the canonical shape, or None at the fixpoint.

    With C the last index holding the max c and D the first index holding the
    min d (1-based): when D - C <= 2 the sequence already is canonical for its
    own parameters and None is returned.  Otherwise entry C+1 is raised by one
    and entry D-1 lowered by one, preserving length, sum, max, min and
    decreasingness while never increasing any min-cap sum.
    """
    import numpy as np

    v = f.values
    if int(v[0]) != c or int(v[-1]) != d:
        raise BadExtremes(
            f"expected first entry {c} and last entry {d}, "
            f"got {int(v[0])} and {int(v[-1])}"
        )
    if c <= d:
        raise BadExtremes("requires first entry > last entry")
    C = int(np.count_nonzero(v == c))
    D = int(v.size) - int(np.count_nonzero(v == d)) + 1
    if D - C <= 2:
        return None
    out = v.copy()
    out[C] += 1  # 0-based C is the entry right after the last max
    out[D - 2] -= 1  # 0-based D-2 is the entry right before the first min
    return DegreeSequence(out)


def smooth_to_canonical(f: DegreeSequence) -> DegreeSequence:
    """Iterate ``smooth_step`` to its fixpoint.

    The result equals ``canonical_sequence(f_1, f_last, len(f), sum(f))``;
    termination is guaranteed because each step strictly increases the sum of
    squared entries, which is bounded.
    """
    v = f.values
    if v.size < 2 or int(v[0]) <= int(v[-1]):
        raise BadExtremes("requires length >= 2 and first entry > last entry")
    c, d = int(v[0]), int(v[-1])
    current = f
    while (stepped := smooth_step(current, c, d)) is not None:
        current = stepped
    return current


def symmetric_sufficient(a: int, b: int, m: int) -> bool:
    """Sufficient condition for symmetric classes: 4*m*b >= (a+b)^2 - 1.

    When it holds, every symmetric pair with length m, max a, min b is
    bipartite graphic for every compatible sum.
    """
    if b < 0:
        raise HypothesisViolation("requires b >= 0")
    if a < b:
        raise HypothesisViolation("requires a >= b")
    if m < a:
        raise HypothesisViolation("requires m >= a")
    if m < 1:
        raise HypothesisViolation("requires m >= 1")
    if m > MAX_INPUT:
        raise LimitExceeded(f"parameters must not exceed {MAX_INPUT}")
    return 4 * m * b >= (a + b) ** 2 - 1
