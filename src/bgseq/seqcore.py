"""Core types for bipartite degree-sequence work.

Validated decreasing integer sequences, their run-length block form, the
seven-parameter class description P(a, b, c, d, m, n, S), and the small
arithmetic primitives (sum ranges, nonemptiness) that every
graphicality test builds on.

numpy is imported inside the functions that build or read arrays, so a
process that only works on class parameters never loads it.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_INPUT",
    "SequenceError",
    "EmptyInput",
    "NegativeEntry",
    "NotDecreasing",
    "LimitExceeded",
    "InvalidParams",
    "OracleBudgetExceeded",
    "DegreeSequence",
    "BlockForm",
    "ClassParams",
    "ValidatedSequence",
    "validate_sequence",
    "to_blocks",
    "class_nonempty",
    "s_range",
]

# Entries, lengths and class parameters are capped so that every product or
# partial sum formed anywhere in the package stays below 2**62 and therefore
# fits in int64 without silent wraparound.
MAX_INPUT = 1 << 20


class SequenceError(ValueError):
    """Raw input cannot be turned into a valid degree sequence."""


class EmptyInput(SequenceError):
    """A sequence needs at least one entry."""


class NegativeEntry(SequenceError):
    """Degree sequences contain nonnegative integers only."""


class NotDecreasing(SequenceError):
    """Strict validation rejects input that is not sorted decreasingly."""


class LimitExceeded(SequenceError):
    """An entry, length, or parameter exceeds the documented 2**20 bound."""


class InvalidParams(ValueError):
    """Class parameters violate a hypothesis; the message names which one."""


class OracleBudgetExceeded(RuntimeError):
    """The class is larger than the configured oracle budget.  Raised by
    ``enumeration`` and defined here, so that catching it loads no numpy."""


class DegreeSequence:
    """A non-strictly decreasing sequence of nonnegative integers.

    Entries live in a read-only int64 array (``.values``).  Instances are
    immutable in practice, hashable, and compare entrywise.  Construction
    runs ``validate_sequence`` in strict mode.
    """

    __slots__ = ("values",)

    def __init__(self, entries: Iterable[int]):
        self.values = validate_sequence(entries).sequence.values

    @classmethod
    def _from_trusted(cls, arr: np.ndarray) -> "DegreeSequence":
        # Fast path for internally generated arrays already known to be
        # int64, nonnegative and decreasing.
        seq = object.__new__(cls)
        arr.setflags(write=False)
        seq.values = arr
        return seq

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def __getitem__(self, index: int) -> int:
        return int(self.values[index])

    @property
    def total(self) -> int:
        """Sum of all entries."""
        return int(self.values.sum())

    @property
    def largest(self) -> int:
        return int(self.values[0])

    @property
    def smallest(self) -> int:
        return int(self.values[-1])

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        import numpy as np

        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"DegreeSequence({', '.join(map(str, self.values.tolist()))})"

    def __reduce__(self):
        return type(self), (self.values,)


class ValidatedSequence(NamedTuple):
    sequence: DegreeSequence
    was_sorted: bool


def validate_sequence(raw: Iterable[int], strict: bool = True) -> ValidatedSequence:
    """Turn raw integers into a DegreeSequence.

    Strict mode rejects input that is not already sorted decreasingly; the
    lenient mode sorts it and reports that it did so via ``was_sorted``.
    A 1-D int64 array is checked as it is in O(n) numpy steps (``np.sort``
    when sorting); anything else first takes one ``operator.index`` an entry.
    """
    import numpy as np

    arr = raw
    if not isinstance(arr, np.ndarray) or arr.dtype != np.int64 or arr.ndim != 1:
        try:
            arr = np.array([operator.index(v) for v in raw], dtype=np.int64)
        except OverflowError:
            raise LimitExceeded(f"entries must not exceed the supported bound {MAX_INPUT}") from None
    if arr.size == 0:
        raise EmptyInput("expected at least one entry")
    if arr.size > MAX_INPUT:
        raise LimitExceeded(f"sequence length {arr.size} exceeds {MAX_INPUT}")
    if arr.min() < 0:
        raise NegativeEntry(f"negative entry {arr[np.argmax(arr < 0)]} not allowed")
    rises = arr[1:] > arr[:-1]
    was_sorted = bool(rises.any())
    if strict and was_sorted:
        i = int(rises.argmax()) + 1
        raise NotDecreasing(f"entries are not in decreasing order: entry {i + 1} is {arr[i]}, "
                            f"after {arr[i - 1]}")
    if arr.max() > MAX_INPUT:
        raise LimitExceeded(f"entry {arr.max()} exceeds {MAX_INPUT}")
    arr = -np.sort(-arr) if was_sorted else arr.copy()
    return ValidatedSequence(DegreeSequence._from_trusted(arr), was_sorted)


class BlockForm(NamedTuple):
    """Run-length encoding of a decreasing sequence.

    ``blocks`` is a tuple of (value, multiplicity) pairs with strictly
    decreasing values; expanding it reproduces the original sequence.
    """

    blocks: tuple[tuple[int, int], ...]

    def expand(self) -> DegreeSequence:
        import numpy as np

        values = [v for v, _ in self.blocks]
        counts = [c for _, c in self.blocks]
        return DegreeSequence._from_trusted(
            np.repeat(np.asarray(values, dtype=np.int64), counts)
        )

    def boundaries(self) -> tuple[int, ...]:
        """Cumulative multiplicities: the strong indices of the sequence."""
        return tuple(accumulate(c for _, c in self.blocks))


def to_blocks(x: DegreeSequence) -> BlockForm:
    """Run-length encode a decreasing sequence into BlockForm.  O(len(x)):
    a run starts wherever an entry differs from its predecessor, so one
    boolean pass marks every run bound, both ends included."""
    import numpy as np

    v = x.values
    cut = np.empty(v.size + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.not_equal(v[1:], v[:-1], out=cut[1:-1])
    bounds = cut.nonzero()[0]
    return BlockForm(tuple(zip(v[bounds[:-1]].tolist(), (bounds[1:] - bounds[:-1]).tolist())))


class _ClassFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    m: int
    n: int
    S: int


class ClassParams(_ClassFields):
    """Parameters of a class of sequence pairs: lengths m and n, common sum
    S, prescribed maxima a, c and minima b, d on the two sides.  A named
    tuple that every way of building one validates: the constructor,
    ``_make`` (and so ``_replace``), copying and unpickling."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int, m: int, n: int, S: int) -> "ClassParams":
        a, b, c, d, m, n, S = map(operator.index, (a, b, c, d, m, n, S))
        _check_shape(a, b, c, d, m, n, S)
        if not max(m * b, n * d) <= S <= min(m * a, n * c):
            raise InvalidParams(
                "requires max(m*b, n*d) <= S <= min(m*a, n*c); "
                f"got S={S} outside [{max(m * b, n * d)}, {min(m * a, n * c)}]"
            )
        return tuple.__new__(cls, (a, b, c, d, m, n, S))

    @classmethod
    def _make(cls, iterable) -> "ClassParams":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


def _check_shape(a: int, b: int, c: int, d: int, m: int, n: int, S: int = 0) -> None:
    # The class hypotheses that do not involve the sum's range, shared by
    # ClassParams and s_range; S only joins the MAX_INPUT bound.
    if m < 1:
        raise InvalidParams("requires m >= 1")
    if n < 1:
        raise InvalidParams("requires n >= 1")
    if b < 0:
        raise InvalidParams("requires b >= 0")
    if d < 0:
        raise InvalidParams("requires d >= 0")
    if a < b:
        raise InvalidParams("requires a >= b")
    if c < d:
        raise InvalidParams("requires c >= d")
    if max(a, c, m, n, S) > MAX_INPUT:
        raise LimitExceeded(f"parameters must not exceed {MAX_INPUT}")
    if n < a:
        raise InvalidParams("requires n >= a")
    if m < c:
        raise InvalidParams("requires m >= c")


def _check_side_args(A: int, B: int, L: int, S: int) -> tuple[int, int, int, int]:
    # One side's max A, min B, length L and sum S as ints, or the first
    # hypothesis they break: checked before anything L long is built.
    A, B, L, S = (operator.index(v) for v in (A, B, L, S))
    if B < 0:
        raise ValueError("requires min >= 0")
    if A < B:
        raise ValueError("requires max >= min")
    if L < 1:
        raise ValueError("requires length >= 1")
    if max(A, L, S if S > 0 else 0) > MAX_INPUT:
        raise LimitExceeded(f"arguments must not exceed {MAX_INPUT}")
    return A, B, L, S


def _side_nonempty(length: int, high: int, low: int, total: int) -> bool:
    # Exact condition for a decreasing length-`length` sequence with first
    # entry `high`, last entry `low` and the given sum to exist.
    if length == 1:
        return high == low == total
    return high + low * (length - 1) <= total <= high * (length - 1) + low


def class_nonempty(params: ClassParams) -> bool:
    """Whether the class actually contains a pair.

    This is the exact predicate (tight per-side sum bounds), which is
    strictly stronger than membership of S in ``s_range`` whenever a > b or
    c > d.
    """
    return _side_nonempty(params.m, params.a, params.b, params.S) and _side_nonempty(
        params.n, params.c, params.d, params.S
    )


def s_range(a: int, b: int, c: int, d: int, m: int, n: int) -> range:
    """All sums S compatible with the class hypotheses:
    max(m*b, n*d) <= S <= min(m*a, n*c).  Empty range when the lower bound
    exceeds the upper bound.  Raises LimitExceeded when the range reaches
    past MAX_INPUT, so that no caller starts iterating a range it cannot
    finish."""
    _check_shape(a, b, c, d, m, n)
    span = range(max(m * b, n * d), min(m * a, n * c) + 1)
    if span and span[-1] > MAX_INPUT:
        raise LimitExceeded(f"sums up to {span[-1]} exceed the supported bound {MAX_INPUT}")
    return span
