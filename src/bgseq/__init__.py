"""Bipartite graphicality of degree-sequence pairs and parameter classes.

Decide whether a pair of decreasing integer sequences is realizable as the
two degree sequences of a simple bipartite graph, and whether *every* pair in
a class P(a, b, c, d, m, n, S) (prescribed lengths, maxima, minima, common
sum) is.  The class question is answered in closed form and cross-checked by
an exhaustive brute-force oracle.
"""

from .criterion import (
    BadExtremes,
    Branch,
    CanonicalDecomposition,
    CanonicalPair,
    CriterionReport,
    DegenerateClass,
    EmptyClass,
    HypothesisViolation,
    LengthMismatch,
    Verdict,
    canonical_pair,
    canonical_sequence,
    decompose,
    dominates_prefix,
    smooth_step,
    smooth_to_canonical,
    symmetric_sufficient,
    theorem_main,
)
from .enumeration import (
    ClassWitness,
    OracleBudgetExceeded,
    OracleVerdict,
    WitnessPair,
    brute_force_all_graphic,
    count_class,
    enum_class,
    enum_sequences,
)
from .galeryser import (
    BipartiteRealization,
    NotGraphic,
    PairVerdict,
    gale_ryser,
    realize,
    zz_check,
)
from .seqcore import (
    MAX_INPUT,
    BlockForm,
    ClassParams,
    DegreeSequence,
    EmptyInput,
    InvalidParams,
    LimitExceeded,
    NegativeEntry,
    NotDecreasing,
    SequenceError,
    ValidatedSequence,
    class_nonempty,
    s_range,
    to_blocks,
    validate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # seqcore
    "MAX_INPUT",
    "DegreeSequence",
    "BlockForm",
    "ClassParams",
    "ValidatedSequence",
    "validate_sequence",
    "to_blocks",
    "class_nonempty",
    "s_range",
    "SequenceError",
    "EmptyInput",
    "NegativeEntry",
    "NotDecreasing",
    "LimitExceeded",
    "InvalidParams",
    # galeryser
    "PairVerdict",
    "BipartiteRealization",
    "NotGraphic",
    "gale_ryser",
    "zz_check",
    "realize",
    # criterion
    "Verdict",
    "Branch",
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
    "DegenerateClass",
    "EmptyClass",
    "LengthMismatch",
    "BadExtremes",
    "HypothesisViolation",
    # enumeration
    "ClassWitness",
    "OracleVerdict",
    "WitnessPair",
    "OracleBudgetExceeded",
    "enum_sequences",
    "enum_class",
    "count_class",
    "brute_force_all_graphic",
]
