"""Bipartite graphicality of degree-sequence pairs and parameter classes.

Decide whether a pair of decreasing integer sequences is realizable as the
two degree sequences of a simple bipartite graph, and whether *every* pair in
a class P(a, b, c, d, m, n, S) (prescribed lengths, maxima, minima, common
sum) is.  The class question is answered in closed form and cross-checked by
an exhaustive brute-force oracle.

Every public name is imported on first use (PEP 562), so ``import bgseq``
loads no submodule, and numpy comes only with a name from ``galeryser`` or
``enumeration``.
"""

__version__ = "0.1.0"

# The public names by defining module, in ``__all__`` order.
_NAMES = {
    "seqcore": (
        "MAX_INPUT", "DegreeSequence", "BlockForm", "ClassParams", "ValidatedSequence",
        "validate_sequence", "to_blocks", "class_nonempty", "s_range", "SequenceError",
        "EmptyInput", "NegativeEntry", "NotDecreasing", "LimitExceeded", "InvalidParams",
        "OracleBudgetExceeded",
    ),
    "galeryser": (
        "PairVerdict", "BipartiteRealization", "NotGraphic", "gale_ryser", "zz_check", "realize",
    ),
    "criterion": (
        "Verdict", "Branch", "CanonicalDecomposition", "CanonicalPair", "CriterionReport",
        "decompose", "canonical_sequence", "canonical_pair", "theorem_main", "dominates_prefix",
        "smooth_step", "smooth_to_canonical", "symmetric_sufficient", "DegenerateClass",
        "EmptyClass", "LengthMismatch", "BadExtremes", "HypothesisViolation",
    ),
    "enumeration": (
        "ClassWitness", "OracleVerdict", "WitnessPair", "enum_sequences", "enum_class",
        "count_class", "brute_force_all_graphic",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # A public name, or one of the four modules, imported and bound once.
    home = _HOME.get(name, name if name in _NAMES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    value = globals()[name] = module if home == name else getattr(module, name)
    return value
