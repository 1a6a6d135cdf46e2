"""The value records of the library: their repr, read-only fields, equality
and hash by fields (identity for BipartiteRealization), construction by
position and keyword, and ClassParams' validation on every way in."""

import contextlib
import copy
import io
import pickle

import numpy as np
import pytest

from bgseq import (
    MAX_INPUT,
    BipartiteRealization,
    BlockForm,
    Branch,
    CanonicalDecomposition,
    CanonicalPair,
    ClassParams,
    ClassWitness,
    CriterionReport,
    DegreeSequence,
    EmptyClass,
    InvalidParams,
    LimitExceeded,
    OracleVerdict,
    PairVerdict,
    Verdict,
    WitnessPair,
    decompose,
)
import bgseq.cli as cli
from bgseq.cli import EXIT_DISAGREEMENT, EXIT_VACUOUS

BLOCKS = ((4, 2), (1, 2))
DEC = (2, 2, 0, 0)
REPORT = (Verdict.NOT_ALL_GRAPHIC, Branch.GENERAL_INEQUALITY, 16, 14, 0, "zero")


def runs():
    return np.array([[1, 1, 2], [1, 2, 3], [2, 1, 2]])


# name -> (class, field names, a function making the positional arguments,
# the repr of an instance made from them)
RECORDS = {
    "BlockForm": (BlockForm, ("blocks",), lambda: (BLOCKS,),
                  "BlockForm(blocks=((4, 2), (1, 2)))"),
    "ClassParams": (ClassParams, ("a", "b", "c", "d", "m", "n", "S"), lambda: (4, 1, 4, 1, 4, 4, 10),
                    "ClassParams(a=4, b=1, c=4, d=1, m=4, n=4, S=10)"),
    "CanonicalDecomposition": (CanonicalDecomposition, ("r", "s", "p", "q"), lambda: DEC,
                               "CanonicalDecomposition(r=2, s=2, p=0, q=0)"),
    "CanonicalPair": (CanonicalPair, ("E_blocks", "F_blocks"), lambda: (BlockForm(BLOCKS), BlockForm(BLOCKS)),
                      "CanonicalPair(E_blocks=BlockForm(blocks=((4, 2), (1, 2))), "
                      "F_blocks=BlockForm(blocks=((4, 2), (1, 2))))"),
    "CriterionReport": (
        CriterionReport,
        ("verdict", "branch", "lhs", "rhs", "min_term", "min_term_argument", "decomposition"),
        lambda: (*REPORT, CanonicalDecomposition(*DEC)),
        "CriterionReport(verdict=<Verdict.NOT_ALL_GRAPHIC: 'not-all-graphic'>, "
        "branch=<Branch.GENERAL_INEQUALITY: 'general-inequality'>, lhs=16, rhs=14, min_term=0, "
        "min_term_argument='zero', decomposition=CanonicalDecomposition(r=2, s=2, p=0, q=0))",
    ),
    "PairVerdict": (PairVerdict, ("graphic", "failing_k", "sums_equal"), lambda: (False, 2, True),
                    "PairVerdict(graphic=False, failing_k=2, sums_equal=True)"),
    "ClassWitness": (
        ClassWitness, ("verdict", "witness"),
        lambda: (OracleVerdict.FOUND_NON_GRAPHIC,
                 WitnessPair(DegreeSequence([4, 4, 1, 1]), DegreeSequence([4, 4, 1, 1]), 2)),
        "ClassWitness(verdict=<OracleVerdict.FOUND_NON_GRAPHIC: 'found-non-graphic'>, "
        "witness=WitnessPair(left=DegreeSequence(4, 4, 1, 1), right=DegreeSequence(4, 4, 1, 1), "
        "failing_k=2))",
    ),
    "BipartiteRealization": (
        BipartiteRealization, ("left_degrees", "right_degrees", "edge_runs"),
        lambda: (DegreeSequence([2, 1]), DegreeSequence([2, 1]), runs()),
        "BipartiteRealization(left_degrees=DegreeSequence(2, 1), right_degrees=DegreeSequence(2, 1), "
        "edge_runs=array([[1, 1, 2],\n       [1, 2, 3],\n       [2, 1, 2]]))",
    ),
}

# Attributes computed from the fields, read-only like them.
DERIVED = {"CanonicalPair": ("E", "F"), "BipartiteRealization": ("edges",)}

# A changed value for the first field of each record, for inequality.
OTHER_FIRST = {
    "BlockForm": ((4, 1), (1, 3)),
    "ClassParams": 3,
    "CanonicalDecomposition": 1,
    "CanonicalPair": BlockForm(((3, 1), (1, 3))),
    "CriterionReport": Verdict.ALL_GRAPHIC,
    "PairVerdict": True,
    "ClassWitness": OracleVerdict.ALL_GRAPHIC,
}


def pickled(protocol):
    return lambda record: pickle.loads(pickle.dumps(record, protocol))


# Every way to copy a record: the copy module and each pickle protocol, one
# case each, since protocols 0 and 1 rebuild an object by another path.
COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           **{f"pickle{protocol}": pickled(protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)}}


def make(name, kwargs=False, **changes):
    cls, fields, args, _ = RECORDS[name]
    values = dict(zip(fields, args()), **changes)
    return cls(**values) if kwargs else cls(*values.values())


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_repr_and_construction(self, name):
        _, fields, args, text = RECORDS[name]
        for record in (make(name), make(name, kwargs=True)):
            assert repr(record) == text
            for field, value in zip(fields, args()):
                got = getattr(record, field)
                assert type(got) is type(value)
                assert repr(got) == repr(value)

    def test_attributes_read_only(self, name):
        record = make(name)
        for attribute in (*RECORDS[name][1], *DERIVED.get(name, ()), "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attribute, 0)
        assert not hasattr(record, "extra")
        assert repr(record) == RECORDS[name][3]

    def test_equality_and_hash(self, name):
        record, twin = make(name), make(name)
        assert record == record and hash(record) == hash(record)
        if name == "BipartiteRealization":
            # Identity: the runs are an array, which has no single truth value.
            assert record != twin
            assert len({record, twin}) == 2
            return
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
        first = RECORDS[name][1][0]
        assert record != make(name, **{first: OTHER_FIRST[name]})

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=list(COPIERS))
    def test_copies(self, name, copier):
        record = make(name)
        for attribute in DERIVED.get(name, ()):
            getattr(record, attribute)
        clone = copier(record)
        assert type(clone) is type(record) and repr(clone) == repr(record)
        if name != "BipartiteRealization":
            assert clone == record


def test_criterion_report_defaults():
    report = CriterionReport(Verdict.VACUOUS)
    assert (report.branch, report.lhs, report.rhs, report.min_term, report.min_term_argument,
            report.decomposition) == (None,) * 6
    assert report == CriterionReport(verdict=Verdict.VACUOUS)
    assert CriterionReport(Verdict.ALL_GRAPHIC, Branch.DEGENERATE_EQUAL_EXTREMES).lhs is None
    assert repr(report) == (
        "CriterionReport(verdict=<Verdict.VACUOUS: 'vacuous'>, branch=None, lhs=None, rhs=None, "
        "min_term=None, min_term_argument=None, decomposition=None)"
    )


def test_class_witness_default():
    assert ClassWitness(OracleVerdict.EMPTY).witness is None
    assert ClassWitness(OracleVerdict.EMPTY) == ClassWitness(OracleVerdict.EMPTY, None)


class TestDerivedOnce:
    def test_canonical_pair_sides(self):
        pair = make("CanonicalPair")
        assert pair.E is pair.E and pair.F is pair.F
        assert pair.E == DegreeSequence([4, 4, 1, 1])
        assert pair == make("CanonicalPair")  # a read side takes no part in equality

    def test_realization_edges(self):
        real = make("BipartiteRealization")
        assert real.edges is real.edges
        assert real.edges.tolist() == [[1, 1], [1, 2], [2, 1]]


class TestClassParamsValidation:
    def test_integers_coerced(self):
        params = ClassParams(*map(np.int64, (4, 1, 4, 1, 4, 4, 10)))
        assert all(type(value) is int for value in (params.a, params.b, params.c, params.d,
                                                     params.m, params.n, params.S))
        assert params == make("ClassParams")
        assert repr(params) == RECORDS["ClassParams"][3]
        flags = ClassParams(True, True, True, False, 1, True, np.int32(1))
        assert repr(flags) == "ClassParams(a=1, b=1, c=1, d=0, m=1, n=1, S=1)"
        assert type(flags.a) is int and type(flags.S) is int

    def test_non_integers_refused(self):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            ClassParams(4.0, 1, 4, 1, 4, 4, 10)
        with pytest.raises(TypeError):
            ClassParams(4, 1, 4, 1, 4, 4, "10")

    @pytest.mark.parametrize("args, error, message", [
        ((2, 1, 2, 1, 3, 3, 99), InvalidParams,
         "requires max(m*b, n*d) <= S <= min(m*a, n*c); got S=99 outside [3, 6]"),
        ((2, 1, 2, 1, 3, 3, 2), InvalidParams,
         "requires max(m*b, n*d) <= S <= min(m*a, n*c); got S=2 outside [3, 6]"),
        ((3, 4, 1, 1, 4, 4, 8), InvalidParams, "requires a >= b"),
        ((2, 1, 2, 1, 0, 3, 4), InvalidParams, "requires m >= 1"),
        ((5, 1, 1, 1, 4, 4, 4), InvalidParams, "requires n >= a"),
        ((1, 1, 1, 1, MAX_INPUT + 1, MAX_INPUT + 1, MAX_INPUT + 1), LimitExceeded,
         f"parameters must not exceed {MAX_INPUT}"),
        ((4, 1, 4, 1, 4, 4, 10**9), LimitExceeded, f"parameters must not exceed {MAX_INPUT}"),
        ((2, 1, 3, 4, 4, 4, 8), InvalidParams, "requires c >= d"),
        ((1, 1, 5, 1, 4, 5, 4), InvalidParams, "requires m >= c"),
        ((2, -1, 2, 1, 3, 3, 4), InvalidParams, "requires b >= 0"),
    ])
    def test_refusals(self, args, error, message):
        with pytest.raises(error) as raised:
            ClassParams(*args)
        assert type(raised.value) is error and str(raised.value) == message


class TestRecordsAreTuples:
    def test_fields_as_tuple(self):
        params = make("ClassParams")
        assert params == (4, 1, 4, 1, 4, 4, 10) and params[6] == 10
        a, b, c, d, m, n, S = params
        assert (a, S) == (4, 10)
        assert list(params._asdict()) == ["a", "b", "c", "d", "m", "n", "S"]
        assert tuple(CanonicalDecomposition(*DEC)) == DEC

    def test_class_params_replace_and_make_validate(self):
        params = make("ClassParams")
        assert params._replace(S=9) == ClassParams(4, 1, 4, 1, 4, 4, 9)
        assert type(params._replace(S=9)) is ClassParams
        with pytest.raises(LimitExceeded):
            params._replace(S=10**9)
        with pytest.raises(InvalidParams, match="requires a >= b"):
            ClassParams._make((1, 2, 4, 1, 4, 4, 10))
        assert ClassParams._make(map(np.int64, params)) == params

    def test_unpickling_validates(self):
        # Unpickling calls what __reduce_ex__ names; with an S out of range
        # that call refuses, so no pickle gives an unvalidated ClassParams.
        rebuild, args, *_ = make("ClassParams").__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        assert rebuild(*args) == make("ClassParams")
        with pytest.raises(LimitExceeded):
            rebuild(*args[:-1], 10**9)
        # Protocol 0 writes S as text, so an edited pickle must refuse too.
        text = pickle.dumps(make("ClassParams"), 0)
        assert b"I10\n" in text
        with pytest.raises(LimitExceeded):
            pickle.loads(text.replace(b"I10\n", b"I1000000000\n"))


class TestClassParamsReprInMessages:
    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_empty_class(self):
        with pytest.raises(EmptyClass) as raised:
            decompose(ClassParams(2, 1, 2, 1, 3, 3, 3))
        message = "ClassParams(a=2, b=1, c=2, d=1, m=3, n=3, S=3) describes an empty class"
        assert str(raised.value) == message
        argv = ["canonical", "-a", "2", "-b", "1", "-c", "2", "-d", "1", "-m", "3", "-n", "3", "-S", "3"]
        assert self.run(argv) == (EXIT_VACUOUS, "", f"error: {message}\n")

    def test_disagreement_line(self, monkeypatch):
        monkeypatch.setattr(cli, "brute_force_all_graphic",
                            lambda params, budget: ClassWitness(OracleVerdict.EMPTY), raising=False)
        argv = ["check-class", "-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "5", "-n", "5", "-S", "12",
                "--verify"]
        code, out, err = self.run(argv)
        assert code == EXIT_DISAGREEMENT
        assert out.endswith("oracle: empty (agrees: NO)\n")
        assert err == ("error: criterion verdict all-graphic disagrees with oracle verdict empty "
                       "on ClassParams(a=4, b=1, c=4, d=1, m=5, n=5, S=12)\n")
