"""Command-line surface: pair checks, class checks, sweeps, realizations.

Data goes to stdout, diagnostics to stderr.  Exit codes are table-driven per
command: 0 graphic / all-graphic / condition holds, 1 the mathematical
negative, 2 invalid input (the message names the violated hypothesis),
3 internal criterion/oracle disagreement, 4 vacuous (empty class).

numpy is imported where arrays are built: in the sequence parser and, on
first use, ``gale_ryser``, ``realize`` and ``brute_force_all_graphic``.  The
class commands without ``--verify`` never load it.  An answer is written,
once its verdict and any realization are complete, by one
``sys.stdout.writelines`` over its pieces: each JSON object and CSV row from
a fixed format for its shape, each sequence and edge list run by run.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterator

from .criterion import (
    Branch,
    CriterionReport,
    EmptyClass,
    Verdict,
    _pair_from,
    decompose,
    symmetric_sufficient,
    theorem_main,
)
from .seqcore import (
    MAX_INPUT,
    BlockForm,
    ClassParams,
    DegreeSequence,
    LimitExceeded,
    OracleBudgetExceeded,
    s_range,
    to_blocks,
    validate_sequence,
)

if TYPE_CHECKING:
    import numpy as np

    from .galeryser import BipartiteRealization

__all__ = [
    "EXIT_OK",
    "EXIT_NEGATIVE",
    "EXIT_INVALID",
    "EXIT_DISAGREEMENT",
    "EXIT_VACUOUS",
    "VERDICT_EXIT",
    "SWEEP_FIELDS",
    "parse_sequence_arg",
    "format_runs",
    "main",
    "console_main",
]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3
EXIT_VACUOUS = 4

VERDICT_EXIT = {
    Verdict.ALL_GRAPHIC: EXIT_OK,
    Verdict.NOT_ALL_GRAPHIC: EXIT_NEGATIVE,
    Verdict.VACUOUS: EXIT_VACUOUS,
}

# Which oracle outcome each criterion verdict must match under --verify, as
# the OracleVerdict value: the table is built without loading the oracle.
_EXPECTED_ORACLE = {
    Verdict.ALL_GRAPHIC: "all-graphic",
    Verdict.NOT_ALL_GRAPHIC: "found-non-graphic",
    Verdict.VACUOUS: "empty",
}

# Module globals bound on first use: their modules import numpy.
_DEFERRED = ("gale_ryser", "realize", "brute_force_all_graphic")


def __getattr__(name: str):
    # PEP 562: binds a deferred name, through the package's first-use import,
    # when it is absent, and never replaces one already bound (a wrapper set
    # on this module keeps its place).
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


def _bound(name: str):
    """A deferred global, bound on its first use: one dict lookup after that."""
    return globals().get(name) or __getattr__(name)


def parse_sequence_arg(text: str) -> np.ndarray:
    """Parse a comma-separated sequence with optional value^count runs,
    e.g. '4^2,1^2' for 4,4,1,1, into an int64 array.  Values and counts are
    what ``int()`` accepts, and a count is at least 1.  The text is read
    piece by piece (see _pieces).  A plain piece (ASCII digits and
    commas, every item 1 to 18 digits) is counted by a few numpy steps and
    kept as its bounds; any other piece takes one ``int()`` per item, bounds
    a run by MAX_INPUT before it is expanded and names a bad item with its
    position.  The length is bounded by MAX_INPUT before anything sized by
    it is built.  Plain text is then one ``np.fromstring`` (about 0.3 ms for
    8,000 entries).  Other text goes into one array of exactly its entries,
    sized by a pass over its run counts (see _entries_size), a piece as it
    is read and the plain pieces at the end: the peak is n entries plus one
    piece's items."""
    import numpy as np

    plain, length, wide, entries = [], 0, False, None
    for start, stop in _pieces(text):
        count = _plain_count(text[start:stop])
        if count is not None:
            plain.append((start, stop, slice(length, length + count)))
            length += count
            continue
        if entries is None:
            size = _entries_size(text)
            entries = np.empty(size, dtype=np.int64)
        items = text[start:stop].split(",")
        at, values, counts = length, [], []
        for item in items:
            head, mark, tail = item.partition("^")
            try:
                value, count = int(head), int(tail) if mark else 1
                if count < 1:
                    raise ValueError
            except ValueError:
                # Items equal to this one fail alike, so the first is this one.
                index = text.count(",", 0, start) + items.index(item) + 1
                raise ValueError(f"cannot parse sequence item {item.strip()!r} (item {index})") from None
            if mark and length + count > MAX_INPUT:
                raise LimitExceeded(f"sequence length {length + count} exceeds {MAX_INPUT}")
            length += count
            if length <= size:
                values.append(value)
                counts.append(count)
            elif not -(1 << 63) <= value < 1 << 63:
                wide = True
        # The piece's entries are the running sum of its steps from one value
        # to the next, each put at its item's first entry: a few numpy passes
        # over the piece, however its entries fall into runs.  int64 sums
        # wrap, so each value comes back exactly.
        counts = np.array(counts, dtype=np.int64)
        filled = entries[at:at + counts.sum()]
        filled.fill(0)
        try:
            filled[counts.cumsum() - counts] = np.diff(np.array(values, dtype=np.int64), prepend=0)
        except OverflowError:
            wide = True
        np.cumsum(filled, out=filled)
    if wide:
        raise LimitExceeded(f"entries must not exceed the supported bound {MAX_INPUT}")
    if length > MAX_INPUT:
        raise LimitExceeded(f"sequence length {length} exceeds {MAX_INPUT}")
    if entries is None:
        return np.fromstring(text, dtype=np.int64, sep=",")
    for start, stop, where in plain:
        entries[where] = np.fromstring(text[start:stop], dtype=np.int64, sep=",")
    return entries


# A run's count: what follows the first ^ of an item, up to its comma.
_RUN_COUNT = re.compile(r"\^([^,]*)")


def _entries_size(text: str) -> int:
    """The number of entries of the text, one per item and count - 1 more
    per run, with one ``int()`` per run a piece at a time; 0 if that is more
    than MAX_INPUT or a run count is not an int of at least 1.  Text that
    parses has exactly this many entries.  Text given 0 is refused, by its
    first bad item or by its length, and keeps no items on the way."""
    length = text.count(",") + 1
    try:
        for start, stop in _pieces(text):
            counts = list(map(int, _RUN_COUNT.findall(text, start, stop)))
            if min(counts, default=1) < 1:
                return 0
            length += sum(counts) - len(counts)
    except ValueError:
        return 0
    return length if length <= MAX_INPUT else 0


# Characters of text read at a time; a piece ends at a comma, so each is
# whole items and the check of a plain piece stays under 0.5 MB.
_PLAIN_PIECE = 1 << 15
# Items of at most 18 digits stay below 2**63, where np.fromstring is exact.
_PLAIN_DIGITS = 18


def _pieces(text: str) -> Iterator[tuple[int, int]]:
    """Bounds (start, stop) of pieces of the text that are whole items: a
    piece ends at the first comma at least _PLAIN_PIECE characters past its
    start, or at the end of the text."""
    start = 0
    while True:
        cut = text.find(",", start + _PLAIN_PIECE)
        if cut < 0:
            yield start, len(text)
            return
        yield start, cut
        start = cut + 1


def _plain_count(piece: str) -> int | None:
    """The number of items of a plain piece, or None for any other piece, of
    which np.fromstring could skip an empty item or saturate a long one."""
    import numpy as np

    if len(piece) > _PLAIN_PIECE + _PLAIN_DIGITS or not piece.isascii():
        return None  # a commaless stretch from _PLAIN_PIECE on is one long item
    data = piece.encode("ascii")
    if data.translate(None, b"0123456789,"):
        return None
    # Comma positions with one comma put at each end: an item is the gap
    # between two of them less one.
    commas = np.flatnonzero(np.frombuffer(b"," + data + b",", dtype=np.uint8) == ord(","))
    gaps = np.diff(commas)
    if gaps.min() < 2 or gaps.max() > _PLAIN_DIGITS + 1:
        return None
    return gaps.size


def format_runs(seq: DegreeSequence | BlockForm) -> str:
    """Render a sequence in run syntax: (4,4,1,1) -> '4^2,1^2'.  A canonical
    side passes the blocks it is built from."""
    blocks = seq if isinstance(seq, BlockForm) else to_blocks(seq)
    return ",".join(str(v) if c == 1 else f"{v}^{c}" for v, c in blocks.blocks)


def _json_runs(blocks: BlockForm) -> Iterator[str]:
    """A sequence given by its runs as a JSON array, one string repetition
    per run: O(n) bytes for n entries plus one Python step per run, one run
    held at a time.  A decreasing sequence with sum T has at most
    floor(sqrt(2T)) + 1 runs."""
    *head, (v, c) = blocks.blocks
    yield "["
    for w, k in head:
        yield f"{w}," * k
    yield f"{v}," * (c - 1)
    yield f"{v}]"


def _two_runs_json(first: str, left: BlockForm, second: str, right: BlockForm) -> Iterator[str]:
    """Two sequence members of a JSON object: '"first":[...],"second":[...]'."""
    yield f'"{first}":'
    yield from _json_runs(left)
    yield f',"{second}":'
    yield from _json_runs(right)


_JSON_BOOL = ("false", "true")  # indexed by a bool

# check-class --json up to E and F, one format per verdict shape (by branch),
# then the oracle's members.  The string members are fixed names, the
# Verdict and Branch values and MIN_TERM_NAMES, that JSON writes unescaped.
_PARAMS_JSON = '{"a":%d,"b":%d,"c":%d,"d":%d,"m":%d,"n":%d,"S":%d,'
_CLASS_JSON = {
    None: _PARAMS_JSON + '"nonempty":false,"verdict":"%s"',
    Branch.DEGENERATE_EQUAL_EXTREMES:
        _PARAMS_JSON + '"nonempty":true,"verdict":"%s","branch":"degenerate-equal-extremes"',
    Branch.GENERAL_INEQUALITY:
        _PARAMS_JSON + '"nonempty":true,"verdict":"%s","branch":"general-inequality",'
        '"r":%d,"s":%d,"p":%d,"q":%d,"lhs":%d,"rhs":%d,"min_term":%d,"min_term_argument":"%s",',
}
_ORACLE_JSON = ',"oracle_verdict":"%s","oracle_agrees":%s'

_DECOMPOSITION_LINE = "decomposition: r=%d s=%d p=%d q=%d\n"

SWEEP_FIELDS = ("a", "b", "c", "d", "m", "n", "S", "nonempty", "r", "s", "p", "q", "lhs", "rhs", "verdict")


def _sweep_formats(family: tuple[int, ...], as_json: bool, verify: bool) -> dict:
    """A sweep's row formats, one per verdict shape (by branch), each a CSV
    row or JSON object of SWEEP_FIELDS in order: the six fixed parameters
    written in, nonempty the shape's, S and the decomposition's numbers a %d
    and the verdict a %s.  A shape without a decomposition leaves its fields
    empty in CSV and out of JSON; --verify adds oracle_agrees at the end."""
    formats = {}
    for branch in (None, Branch.DEGENERATE_EQUAL_EXTREMES, Branch.GENERAL_INEQUALITY):
        cells = dict.fromkeys(SWEEP_FIELDS, "%d") | dict(zip(SWEEP_FIELDS, map(str, family)))
        cells.update(nonempty=_JSON_BOOL[branch is not None], verdict='"%s"' if as_json else "%s")
        if branch is not Branch.GENERAL_INEQUALITY:
            cells.update(dict.fromkeys(("r", "s", "p", "q", "lhs", "rhs")))
        if verify:
            cells["oracle_agrees"] = "%s"
        formats[branch] = ("{%s}\n" % ",".join(f'"{k}":{v}' for k, v in cells.items() if v is not None)
                           if as_json else ",".join(v or "" for v in cells.values()) + "\n")
    return formats


def _load_sequence(text: str, side: str, strict: bool) -> DegreeSequence:
    entries = parse_sequence_arg(text)
    seq, was_sorted = validate_sequence(entries, strict=strict)
    if was_sorted:
        print(f"note: {side} sequence was sorted into decreasing order", file=sys.stderr)
    return seq


def _load_pair(args):
    """Both sequences of check-pair/realize and their Gale-Ryser verdict."""
    e = _load_sequence(args.left, "left", args.strict)
    f = _load_sequence(args.right, "right", args.strict)
    return e, f, _bound("gale_ryser")(e, f)


def _edge_runs(real: BipartiteRealization) -> Iterator[tuple[int, list[str]]]:
    # Each run of right ends of one left vertex, with those ends as text: a
    # run's labels are one slice of a list of labels up to the largest right
    # end, not of every right vertex.  The runs' columns are read through
    # memoryviews, which make their ints one run at a time.
    runs = real.edge_runs
    labels = list(map(str, range(runs[:, 2].max(initial=0))))
    for u, lo, hi in zip(*map(memoryview, runs.T)):
        yield u, labels[lo:hi]


def _edges_text(real: BipartiteRealization) -> Iterator[str]:
    """An edge list as 'u v' lines, one piece per run."""
    for u, cols in _edge_runs(real):
        yield f"{u} " + f"\n{u} ".join(cols) + "\n"


def _edges_json(real: BipartiteRealization) -> Iterator[str]:
    """An edge list as the JSON member '"edges":[[u,v],...]', one piece per run."""
    yield '"edges":['
    comma = ""
    for u, cols in _edge_runs(real):
        yield f"{comma}[{u}," + f"],[{u},".join(cols) + "]"
        comma = ","
    yield "]"


def _pair_text(verdict, real: BipartiteRealization | None) -> Iterator[str]:
    """check-pair's answer as text: the verdict line, then the edge list of
    ``real`` unless that is None."""
    if verdict.graphic:
        yield "graphic\n"
    elif not verdict.sums_equal:
        yield "not graphic, sums differ\n"
    else:
        yield "not graphic, failing k=%d\n" % verdict.failing_k
    if real is not None:
        yield from _edges_text(real)


def _pair_json(e: DegreeSequence, f: DegreeSequence, verdict,
               real: BipartiteRealization | None) -> Iterator[str]:
    """check-pair's answer as one JSON object: both sides, the verdict, then
    the edge list of ``real`` unless that is None."""
    yield "{"
    yield from _two_runs_json("left", to_blocks(e), "right", to_blocks(f))
    yield ',"graphic":%s,"sums_equal":%s' % (_JSON_BOOL[verdict.graphic], _JSON_BOOL[verdict.sums_equal])
    if verdict.failing_k is not None:
        yield ',"failing_k":%d' % verdict.failing_k
    if real is not None:
        yield ","
        yield from _edges_json(real)
    yield "}\n"


def _params_from_args(args) -> ClassParams:
    return ClassParams(a=args.a, b=args.b, c=args.c, d=args.d, m=args.m, n=args.n, S=args.S)


def cmd_check_pair(args) -> int:
    e, f, verdict = _load_pair(args)
    real = _bound("realize")(e, f) if verdict.graphic and args.realize else None
    sys.stdout.writelines(_pair_json(e, f, verdict, real) if args.json else _pair_text(verdict, real))
    return EXIT_OK if verdict.graphic else EXIT_NEGATIVE


def cmd_realize(args) -> int:
    e, f, verdict = _load_pair(args)
    if not verdict.graphic:
        # A pair that is not graphic gets check-pair's answer.
        sys.stdout.writelines(_pair_json(e, f, verdict, None) if args.json else _pair_text(verdict, None))
        return EXIT_NEGATIVE
    real = _bound("realize")(e, f)
    sys.stdout.writelines(chain(["{"], _edges_json(real), ["}\n"]) if args.json else _edges_text(real))
    return EXIT_OK


def _run_oracle(params: ClassParams, report, budget: int | None):
    witness = _bound("brute_force_all_graphic")(params, budget=budget)
    agrees = witness.verdict.value == _EXPECTED_ORACLE[report.verdict]
    return witness, agrees


def _class_json(params: ClassParams, report: CriterionReport, pair, witness, agrees) -> Iterator[str]:
    if pair is None:
        yield _CLASS_JSON[report.branch] % (*params, report.verdict.value)
    else:
        yield _CLASS_JSON[report.branch] % (*params, report.verdict.value, *report.decomposition,
                                            *report[2:6])
        yield from _two_runs_json("E", pair.E_blocks, "F", pair.F_blocks)
    if witness is not None:
        yield _ORACLE_JSON % (witness.verdict.value, _JSON_BOOL[agrees])
        if (w := witness.witness) is not None:
            yield ',"witness":{'
            yield from _two_runs_json("left", to_blocks(w.left), "right", to_blocks(w.right))
            yield ',"failing_k":%d}' % w.failing_k
    yield "}\n"


def _class_text(params: ClassParams, report: CriterionReport, pair, witness, agrees) -> Iterator[str]:
    yield "class P(a=%d, b=%d, c=%d, d=%d, m=%d, n=%d, S=%d)\n" % params
    yield f"verdict: {report.verdict.value}\n"
    if report.branch is not None:
        yield f"branch: {report.branch.value}\n"
    if pair is not None:
        yield _DECOMPOSITION_LINE % report.decomposition
        yield (f"inequality: lhs = a*r + c*s = {report.lhs}; "
               f"rhs = S + r*s + min_term = {report.rhs}; "
               f"min term '{report.min_term_argument}' = {report.min_term}\n")
        yield f"canonical pair: E = {format_runs(pair.E_blocks)}  F = {format_runs(pair.F_blocks)}\n"
    if witness is not None:
        yield f"oracle: {witness.verdict.value} (agrees: {'yes' if agrees else 'NO'})"
        if (w := witness.witness) is not None:
            yield (f"; witness left={format_runs(w.left)} right={format_runs(w.right)} "
                   f"failing k={w.failing_k}")
        yield "\n"


def cmd_check_class(args) -> int:
    params = _params_from_args(args)
    report = theorem_main(params)
    witness = agrees = None
    if args.verify:
        witness, agrees = _run_oracle(params, report, args.budget)
    # Only the general branch prints the canonical pair, and only it builds one.
    dec = report.decomposition
    pair = _pair_from(params, dec) if dec is not None else None
    answer = (_class_json if args.json else _class_text)(params, report, pair, witness, agrees)
    sys.stdout.writelines(answer)
    if witness is not None and not agrees:
        print(
            f"error: criterion verdict {report.verdict.value} disagrees with "
            f"oracle verdict {witness.verdict.value} on {params}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return VERDICT_EXIT[report.verdict]


def _sweep_row(formats: dict, params: ClassParams, verify: bool, budget: int | None) -> str:
    report = theorem_main(params)
    dec = report.decomposition
    fields = (params.S, report.verdict.value) if dec is None else (
        params.S, *dec, report.lhs, report.rhs, report.verdict.value)
    if verify:
        fields += (_JSON_BOOL[_run_oracle(params, report, budget)[1]],)
    return formats[report.branch] % fields


def cmd_sweep(args) -> int:
    family = (args.a, args.b, args.c, args.d, args.m, args.n)
    span = s_range(*family)
    formats = _sweep_formats(family, args.format == "json", args.verify)
    rows = (_sweep_row(formats, ClassParams(*family, S), args.verify, args.budget) for S in span)
    if args.verify:
        # Every oracle run must succeed before the first line is written, so
        # a class above the budget leaves stdout empty rather than truncated.
        rows = list(rows)
    if args.format == "csv":
        rows = chain([",".join(SWEEP_FIELDS + ("oracle_agrees",) * args.verify) + "\n"], rows)
    sys.stdout.writelines(rows)
    return EXIT_OK


def cmd_canonical(args) -> int:
    params = _params_from_args(args)
    dec = decompose(params)
    pair = _pair_from(params, dec)
    if args.json:
        answer = chain(['{"r":%d,"s":%d,"p":%d,"q":%d,' % dec],
                       _two_runs_json("E", pair.E_blocks, "F", pair.F_blocks), ["}\n"])
    else:
        answer = [_DECOMPOSITION_LINE % dec, f"E = {format_runs(pair.E_blocks)}\n",
                  f"F = {format_runs(pair.F_blocks)}\n"]
    sys.stdout.writelines(answer)
    return EXIT_OK


def cmd_symmetric(args) -> int:
    a, b, m = args.a, args.b, args.m
    holds = symmetric_sufficient(a, b, m)
    lhs, rhs = 4 * m * b, (a + b) ** 2 - 1
    full = ()
    if args.full:
        # Each sum at which the class is not all graphic is written as it is
        # found, as ",S"; the first goes without its comma.
        sums = (f",{S}" for S in s_range(a, b, a, b, m, m)
                if theorem_main(ClassParams(a, b, a, b, m, m, S)).verdict is Verdict.NOT_ALL_GRAPHIC)
        first = next(sums, ",")[1:]
        full = (chain([',"not_all_graphic_S":[', first], sums, ["]"]) if args.json
                else chain(["not-all-graphic S values: ", first or "none"], sums, ["\n"]))
    if args.json:
        sys.stdout.writelines(chain(['{"a":%d,"b":%d,"m":%d,"holds":%s,"lhs":%d,"rhs":%d'
                                     % (a, b, m, _JSON_BOOL[holds], lhs, rhs)], full, ["}\n"]))
    else:
        sys.stdout.writelines(chain(["condition 4*m*b >= (a+b)^2 - 1: %s (%d vs %d)\n"
                                     % ("holds" if holds else "fails", lhs, rhs)], full))
    return EXIT_OK if holds else EXIT_NEGATIVE


def _add_sequence_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--left", required=True, help="left degree sequence, e.g. 4^2,1^2 or 4,4,1,1")
    sub.add_argument("--right", required=True, help="right degree sequence")
    sub.add_argument("--strict", action="store_true",
                     help="reject unsorted input instead of sorting it")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_class_opts(sub: argparse.ArgumentParser, with_sum: bool = True) -> None:
    sub.add_argument("-a", type=int, required=True, help="left maximum")
    sub.add_argument("-b", type=int, required=True, help="left minimum")
    sub.add_argument("-c", type=int, required=True, help="right maximum")
    sub.add_argument("-d", type=int, required=True, help="right minimum")
    sub.add_argument("-m", type=int, required=True, help="left length")
    sub.add_argument("-n", type=int, required=True, help="right length")
    if with_sum:
        sub.add_argument("-S", type=int, required=True, help="common sum")


class _CommandParser(argparse.ArgumentParser):
    """The top-level parser.  argparse's own pass over an argv classifies
    every argument after the command name against the top-level options and
    then hands all of them to the command's parser, which classifies them
    again.  That first pass is discarded work, and it cannot fail: the only
    top-level options are -h and --help, so any prefix matches at most one of
    them.  An argv whose first string is a command name therefore goes
    straight to that command's parser, and each argv is read once.  Anything
    else (help, an unknown or abbreviated command, an empty argv) takes
    argparse's own path, and ``parse_args`` still reports unrecognized
    arguments with the top-level usage line."""

    def add_subparsers(self, **kwargs):
        # The commands' parsers are plain ones: argparse would make them of
        # this class.
        kwargs.setdefault("parser_class", argparse.ArgumentParser)
        self._commands = super().add_subparsers(**kwargs)
        return self._commands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        command = self._commands.choices.get(args[0]) if args else None
        if command is None:
            return super().parse_known_args(args, namespace)
        dest = self._commands.dest
        if namespace is None:
            return command.parse_known_args(args[1:], argparse.Namespace(**{dest: args[0]}))
        # A caller's namespace is filled as the subparsers action fills it: the
        # command's parser fills a fresh one, which is copied over the caller's.
        parsed, extras = command.parse_known_args(args[1:])
        setattr(namespace, dest, args[0])
        for key, value in vars(parsed).items():
            setattr(namespace, key, value)
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _CommandParser(
        prog="bgseq",
        description="Bipartite graphicality of degree-sequence pairs and parameter classes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check-pair", help="test one pair of sequences")
    _add_sequence_opts(p)
    p.add_argument("--realize", action="store_true", help="also print an edge list when graphic")
    p.set_defaults(func=cmd_check_pair)

    p = commands.add_parser("check-class", help="closed-form test of a whole class")
    _add_class_opts(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verify", action="store_true",
                   help="also run the brute-force oracle and compare")
    p.add_argument("--budget", type=int, default=None,
                   help="override the oracle pair budget")
    p.set_defaults(func=cmd_check_class)

    p = commands.add_parser("sweep", help="evaluate the class for every compatible sum")
    _add_class_opts(p, with_sum=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--verify", action="store_true",
                   help="add an oracle_agrees column per row")
    p.add_argument("--budget", type=int, default=None,
                   help="override the oracle pair budget")
    p.set_defaults(func=cmd_sweep)

    p = commands.add_parser("canonical", help="print the extremal pair (E, F) of a class")
    _add_class_opts(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_canonical)

    p = commands.add_parser("realize", help="print an edge list realizing a graphic pair")
    _add_sequence_opts(p)
    p.set_defaults(func=cmd_realize)

    p = commands.add_parser("symmetric", help="sufficient condition for symmetric classes")
    p.add_argument("-a", type=int, required=True, help="maximum entry")
    p.add_argument("-b", type=int, required=True, help="minimum entry")
    p.add_argument("-m", type=int, required=True, help="sequence length")
    p.add_argument("--full", action="store_true",
                   help="also evaluate the class criterion for every compatible sum")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_symmetric)

    return parser


# Built by the first main() call and reused for the rest of the process.
# build_parser() itself still returns a fresh parser on every call.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OracleBudgetExceeded) as exc:
        # The one exception-to-exit-code table of every command: an empty
        # class is vacuous, anything else the input asked for is invalid.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VACUOUS if isinstance(exc, EmptyClass) else EXIT_INVALID


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout left before the whole answer was written.
        # stdout goes to os.devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the whole answer was written", file=sys.stderr)
        code = EXIT_INVALID
    sys.exit(code)


if __name__ == "__main__":
    console_main()
