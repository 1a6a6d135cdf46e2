"""Command-line surface: pair checks, class checks, sweeps, realizations.

Data goes to stdout, diagnostics to stderr.  Exit codes are table-driven per
command: 0 graphic / all-graphic / condition holds, 1 the mathematical
negative, 2 invalid input (the message names the violated hypothesis),
3 internal criterion/oracle disagreement, 4 vacuous (empty class).

numpy is imported where arrays are built: in the sequence parser and, on
first use, ``gale_ryser``, ``realize`` and ``brute_force_all_graphic``.  The
class commands without ``--verify`` never load it.  JSON answers are written
by ``_dump``, except a ``check-class`` answer: one format per verdict shape.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    what ``int()`` accepts, and a count is at least 1.  The text is read in
    one pass, piece by piece (see _pieces).  A plain piece (ASCII digits and
    commas, every item 1 to 18 digits) is counted by a few numpy steps and
    kept as its bounds; any other piece takes one ``int()`` per item, keeps
    no more than MAX_INPUT entries' worth of items, bounds a run by MAX_INPUT
    before it is expanded and names a bad item with its position.  The
    length is bounded by MAX_INPUT before anything sized by it is built.
    Plain text is then one ``np.fromstring`` (about 0.3 ms for 8,000 entries);
    other text fills one array piece by piece, a plain piece by one."""
    import numpy as np

    parts, length, wide = [], 0, False
    for start, stop in _pieces(text):
        count = _plain_count(text[start:stop])
        if count is not None:
            parts.append(slice(start, stop))
            length += count
            continue
        items = text[start:stop].split(",")
        values, counts = [], []
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
            if length <= MAX_INPUT:
                values.append(value)
                counts.append(count)
            elif not -(1 << 63) <= value < 1 << 63:
                wide = True
        try:
            parts.append(np.repeat(np.array(values, dtype=np.int64), counts))
        except OverflowError:
            wide = True
    if wide:
        raise LimitExceeded(f"entries must not exceed the supported bound {MAX_INPUT}")
    if length > MAX_INPUT:
        raise LimitExceeded(f"sequence length {length} exceeds {MAX_INPUT}")
    if all(isinstance(part, slice) for part in parts):
        return np.fromstring(text, dtype=np.int64, sep=",")
    entries, at = np.empty(length, dtype=np.int64), 0
    for part in parts:
        if isinstance(part, slice):
            part = np.fromstring(text[part], dtype=np.int64, sep=",")
        entries[at:at + part.size] = part
        at += part.size
    return entries


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


class _Raw(tuple):
    """A value already encoded as JSON, as pieces of text ``_dump`` writes."""


def _json_runs(blocks: BlockForm) -> _Raw:
    """A sequence given by its runs as a JSON array, one string repetition
    per run: O(n) bytes for n entries plus one Python step per run.  A
    decreasing sequence with sum T has at most floor(sqrt(2T)) + 1 runs."""
    *head, (v, c) = blocks.blocks
    return _Raw(("[", *(f"{w}," * k for w, k in head), f"{v}," * (c - 1), f"{v}]"))


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dump(obj: dict) -> None:
    """The JSON writer of pair, canonical, symmetric and sweep answers:
    compact separators, one answer a line on stdout.
    Each stretch of plain values between ``_Raw`` ones is one encoder call,
    and the pieces are written once, piece by piece, after the last is made:
    no output-sized list of Python ints or joined string is built, and an
    object with no ``_Raw`` value is a single encoder call."""
    parts, plain = ["{"], {}
    for key, value in obj.items():
        if isinstance(value, _Raw):
            if plain:
                parts += (_ENCODER.encode(plain)[1:-1], ",")
                plain = {}
            parts += (_ENCODER.encode(key), ":", *value, ",")
        else:
            plain[key] = value
    if plain:
        parts.append(_ENCODER.encode(plain)[1:] + "\n")
    else:
        parts[-1] = "}\n"
    sys.stdout.writelines(parts)


# check-class --json up to min_term_argument, one format per verdict shape (by
# branch), then the oracle's members.  The string members are fixed names, the
# Verdict and Branch values and MIN_TERM_NAMES, that JSON writes unescaped.
_PARAMS_JSON = '{"a":%d,"b":%d,"c":%d,"d":%d,"m":%d,"n":%d,"S":%d,'
_CLASS_JSON = {
    None: _PARAMS_JSON + '"nonempty":false,"verdict":"%s"',
    Branch.DEGENERATE_EQUAL_EXTREMES:
        _PARAMS_JSON + '"nonempty":true,"verdict":"%s","branch":"degenerate-equal-extremes"',
    Branch.GENERAL_INEQUALITY:
        _PARAMS_JSON + '"nonempty":true,"verdict":"%s","branch":"general-inequality",'
        '"r":%d,"s":%d,"p":%d,"q":%d,"lhs":%d,"rhs":%d,"min_term":%d,"min_term_argument":"%s"',
}
_ORACLE_JSON = ',"oracle_verdict":"%s","oracle_agrees":%s'

_DECOMPOSITION_LINE = "decomposition: r=%d s=%d p=%d q=%d"

SWEEP_FIELDS = ("a", "b", "c", "d", "m", "n", "S", "nonempty", "r", "s", "p", "q", "lhs", "rhs", "verdict")


def _class_fields(params: ClassParams, report: CriterionReport) -> dict:
    """Every field of a sweep row, in ``check-class --json`` key order; a
    field the row does not carry (the branch of a vacuous class, the
    decomposition and inequality off the general branch) is None."""
    dec = report.decomposition
    return {
        **dict(zip(SWEEP_FIELDS, params)),
        "nonempty": report.verdict is not Verdict.VACUOUS,
        "verdict": report.verdict.value,
        "branch": report.branch.value if report.branch is not None else None,
        **(dict.fromkeys("rspq") if dec is None else dict(zip("rspq", dec))),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "min_term": report.min_term,
        "min_term_argument": report.min_term_argument,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


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


def _verdict_line(verdict) -> str:
    if verdict.graphic:
        return "graphic"
    if not verdict.sums_equal:
        return "not graphic, sums differ"
    return f"not graphic, failing k={verdict.failing_k}"


def _pair_object(e: DegreeSequence, f: DegreeSequence, verdict) -> dict:
    obj = {
        "left": _json_runs(to_blocks(e)),
        "right": _json_runs(to_blocks(f)),
        "graphic": verdict.graphic,
        "sums_equal": verdict.sums_equal,
    }
    if verdict.failing_k is not None:
        obj["failing_k"] = verdict.failing_k
    return obj


def _edge_runs(real: BipartiteRealization) -> Iterator[tuple[int, list[str]]]:
    # Each run of right ends of one left vertex, with those ends as text: a
    # run's labels are one slice of a list of labels up to the largest right
    # end, not of every right vertex.  The runs' columns are read through
    # memoryviews, which make their ints one run at a time.
    runs = real.edge_runs
    labels = list(map(str, range(runs[:, 2].max(initial=0))))
    for u, lo, hi in zip(*map(memoryview, runs.T)):
        yield u, labels[lo:hi]


def _edges_json(real: BipartiteRealization) -> _Raw:
    parts = ["["]
    for u, cols in _edge_runs(real):
        parts += (f"[{u},", f"],[{u},".join(cols), "],")
    parts[-1] = "]]" if len(parts) > 1 else "[]"
    return _Raw(parts)


def _print_edges(real: BipartiteRealization) -> None:
    sys.stdout.writelines([f"{u} " + f"\n{u} ".join(cols) + "\n" for u, cols in _edge_runs(real)])


def _params_from_args(args) -> ClassParams:
    return ClassParams(a=args.a, b=args.b, c=args.c, d=args.d, m=args.m, n=args.n, S=args.S)


def cmd_check_pair(args) -> int:
    e, f, verdict = _load_pair(args)
    real = _bound("realize")(e, f) if verdict.graphic and args.realize else None
    if args.json:
        obj = _pair_object(e, f, verdict)
        if real is not None:
            obj["edges"] = _edges_json(real)
        _dump(obj)
    else:
        print(_verdict_line(verdict))
        if real is not None:
            _print_edges(real)
    return EXIT_OK if verdict.graphic else EXIT_NEGATIVE


def cmd_realize(args) -> int:
    e, f, verdict = _load_pair(args)
    if not verdict.graphic:
        if args.json:
            _dump(_pair_object(e, f, verdict))
        else:
            print(_verdict_line(verdict))
        return EXIT_NEGATIVE
    real = _bound("realize")(e, f)
    if args.json:
        _dump({"edges": _edges_json(real)})
    else:
        _print_edges(real)
    return EXIT_OK


def _run_oracle(params: ClassParams, report, budget: int | None):
    witness = _bound("brute_force_all_graphic")(params, budget=budget)
    agrees = witness.verdict.value == _EXPECTED_ORACLE[report.verdict]
    return witness, agrees


def cmd_check_class(args) -> int:
    params = _params_from_args(args)
    report = theorem_main(params)
    witness = agrees = None
    if args.verify:
        witness, agrees = _run_oracle(params, report, args.budget)
    # Only the general branch prints the canonical pair, and only it builds one.
    dec = report.decomposition
    pair = _pair_from(params, dec) if dec is not None else None

    if args.json:
        if pair is None:
            parts = [_CLASS_JSON[report.branch] % (*params, report.verdict.value)]
        else:
            parts = [_CLASS_JSON[report.branch] % (*params, report.verdict.value, *dec, *report[2:6]),
                     ',"E":', *_json_runs(pair.E_blocks), ',"F":', *_json_runs(pair.F_blocks)]
        if witness is not None:
            parts.append(_ORACLE_JSON % (witness.verdict.value, "true" if agrees else "false"))
            if (w := witness.witness) is not None:
                parts += (',"witness":', _ENCODER.encode(
                    {"left": list(w.left), "right": list(w.right), "failing_k": w.failing_k}))
        parts.append("}\n")
        sys.stdout.writelines(parts)
    else:
        print(f"class P(a={params.a}, b={params.b}, c={params.c}, d={params.d}, "
              f"m={params.m}, n={params.n}, S={params.S})")
        print(f"verdict: {report.verdict.value}")
        if report.branch is not None:
            print(f"branch: {report.branch.value}")
        if pair is not None:
            print(_DECOMPOSITION_LINE % dec)
            print(
                f"inequality: lhs = a*r + c*s = {report.lhs}; "
                f"rhs = S + r*s + min_term = {report.rhs}; "
                f"min term '{report.min_term_argument}' = {report.min_term}"
            )
            print(f"canonical pair: E = {format_runs(pair.E_blocks)}  "
                  f"F = {format_runs(pair.F_blocks)}")
        if witness is not None:
            line = f"oracle: {witness.verdict.value} (agrees: {'yes' if agrees else 'NO'})"
            if witness.witness is not None:
                w = witness.witness
                line += (f"; witness left={format_runs(w.left)} "
                         f"right={format_runs(w.right)} failing k={w.failing_k}")
            print(line)

    if witness is not None and not agrees:
        print(
            f"error: criterion verdict {report.verdict.value} disagrees with "
            f"oracle verdict {witness.verdict.value} on {params}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return VERDICT_EXIT[report.verdict]


def _sweep_row(params: ClassParams, verify: bool, budget: int | None) -> dict:
    report = theorem_main(params)
    row = _class_fields(params, report)
    if verify:
        row["oracle_agrees"] = _run_oracle(params, report, budget)[1]
    return row


def cmd_sweep(args) -> int:
    names = SWEEP_FIELDS + (("oracle_agrees",) if args.verify else ())
    span = s_range(args.a, args.b, args.c, args.d, args.m, args.n)
    rows = (_sweep_row(ClassParams(args.a, args.b, args.c, args.d, args.m, args.n, S),
                       args.verify, args.budget) for S in span)
    if args.verify:
        # Every oracle run must succeed before the first line is printed, so
        # a class above the budget leaves stdout empty rather than truncated.
        rows = list(rows)
    if args.format == "json":
        for row in rows:
            _dump({name: row[name] for name in names if row[name] is not None})
    else:
        print(",".join(names))
        for row in rows:
            print(",".join(_csv_cell(row[name]) for name in names))
    return EXIT_OK


def cmd_canonical(args) -> int:
    params = _params_from_args(args)
    dec = decompose(params)
    pair = _pair_from(params, dec)
    if args.json:
        _dump({**dec._asdict(), "E": _json_runs(pair.E_blocks), "F": _json_runs(pair.F_blocks)})
    else:
        print(_DECOMPOSITION_LINE % dec)
        print(f"E = {format_runs(pair.E_blocks)}")
        print(f"F = {format_runs(pair.F_blocks)}")
    return EXIT_OK


def cmd_symmetric(args) -> int:
    holds = symmetric_sufficient(args.a, args.b, args.m)
    lhs, rhs = 4 * args.m * args.b, (args.a + args.b) ** 2 - 1
    failures: list[int] = []
    if args.full:
        for S in s_range(args.a, args.b, args.a, args.b, args.m, args.m):
            params = ClassParams(args.a, args.b, args.a, args.b, args.m, args.m, S)
            if theorem_main(params).verdict is Verdict.NOT_ALL_GRAPHIC:
                failures.append(S)
    if args.json:
        obj = {"a": args.a, "b": args.b, "m": args.m, "holds": holds, "lhs": lhs, "rhs": rhs}
        if args.full:
            obj["not_all_graphic_S"] = failures
        _dump(obj)
    else:
        state = "holds" if holds else "fails"
        print(f"condition 4*m*b >= (a+b)^2 - 1: {state} ({lhs} vs {rhs})")
        if args.full:
            if failures:
                print("not-all-graphic S values: " + ",".join(map(str, failures)))
            else:
                print("not-all-graphic S values: none")
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
    sys.exit(main())


if __name__ == "__main__":
    console_main()
