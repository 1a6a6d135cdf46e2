"""Command-line surface: pair checks, class checks, sweeps, realizations.

Data goes to stdout, diagnostics to stderr.  Exit codes are table-driven per
command: 0 graphic / all-graphic / condition holds, 1 the mathematical
negative, 2 invalid input (the message names the violated hypothesis),
3 internal criterion/oracle disagreement, 4 vacuous (empty class).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

import numpy as np

from . import criterion
from .criterion import (
    CanonicalDecomposition,
    CriterionReport,
    EmptyClass,
    Verdict,
    decompose,
    symmetric_sufficient,
    theorem_main,
)
from .enumeration import (
    OracleBudgetExceeded,
    OracleVerdict,
    brute_force_all_graphic,
)
from .galeryser import BipartiteRealization, gale_ryser, realize
from .seqcore import (
    MAX_INPUT,
    BlockForm,
    ClassParams,
    DegreeSequence,
    LimitExceeded,
    s_range,
    to_blocks,
    validate_sequence,
)

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

# Which oracle outcome each criterion verdict must match under --verify.
_EXPECTED_ORACLE = {
    Verdict.ALL_GRAPHIC: OracleVerdict.ALL_GRAPHIC,
    Verdict.NOT_ALL_GRAPHIC: OracleVerdict.FOUND_NON_GRAPHIC,
    Verdict.VACUOUS: OracleVerdict.EMPTY,
}


def parse_sequence_arg(text: str) -> np.ndarray:
    """Parse a comma-separated sequence with optional value^count runs,
    e.g. '4^2,1^2' for 4,4,1,1, into an int64 array.  Values and counts are
    what ``int()`` accepts, and a count is at least 1.  Plain text (ASCII
    digits and commas, every item 1 to 18 digits) costs a few numpy steps
    to recognise and one ``np.fromstring`` to read, about 0.3 ms for 8,000
    entries (32 KB), and its length is bounded by MAX_INPUT before anything
    sized by it is built.  Any other text takes one ``int()`` per item, keeps
    no more than MAX_INPUT entries' worth of items, and bounds a run by
    MAX_INPUT before it is expanded; a bad item is named with its position."""
    length = _plain_length(text)
    if length is None:
        return _parse_items(text)
    if length > MAX_INPUT:
        raise LimitExceeded(f"sequence length {length} exceeds {MAX_INPUT}")
    # The gate is what makes this exact: np.fromstring saturates numbers
    # beyond int64 and skips an empty item, where int() refuses both.
    return np.fromstring(text, dtype=np.int64, sep=",")


# Characters of plain text the gate encodes at a time; a piece ends at a
# comma, so each is whole items and the gate's memory stays under 0.5 MB.
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


def _plain_length(text: str) -> int | None:
    """The number of items of plain text (see parse_sequence_arg), or None
    for any other text."""
    if not text.isascii():
        return None
    length = 0
    for start, stop in _pieces(text):
        if stop - start > _PLAIN_PIECE + _PLAIN_DIGITS:
            return None  # the commaless stretch from start + _PLAIN_PIECE is one long item
        piece = text[start:stop].encode("ascii")
        if piece.translate(None, b"0123456789,"):
            return None
        # Comma positions with one comma put at each end: an item is the
        # gap between two of them less one.
        commas = np.flatnonzero(np.frombuffer(b"," + piece + b",", dtype=np.uint8) == ord(","))
        gaps = np.diff(commas)
        if gaps.min() < 2 or gaps.max() > _PLAIN_DIGITS + 1:
            return None
        length += gaps.size
    return length


def _parse_items(text: str) -> np.ndarray:
    # Item by item in input order, one piece of the text at a time: the
    # first bad item is named by its position, and a run that would take the
    # length above MAX_INPUT raises before it is expanded.  Items are kept
    # only while the length is within MAX_INPUT, so nothing sized beyond the
    # bound is built; later ones are still parsed, and an entry beyond int64
    # among them is still refused as one.  A piece's items go to int64 at its end.
    runs, length, wide, done = [], 0, False, 0
    for start, stop in _pieces(text):
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
                index = done + items.index(item) + 1
                raise ValueError(f"cannot parse sequence item {item.strip()!r} (item {index})") from None
            if mark and length + count > MAX_INPUT:
                raise LimitExceeded(f"sequence length {length + count} exceeds {MAX_INPUT}")
            length += count
            if length <= MAX_INPUT:
                values.append(value)
                counts.append(count)
            elif not -(1 << 63) <= value < 1 << 63:
                wide = True
        done += len(items)
        try:
            runs.append(np.repeat(np.array(values, dtype=np.int64), counts))
        except OverflowError:
            wide = True
    if wide:
        raise LimitExceeded(f"entries must not exceed the supported bound {MAX_INPUT}")
    if length > MAX_INPUT:
        raise LimitExceeded(f"sequence length {length} exceeds {MAX_INPUT}")
    return np.concatenate(runs)


def format_runs(seq: DegreeSequence | BlockForm) -> str:
    """Render a sequence in run syntax: (4,4,1,1) -> '4^2,1^2'.  A canonical
    side passes the blocks it is built from."""
    blocks = seq if isinstance(seq, BlockForm) else to_blocks(seq)
    return ",".join(str(v) if c == 1 else f"{v}^{c}" for v, c in blocks.blocks)


class _Raw(tuple):
    """A value already encoded as JSON, as pieces of text ``_dumps`` copies in."""


def _json_runs(blocks: BlockForm) -> _Raw:
    """A sequence given by its runs as a JSON array, one string repetition
    per run."""
    *head, (v, c) = blocks.blocks
    return _Raw(("[", *(f"{w}," * k for w, k in head), f"{v}," * (c - 1), f"{v}]"))


def _json_ints(values: np.ndarray) -> _Raw:
    """A nonempty array of entries in [0, MAX_INPUT] as a JSON array.  The
    text is laid out in numpy as one row of bytes per entry: its digits
    right-aligned, NUL for each leading zero, then a comma (the last row's
    is the closing bracket); one ``bytes.translate`` drops the NULs.  That
    is O(n·w) numpy steps for n entries of at most w digits, about 0.2 ms
    for 8,000 entries."""
    rest = values.astype(np.uint32)  # exact: entries are at most MAX_INPUT
    width = len(str(rest.max()))
    cells = np.empty((rest.size, width + 1), dtype=np.uint8)
    cells[:, width] = ord(",")
    cells[-1, width] = ord("]")
    cells[:, width - 1] = rest % 10 + ord("0")
    for col in range(width - 2, -1, -1):
        rest //= 10
        cells[:, col] = np.where(rest, rest % 10 + ord("0"), 0)
    return _Raw(("[", cells.tobytes().translate(None, b"\0").decode("ascii")))


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dumps(obj: dict) -> str:
    """The one JSON codec: compact separators.  Each stretch of plain values
    between ``_Raw`` ones is one encoder call, and all pieces are joined
    once, so no output-sized list of Python ints is built and the answer is
    copied once; an object with no ``_Raw`` value is a single encoder call."""
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
        parts.append(_ENCODER.encode(plain)[1:])
    else:
        parts[-1] = "}"
    return "".join(parts)


SWEEP_FIELDS = ("a", "b", "c", "d", "m", "n", "S", "nonempty", "r", "s", "p", "q", "lhs", "rhs", "verdict")


def _decomposition_fields(dec: CanonicalDecomposition | None) -> dict:
    return dict(r=dec.r, s=dec.s, p=dec.p, q=dec.q) if dec is not None else dict.fromkeys("rspq")


def _decomposition_line(fields: dict) -> str:
    return "decomposition: " + " ".join(f"{name}={fields[name]}" for name in "rspq")


def _class_fields(params: ClassParams, report: CriterionReport) -> dict:
    """Every field of a class answer, in ``check-class --json`` key order;
    a field the answer does not carry (the branch of a vacuous class, the
    decomposition and inequality off the general branch) is None."""
    return {
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "d": params.d,
        "m": params.m,
        "n": params.n,
        "S": params.S,
        "nonempty": report.verdict is not Verdict.VACUOUS,
        "verdict": report.verdict.value,
        "branch": report.branch.value if report.branch is not None else None,
        **_decomposition_fields(report.decomposition),
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
    return e, f, gale_ryser(e, f)


def _verdict_line(verdict) -> str:
    if verdict.graphic:
        return "graphic"
    if not verdict.sums_equal:
        return "not graphic, sums differ"
    return f"not graphic, failing k={verdict.failing_k}"


def _pair_object(e: DegreeSequence, f: DegreeSequence, verdict) -> dict:
    obj = {
        "left": _json_ints(e.values),
        "right": _json_ints(f.values),
        "graphic": verdict.graphic,
        "sums_equal": verdict.sums_equal,
    }
    if verdict.failing_k is not None:
        obj["failing_k"] = verdict.failing_k
    return obj


def _edge_rows(real: BipartiteRealization) -> Iterator[tuple[int, list[str]]]:
    # Each left vertex that has edges, with its right ends as text: realize
    # returns the rows sorted, so one slice per left vertex, whose labels
    # come from one index into a table of right labels.
    labels = np.array(list(map(str, range(len(real.right_degrees) + 1))), dtype=object)
    right = real.edges[:, 1]
    start = 0
    for u, deg in enumerate(real.left_degrees.values.tolist(), 1):
        if deg:
            yield u, labels[right[start:start + deg]].tolist()
            start += deg


def _edges_json(real: BipartiteRealization) -> _Raw:
    parts = ["["]
    for u, cols in _edge_rows(real):
        parts += (f"[{u},", f"],[{u},".join(cols), "],")
    parts[-1] = "]]" if len(parts) > 1 else "[]"
    return _Raw(parts)


def _print_edges(real: BipartiteRealization) -> None:
    if real.edges.size:
        print("\n".join(f"{u} " + f"\n{u} ".join(cols) for u, cols in _edge_rows(real)))


def _params_from_args(args) -> ClassParams:
    return ClassParams(a=args.a, b=args.b, c=args.c, d=args.d, m=args.m, n=args.n, S=args.S)


def cmd_check_pair(args) -> int:
    e, f, verdict = _load_pair(args)
    real = realize(e, f) if verdict.graphic and args.realize else None
    if args.json:
        obj = _pair_object(e, f, verdict)
        if real is not None:
            obj["edges"] = _edges_json(real)
        print(_dumps(obj))
    else:
        print(_verdict_line(verdict))
        if real is not None:
            _print_edges(real)
    return EXIT_OK if verdict.graphic else EXIT_NEGATIVE


def cmd_realize(args) -> int:
    e, f, verdict = _load_pair(args)
    if not verdict.graphic:
        print(_dumps(_pair_object(e, f, verdict)) if args.json else _verdict_line(verdict))
        return EXIT_NEGATIVE
    real = realize(e, f)
    if args.json:
        print(_dumps({"edges": _edges_json(real)}))
    else:
        _print_edges(real)
    return EXIT_OK


def _run_oracle(params: ClassParams, report, budget: int | None):
    witness = brute_force_all_graphic(params, budget=budget)
    agrees = witness.verdict is _EXPECTED_ORACLE[report.verdict]
    return witness, agrees


def cmd_check_class(args) -> int:
    params = _params_from_args(args)
    report = theorem_main(params)
    witness = agrees = None
    if args.verify:
        witness, agrees = _run_oracle(params, report, args.budget)
    # Only the general branch prints the canonical pair, and only it builds one.
    pair = criterion.canonical_pair(params) if report.decomposition is not None else None
    fields = _class_fields(params, report)

    if args.json:
        if pair is not None:
            fields.update(E=_json_runs(pair.E_blocks), F=_json_runs(pair.F_blocks))
        if witness is not None:
            w = witness.witness
            fields.update(
                oracle_verdict=witness.verdict.value,
                oracle_agrees=agrees,
                witness=None if w is None else {
                    "left": list(w.left), "right": list(w.right), "failing_k": w.failing_k,
                },
            )
        print(_dumps({name: value for name, value in fields.items() if value is not None}))
    else:
        print(f"class P(a={params.a}, b={params.b}, c={params.c}, d={params.d}, "
              f"m={params.m}, n={params.n}, S={params.S})")
        print(f"verdict: {report.verdict.value}")
        if report.branch is not None:
            print(f"branch: {report.branch.value}")
        if pair is not None:
            print(_decomposition_line(fields))
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
            print(_dumps({name: row[name] for name in names if row[name] is not None}))
    else:
        print(",".join(names))
        for row in rows:
            print(",".join(_csv_cell(row[name]) for name in names))
    return EXIT_OK


def cmd_canonical(args) -> int:
    params = _params_from_args(args)
    fields = _decomposition_fields(decompose(params))
    pair = criterion.canonical_pair(params)
    if args.json:
        print(_dumps({**fields, "E": _json_runs(pair.E_blocks), "F": _json_runs(pair.F_blocks)}))
    else:
        print(_decomposition_line(fields))
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
        print(_dumps(obj))
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
        # As the subparsers action does: the command's parser fills a fresh
        # namespace, which is copied over the caller's.
        parsed, extras = command.parse_known_args(args[1:])
        namespace = argparse.Namespace() if namespace is None else namespace
        setattr(namespace, self._commands.dest, args[0])
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
