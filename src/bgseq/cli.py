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
from dataclasses import dataclass
from typing import Iterator

from . import criterion
from .criterion import (
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
    class_nonempty,
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
    "SweepRow",
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


def parse_sequence_arg(text: str) -> list[int]:
    """Parse a comma-separated sequence with optional value^count runs,
    e.g. '4^2,1^2' for 4,4,1,1.  Raises LimitExceeded before expanding a run
    that would take the length above MAX_INPUT."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            if "^" not in token:
                out.append(int(token))
                continue
            value_s, count_s = token.split("^", 1)
            value, count = int(value_s), int(count_s)
            if count < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse sequence item {token!r} in {text!r}") from None
        if len(out) + count > MAX_INPUT:
            raise LimitExceeded(f"sequence length {len(out) + count} exceeds {MAX_INPUT}")
        out.extend([value] * count)
    if len(out) > MAX_INPUT:
        raise LimitExceeded(f"sequence length {len(out)} exceeds {MAX_INPUT}")
    return out


def format_runs(seq: DegreeSequence | BlockForm) -> str:
    """Render a sequence in run syntax: (4,4,1,1) -> '4^2,1^2'.  A canonical
    side passes the blocks it is built from."""
    blocks = seq if isinstance(seq, BlockForm) else to_blocks(seq)
    return ",".join(str(v) if c == 1 else f"{v}^{c}" for v, c in blocks.blocks)


class _Raw(str):
    """A value already encoded as JSON, which ``_dumps`` splices in as is."""


def _json_runs(blocks: BlockForm) -> _Raw:
    """A sequence given by its runs as a JSON array, one string repetition
    per run."""
    return _Raw("[" + "".join(f"{v}," * c for v, c in blocks.blocks)[:-1] + "]")


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dumps(obj: dict) -> str:
    """The one JSON codec: compact separators.  Each stretch of plain values
    between ``_Raw`` ones is one encoder call and the ``_Raw`` text is
    copied in, so no output-sized list of Python ints is built; an object
    with no ``_Raw`` value is a single encoder call."""
    parts, plain = [], {}
    for key, value in obj.items():
        if isinstance(value, _Raw):
            if plain:
                parts.append(_ENCODER.encode(plain)[1:-1])
                plain = {}
            parts.append(f"{_ENCODER.encode(key)}:{value}")
        else:
            plain[key] = value
    if plain:
        parts.append(_ENCODER.encode(plain)[1:-1])
    return "{" + ",".join(parts) + "}"


SWEEP_FIELDS = ("a", "b", "c", "d", "m", "n", "S", "nonempty", "r", "s", "p", "q", "lhs", "rhs", "verdict")


@dataclass(frozen=True)
class SweepRow:
    """One S value of a sweep.  Vacuous rows carry no decomposition or
    inequality fields; ``oracle_agrees`` exists only under --verify."""

    a: int
    b: int
    c: int
    d: int
    m: int
    n: int
    S: int
    nonempty: bool
    r: int | None
    s: int | None
    p: int | None
    q: int | None
    lhs: int | None
    rhs: int | None
    verdict: str
    oracle_agrees: bool | None = None

    def to_csv(self) -> str:
        names = _row_fields(self.oracle_agrees is not None)
        return ",".join(_csv_cell(getattr(self, name)) for name in names)

    @classmethod
    def from_csv(cls, line: str, verify: bool = False) -> "SweepRow":
        cells = line.rstrip("\n").split(",")
        names = _row_fields(verify)
        if len(cells) != len(names):
            raise ValueError(f"expected {len(names)} cells, got {len(cells)}")
        return cls(**{name: _cell_value(cell) for name, cell in zip(names, cells)})

    def to_json(self) -> str:
        obj = {}
        for name in _row_fields(True):
            value = getattr(self, name)
            if value is not None:
                obj[name] = value
        return _dumps(obj)

    @classmethod
    def from_json(cls, line: str) -> "SweepRow":
        obj = json.loads(line)
        return cls(**{name: obj.get(name) for name in _row_fields(True)})


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cell_value(cell: str):
    # Inverse of _csv_cell: an empty cell is an absent field; the verdict is
    # the only text cell, so anything not boolean or integer is kept as text.
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return int(cell)
    except ValueError:
        return cell


def _row_fields(verify: bool) -> tuple[str, ...]:
    return SWEEP_FIELDS + (("oracle_agrees",) if verify else ())


def sweep_header(verify: bool) -> str:
    return ",".join(_row_fields(verify))


def build_sweep_row(params: ClassParams, report, oracle_agrees: bool | None = None) -> SweepRow:
    dec = report.decomposition
    return SweepRow(
        a=params.a,
        b=params.b,
        c=params.c,
        d=params.d,
        m=params.m,
        n=params.n,
        S=params.S,
        nonempty=report.verdict is not Verdict.VACUOUS,
        r=dec.r if dec else None,
        s=dec.s if dec else None,
        p=dec.p if dec else None,
        q=dec.q if dec else None,
        lhs=report.lhs,
        rhs=report.rhs,
        verdict=report.verdict.value,
        oracle_agrees=oracle_agrees,
    )


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
        "left": list(e),
        "right": list(f),
        "graphic": verdict.graphic,
        "sums_equal": verdict.sums_equal,
    }
    if verdict.failing_k is not None:
        obj["failing_k"] = verdict.failing_k
    return obj


def _edge_rows(real: BipartiteRealization) -> Iterator[tuple[int, Iterator[str]]]:
    # Each left vertex that has edges, with its right ends as text, in order:
    # realize returns the rows sorted, so one slice per left vertex.  Each
    # right label is formatted once and looked up.
    right = real.edges[:, 1]
    label = list(map(str, range(len(real.right_degrees) + 1))).__getitem__
    start = 0
    for u, deg in enumerate(real.left_degrees.values.tolist(), 1):
        if deg:
            yield u, map(label, right[start:start + deg].tolist())
            start += deg


def _edges_json(real: BipartiteRealization) -> _Raw:
    return _Raw("[" + ",".join(f"[{u}," + f"],[{u},".join(cols) + "]"
                               for u, cols in _edge_rows(real)) + "]")


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

    if args.json:
        obj = {
            "a": params.a,
            "b": params.b,
            "c": params.c,
            "d": params.d,
            "m": params.m,
            "n": params.n,
            "S": params.S,
            "nonempty": class_nonempty(params),
            "verdict": report.verdict.value,
        }
        if report.branch is not None:
            obj["branch"] = report.branch.value
        if report.decomposition is not None:
            dec = report.decomposition
            obj.update(r=dec.r, s=dec.s, p=dec.p, q=dec.q)
            obj.update(
                lhs=report.lhs,
                rhs=report.rhs,
                min_term=report.min_term,
                min_term_argument=report.min_term_argument,
            )
            obj["E"] = _json_runs(pair.E_blocks)
            obj["F"] = _json_runs(pair.F_blocks)
        if witness is not None:
            obj["oracle_verdict"] = witness.verdict.value
            obj["oracle_agrees"] = agrees
            if witness.witness is not None:
                obj["witness"] = {
                    "left": list(witness.witness.left),
                    "right": list(witness.witness.right),
                    "failing_k": witness.witness.failing_k,
                }
        print(_dumps(obj))
    else:
        print(f"class P(a={params.a}, b={params.b}, c={params.c}, d={params.d}, "
              f"m={params.m}, n={params.n}, S={params.S})")
        print(f"verdict: {report.verdict.value}")
        if report.branch is not None:
            print(f"branch: {report.branch.value}")
        if report.decomposition is not None:
            dec = report.decomposition
            print(f"decomposition: r={dec.r} s={dec.s} p={dec.p} q={dec.q}")
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


def _sweep_row(params: ClassParams, verify: bool, budget: int | None) -> SweepRow:
    report = theorem_main(params)
    agrees = _run_oracle(params, report, budget)[1] if verify else None
    return build_sweep_row(params, report, agrees)


def cmd_sweep(args) -> int:
    span = s_range(args.a, args.b, args.c, args.d, args.m, args.n)
    rows = (_sweep_row(ClassParams(args.a, args.b, args.c, args.d, args.m, args.n, S),
                       args.verify, args.budget) for S in span)
    if args.verify:
        # Every oracle run must succeed before the first line is printed, so
        # a class above the budget leaves stdout empty rather than truncated.
        rows = list(rows)
    as_json = args.format == "json"
    if not as_json:
        print(sweep_header(args.verify))
    for row in rows:
        print(row.to_json() if as_json else row.to_csv())
    return EXIT_OK


def cmd_canonical(args) -> int:
    params = _params_from_args(args)
    dec = decompose(params)
    pair = criterion.canonical_pair(params)
    if args.json:
        obj = {
            "r": dec.r,
            "s": dec.s,
            "p": dec.p,
            "q": dec.q,
            "E": _json_runs(pair.E_blocks),
            "F": _json_runs(pair.F_blocks),
        }
        print(_dumps(obj))
    else:
        print(f"decomposition: r={dec.r} s={dec.s} p={dec.p} q={dec.q}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
