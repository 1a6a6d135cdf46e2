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

from .criterion import (
    DegenerateClass,
    EmptyClass,
    Verdict,
    canonical_pair,
    decompose,
    symmetric_sufficient,
    theorem_main,
)
from .enumeration import (
    ClassWitness,
    OracleBudgetExceeded,
    OracleVerdict,
    brute_force_all_graphic,
)
from .galeryser import gale_ryser, realize
from .seqcore import (
    MAX_INPUT,
    ClassParams,
    DegreeSequence,
    LimitExceeded,
    class_nonempty,
    s_range,
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


def format_runs(seq: DegreeSequence) -> str:
    """Render a sequence in run syntax: (4,4,1,1) -> '4^2,1^2'."""
    parts = []
    values = list(seq)
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        parts.append(str(values[i]) if j - i == 1 else f"{values[i]}^{j - i}")
        i = j
    return ",".join(parts)


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
        cells = [_csv_cell(getattr(self, name)) for name in SWEEP_FIELDS]
        if self.oracle_agrees is not None:
            cells.append(_csv_cell(self.oracle_agrees))
        return ",".join(cells)

    @classmethod
    def from_csv(cls, line: str, verify: bool = False) -> "SweepRow":
        cells = line.rstrip("\n").split(",")
        expected = len(SWEEP_FIELDS) + (1 if verify else 0)
        if len(cells) != expected:
            raise ValueError(f"expected {expected} cells, got {len(cells)}")
        values = dict(zip(SWEEP_FIELDS, cells))
        return cls(
            a=int(values["a"]),
            b=int(values["b"]),
            c=int(values["c"]),
            d=int(values["d"]),
            m=int(values["m"]),
            n=int(values["n"]),
            S=int(values["S"]),
            nonempty=_csv_bool(values["nonempty"]),
            r=_csv_opt_int(values["r"]),
            s=_csv_opt_int(values["s"]),
            p=_csv_opt_int(values["p"]),
            q=_csv_opt_int(values["q"]),
            lhs=_csv_opt_int(values["lhs"]),
            rhs=_csv_opt_int(values["rhs"]),
            verdict=values["verdict"],
            oracle_agrees=_csv_bool(cells[-1]) if verify else None,
        )

    def to_json(self) -> str:
        obj = {}
        for name in SWEEP_FIELDS:
            value = getattr(self, name)
            if value is not None:
                obj[name] = value
        if self.oracle_agrees is not None:
            obj["oracle_agrees"] = self.oracle_agrees
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "SweepRow":
        obj = json.loads(line)
        return cls(
            a=obj["a"],
            b=obj["b"],
            c=obj["c"],
            d=obj["d"],
            m=obj["m"],
            n=obj["n"],
            S=obj["S"],
            nonempty=obj["nonempty"],
            r=obj.get("r"),
            s=obj.get("s"),
            p=obj.get("p"),
            q=obj.get("q"),
            lhs=obj.get("lhs"),
            rhs=obj.get("rhs"),
            verdict=obj["verdict"],
            oracle_agrees=obj.get("oracle_agrees"),
        )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_bool(cell: str) -> bool:
    if cell == "true":
        return True
    if cell == "false":
        return False
    raise ValueError(f"expected true/false, got {cell!r}")


def _csv_opt_int(cell: str) -> int | None:
    return int(cell) if cell else None


def sweep_header(verify: bool) -> str:
    fields = SWEEP_FIELDS + (("oracle_agrees",) if verify else ())
    return ",".join(fields)


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


def _params_from_args(args) -> ClassParams:
    return ClassParams(a=args.a, b=args.b, c=args.c, d=args.d, m=args.m, n=args.n, S=args.S)


def cmd_check_pair(args) -> int:
    try:
        e = _load_sequence(args.left, "left", args.strict)
        f = _load_sequence(args.right, "right", args.strict)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    verdict = gale_ryser(e, f)
    edges = None
    if verdict.graphic and args.realize:
        edges = sorted(realize(e, f).edges)
    if args.json:
        obj = {
            "left": list(e),
            "right": list(f),
            "graphic": verdict.graphic,
            "sums_equal": verdict.sums_equal,
        }
        if verdict.failing_k is not None:
            obj["failing_k"] = verdict.failing_k
        if edges is not None:
            obj["edges"] = [list(edge) for edge in edges]
        print(json.dumps(obj, separators=(",", ":")))
    else:
        if verdict.graphic:
            print("graphic")
        elif not verdict.sums_equal:
            print("not graphic, sums differ")
        else:
            print(f"not graphic, failing k={verdict.failing_k}")
        if edges is not None:
            for u, v in edges:
                print(f"{u} {v}")
    return EXIT_OK if verdict.graphic else EXIT_NEGATIVE


def _run_oracle(params: ClassParams, report, budget: int | None):
    witness = brute_force_all_graphic(params, budget=budget)
    agrees = witness.verdict is _EXPECTED_ORACLE[report.verdict]
    return witness, agrees


def cmd_check_class(args) -> int:
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = theorem_main(params)
    witness = agrees = None
    if args.verify:
        try:
            witness, agrees = _run_oracle(params, report, args.budget)
        except (OracleBudgetExceeded, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID

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
            obj["E"] = list(report.canonical.E)
            obj["F"] = list(report.canonical.F)
        if witness is not None:
            obj["oracle_verdict"] = witness.verdict.value
            obj["oracle_agrees"] = agrees
            if witness.witness is not None:
                obj["witness"] = {
                    "left": list(witness.witness.left),
                    "right": list(witness.witness.right),
                    "failing_k": witness.witness.failing_k,
                }
        print(json.dumps(obj, separators=(",", ":")))
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
            print(f"canonical pair: E = {format_runs(report.canonical.E)}  "
                  f"F = {format_runs(report.canonical.F)}")
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


def _sum_range(a: int, b: int, c: int, d: int, m: int, n: int) -> range:
    """s_range, refused with LimitExceeded when its sums pass MAX_INPUT, so
    that no caller starts iterating a range it cannot finish."""
    span = s_range(a, b, c, d, m, n)
    if span and span[-1] > MAX_INPUT:
        raise LimitExceeded(f"sums up to {span[-1]} exceed the supported bound {MAX_INPUT}")
    return span


def cmd_sweep(args) -> int:
    try:
        span = _sum_range(args.a, args.b, args.c, args.d, args.m, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    as_json = args.format == "json"
    if not as_json:
        print(sweep_header(args.verify))
    for S in span:
        params = ClassParams(args.a, args.b, args.c, args.d, args.m, args.n, S)
        report = theorem_main(params)
        agrees = None
        if args.verify:
            try:
                _, agrees = _run_oracle(params, report, args.budget)
            except (OracleBudgetExceeded, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INVALID
        row = build_sweep_row(params, report, agrees)
        print(row.to_json() if as_json else row.to_csv())
    return EXIT_OK


def cmd_canonical(args) -> int:
    try:
        params = _params_from_args(args)
        dec = decompose(params)
        pair = canonical_pair(params)
    except (DegenerateClass,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EmptyClass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VACUOUS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.json:
        obj = {
            "r": dec.r,
            "s": dec.s,
            "p": dec.p,
            "q": dec.q,
            "E": list(pair.E),
            "F": list(pair.F),
        }
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(f"decomposition: r={dec.r} s={dec.s} p={dec.p} q={dec.q}")
        print(f"E = {format_runs(pair.E)}")
        print(f"F = {format_runs(pair.F)}")
    return EXIT_OK


def cmd_realize(args) -> int:
    try:
        e = _load_sequence(args.left, "left", args.strict)
        f = _load_sequence(args.right, "right", args.strict)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    verdict = gale_ryser(e, f)
    if not verdict.graphic:
        if verdict.sums_equal:
            print(f"not graphic, failing k={verdict.failing_k}")
        else:
            print("not graphic, sums differ")
        return EXIT_NEGATIVE
    edges = sorted(realize(e, f).edges)
    if args.json:
        print(json.dumps({"edges": [list(edge) for edge in edges]}, separators=(",", ":")))
    else:
        for u, v in edges:
            print(f"{u} {v}")
    return EXIT_OK


def cmd_symmetric(args) -> int:
    try:
        holds = symmetric_sufficient(args.a, args.b, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    lhs, rhs = 4 * args.m * args.b, (args.a + args.b) ** 2 - 1
    failures: list[int] = []
    if args.full:
        try:
            for S in _sum_range(args.a, args.b, args.a, args.b, args.m, args.m):
                params = ClassParams(args.a, args.b, args.a, args.b, args.m, args.m, S)
                if theorem_main(params).verdict is Verdict.NOT_ALL_GRAPHIC:
                    failures.append(S)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
    if args.json:
        obj = {"a": args.a, "b": args.b, "m": args.m, "holds": holds, "lhs": lhs, "rhs": rhs}
        if args.full:
            obj["not_all_graphic_S"] = failures
        print(json.dumps(obj, separators=(",", ":")))
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
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
