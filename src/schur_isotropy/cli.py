"""Command line front end: dimensions, decisions, oracle queries, and sweeps.

A command is one COMMANDS entry (help line, ARGUMENTS groups, handler) plus its
branch in schemas/output.schema.json.  run prints the handler's Output as an
aligned table (default) or a JSON envelope (--json), byte-deterministic for
identical argv: big integers are decimal strings, timing_ms stays 0 unless
--timing is given, and help and usage errors wrap at 78 columns whatever the
terminal width.  A handler whose layer the package import leaves out
(proofs, sympoly) imports it in its body, so a command compiles only what it runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple, Sequence

from .errors import DEFAULT_ENUMERATION_CAP, DEFAULT_TERM_CAP, DomainError
from .isotropy import _least_isotropic, decide, run_sweep
from .partitions import Partition, parse_partition

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_DISAGREEMENT = 3


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _least_int(text: str, least: int, kind: str) -> int:
    """int(text) when it is at least ``least``; argparse prints the message
    of any other text as the argument's usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {text!r}"
        ) from None
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _least_int(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _least_int(text, 0, "nonnegative")


# (group, flag, add_argument options) in usage order; a command takes the
# groups its COMMANDS entry names, and the output group
ARGUMENTS = [
    ("lambda", "--lambda", dict(
        dest="lam", type=_partition_arg, required=True, metavar="PARTS",
        help="shape as a weakly decreasing comma list, e.g. 2,1")),
    ("k", "--k", dict(
        type=_positive_int, required=True, help="dimension of the sought subspace")),
    ("n", "--n", dict(
        type=_nonnegative_int, required=True, help="dimension of the ambient space")),
    ("caps", "--max-tableaux", dict(
        type=_positive_int, default=DEFAULT_ENUMERATION_CAP,
        help="enumeration cap (default %(default)s)")),
    ("caps", "--max-terms", dict(
        type=_positive_int, default=DEFAULT_TERM_CAP,
        help="polynomial term cap (default %(default)s)")),
    ("sweep", "--max-size", dict(
        type=_positive_int, default=5, help="largest shape size (default %(default)s)")),
    ("sweep", "--max-k", dict(
        type=_positive_int, default=5, help="largest k (default %(default)s)")),
    ("sweep", "--max-n", dict(
        type=_positive_int, default=9, help="largest n (default %(default)s)")),
    ("sweep", "--with-oracle", dict(
        action="store_true", help="also run the Chern oracle wherever caps allow")),
    ("output", "--json", dict(action="store_true", help="emit a JSON envelope")),
    ("output", "--timing", dict(
        action="store_true", help="report measured wall time in timing_ms instead of 0")),
]


class Output(NamedTuple):
    """A command's answer: the JSON result (the envelope leaves its None values
    out), the table form (no table without headers) and the exit code."""

    result: dict
    headers: Sequence[str] = ()
    rows: Sequence[Sequence] = ()
    before: Sequence[str] = ()
    after: Sequence[str] = ()
    code: int = EXIT_OK


def _cell(value) -> str:
    """A table cell: - for None, true or false, a shape as its comma list."""
    if isinstance(value, Partition):
        value = value.as_text() or None
    if value is None:
        return "-"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> list[str]:
    rows = [headers] + [[_cell(value) for value in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * width for width in widths])
    return ["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows]


def _cmd_dim(args):
    from .proofs import dim_schur_module

    dim = dim_schur_module(args.lam, args.n)
    return Output(
        {"lambda": list(args.lam), "n": args.n, "dim": str(dim)},
        ["lambda", "n", "dim"], [[args.lam, args.n, dim]],
    )


def _cmd_decide(args):
    verdict = decide(args.lam, args.k, args.n)
    isotropic, rule, threshold, detail = verdict
    return Output(
        verdict._asdict(), ["lambda", "k", "n", "isotropic", "rule", "threshold_n"],
        [[args.lam, args.k, args.n, isotropic, rule, threshold]],
        after=[f"detail: {detail}"],
    )


def _cmd_min_n(args):
    found, smallest = _least_isotropic(args.lam, args.k)
    keys = ["lambda", "k", "dim", "threshold_n", "min_isotropic_n", "rule_at_min_n"]
    row = [args.lam, args.k, str(found.dim), found.t, smallest,
           found.verdict(smallest).rule]
    return Output(dict(zip(keys, row)), [*keys[:-1], "rule"], [row])


def _cmd_oracle(args):
    from .sympoly import expansion_to_json, top_chern_nonzero

    verdict = top_chern_nonzero(
        args.lam, args.k, args.n, max_tableaux=args.max_tableaux, max_terms=args.max_terms
    )
    return Output(
        {"nonzero": verdict.nonzero, "degree": str(verdict.degree),
         "shortcut": verdict.shortcut,
         "surviving": expansion_to_json(dict(verdict.surviving))},
        ["mu", "coeff"], verdict.surviving or [[None, None]],
        before=[f"nonzero: {_cell(verdict.nonzero)}  degree: {verdict.degree}"
                f"  shortcut: {verdict.shortcut}", "surviving classes:"],
    )


def _cmd_check_lemma36(args):
    from .proofs import tevelev_inequalities

    report = tevelev_inequalities(args.lam, args.k, args.n)
    return Output(
        {"rows": [{"i": i, "lhs": str(lhs), "rhs": str(rhs), "holds": holds}
                  for i, lhs, rhs, holds in report.rows],
         "all_hold": report.all_hold},
        ["i", "dim(C^(k-i))", "(k-i)(n-k-i)", "holds"], report.rows,
        after=[f"all hold: {_cell(report.all_hold)}"],
    )


def _cmd_proof_chain(args):
    from .proofs import verify_proof_chain

    steps = verify_proof_chain(args.lam, args.k, args.n)
    verified = all(s.holds for s in steps)
    return Output(
        {"steps": [step._asdict() for step in steps], "all_verified": verified},
        ["step", "holds", "detail"], [[s.name, s.holds, s.detail] for s in steps],
        after=[f"all verified: {_cell(verified)}"],
    )


def _cmd_sweep(args):
    cases = run_sweep(args.max_size, args.max_k, args.max_n, with_oracle=args.with_oracle)
    keys = ["lambda", "k", "n", "isotropic", "rule", "oracle_nonzero", "agree"]
    rows = [[c.shape, c.k, c.n, c.isotropic, c.rule, c.oracle_nonzero, c.agree]
            for c in cases]
    disagreements = sum(1 for c in cases if c.agree is False)
    compared = sum(1 for c in cases if c.oracle_nonzero is not None)
    return Output(
        {"total": len(cases), "compared": compared, "disagreements": disagreements,
         "cases": [dict(zip(keys, row)) for row in rows]},
        ["lambda", "k", "n", "isotropic", "rule", "oracle", "agree"], rows,
        after=[f"total: {len(cases)}  compared: {compared}"
               f"  disagreements: {disagreements}"],
        code=EXIT_DISAGREEMENT if disagreements else EXIT_OK,
    )


def _cmd_self_check(args):
    from .proofs import self_check_suites

    suites = [{"name": name, "cases": len(outcomes), "violations": outcomes.count(False),
               "ok": all(outcomes)} for name, outcomes in self_check_suites()]
    all_ok = all(suite["ok"] for suite in suites)
    return Output(
        {"suites": suites, "ok": all_ok},
        before=[f"{'PASS' if s['ok'] else 'FAIL'}  {s['name']}: {s['cases']} cases,"
                f" {s['violations']} violations" for s in suites]
        + [f"self-check: {'PASS' if all_ok else 'FAIL'}"],
        code=EXIT_OK if all_ok else EXIT_DOMAIN_ERROR,
    )


# name: (help line, argument groups, handler), in the order --help lists them
COMMANDS = {
    "dim": ("dimension of the symmetry module over C^n", "lambda n", _cmd_dim),
    "decide": ("isotropy verdict for (lambda, k, n)", "lambda k n", _cmd_decide),
    "min-n": ("smallest ambient dimension giving isotropy", "lambda k", _cmd_min_n),
    "oracle": ("top Chern class test on Gr(k, n)", "lambda k n caps", _cmd_oracle),
    "check-lemma36": ("interlacing inequality family dim <= (k-i)(n-k-i)",
                      "lambda k n", _cmd_check_lemma36),
    "proof-chain": ("replay the inequality chain certifying the threshold",
                    "lambda k n", _cmd_proof_chain),
    "sweep": ("compare decision rules against the oracle", "sweep", _cmd_sweep),
    "self-check": ("dimension triple agreement and the inequality suites", "",
                   _cmd_self_check),
}


def _formatter(prog: str) -> argparse.HelpFormatter:
    """Help and usage wrapped at 78 columns, what an 80-column terminal gives,
    whatever the terminal or COLUMNS says."""
    return argparse.HelpFormatter(prog, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-isotropy", formatter_class=_formatter, description=(
            "Decide whether a generic form with a given Young-type symmetry"
            " vanishes on some k-dimensional subspace of C^n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, groups, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line, formatter_class=_formatter)
        for group, flag, options in ARGUMENTS:
            if group in groups.split() or group == "output":
                p.add_argument(flag, **options)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one command; returns the process exit code.  Answers of any
    length print: Python's int-to-str digit limit is lifted for the command
    and restored on every way out, so the caller's interpreter keeps it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    """Parse argv, run its command and print the Output; the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        out = COMMANDS[args.command][2](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    elapsed = int((time.perf_counter() - start) * 1000) if args.timing else 0
    if args.json:
        import json

        # every parsed argument but the output switches, as given; the dest of
        # --lambda is lam, and a Partition is written as a JSON list
        inputs = {
            "lambda" if name == "lam" else name: value
            for name, value in vars(args).items()
            if name not in ("command", "json", "timing")
        }
        result = {key: value for key, value in out.result.items() if value is not None}
        envelope = {"schema_version": SCHEMA_VERSION, "command": args.command,
                    "inputs": inputs, "result": result, "timing_ms": elapsed}
        print(json.dumps(envelope, indent=2))
    else:
        table = _format_table(out.headers, out.rows) if out.headers else []
        for line in [*out.before, *table, *out.after]:
            print(line)
    return out.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
