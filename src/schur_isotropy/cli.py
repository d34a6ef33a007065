"""Command line front end: dimensions, decisions, oracle queries, and sweeps.

Every command can emit either an aligned table (default) or a JSON envelope
(--json).  Output is byte-deterministic for identical argv: big integers are
serialized as decimal strings and timing_ms stays 0 unless --timing is given.
A handler whose layer the package import leaves out (proofs, sympoly)
imports it in its body, so a command compiles only what it runs.
"""

from __future__ import annotations

import argparse
import sys
import time

from .chern import DEFAULT_ENUMERATION_CAP, DEFAULT_TERM_CAP, top_chern_nonzero
from .errors import DomainError, ZeroModule
from .isotropy import decide, min_isotropic_n, run_sweep, threshold_n
from .partitions import Partition, parse_partition
from .schur import schur_ones_hook_content

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    return [line(headers), line(["-" * w for w in widths])] + [line(r) for r in rows]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-isotropy",
        description=(
            "Decide whether a generic form with a given Young-type symmetry"
            " vanishes on some k-dimensional subspace of C^n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, lam=False, k=False, n=False, caps=False):
        if lam:
            p.add_argument(
                "--lambda", dest="lam", type=_partition_arg, required=True,
                metavar="PARTS", help="shape as a weakly decreasing comma list, e.g. 2,1",
            )
        if k:
            p.add_argument("--k", type=_positive_int, required=True,
                           help="dimension of the sought subspace")
        if n:
            p.add_argument("--n", type=_nonnegative_int, required=True,
                           help="dimension of the ambient space")
        if caps:
            p.add_argument("--max-tableaux", type=_positive_int,
                           default=DEFAULT_ENUMERATION_CAP,
                           help="enumeration cap (default %(default)s)")
            p.add_argument("--max-terms", type=_positive_int,
                           default=DEFAULT_TERM_CAP,
                           help="polynomial term cap (default %(default)s)")
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.add_argument("--timing", action="store_true",
                       help="report measured wall time in timing_ms instead of 0")

    p = sub.add_parser("dim", help="dimension of the symmetry module over C^n")
    add_common(p, lam=True, n=True)

    p = sub.add_parser("decide", help="isotropy verdict for (lambda, k, n)")
    add_common(p, lam=True, k=True, n=True)

    p = sub.add_parser("min-n", help="smallest ambient dimension giving isotropy")
    add_common(p, lam=True, k=True)

    p = sub.add_parser("oracle", help="top Chern class test on Gr(k, n)")
    add_common(p, lam=True, k=True, n=True, caps=True)

    p = sub.add_parser("check-lemma36",
                       help="interlacing inequality family dim <= (k-i)(n-k-i)")
    add_common(p, lam=True, k=True, n=True)

    p = sub.add_parser("proof-chain",
                       help="replay the inequality chain certifying the threshold")
    add_common(p, lam=True, k=True, n=True)

    p = sub.add_parser("sweep", help="compare decision rules against the oracle")
    p.add_argument("--max-size", type=_positive_int, default=5,
                   help="largest shape size (default %(default)s)")
    p.add_argument("--max-k", type=_positive_int, default=5,
                   help="largest k (default %(default)s)")
    p.add_argument("--max-n", type=_positive_int, default=9,
                   help="largest n (default %(default)s)")
    p.add_argument("--with-oracle", action="store_true",
                   help="also run the Chern oracle wherever caps allow")
    add_common(p)

    p = sub.add_parser("self-check",
                       help="dimension triple agreement and the inequality suites")
    add_common(p)

    return parser


def _cmd_dim(args):
    from .proofs import dim_schur_module

    dim = str(dim_schur_module(args.lam, args.n).value)
    result = {"lambda": list(args.lam), "n": args.n, "dim": dim}
    human = _format_table(
        ["lambda", "n", "dim"], [[args.lam.as_text() or "-", str(args.n), dim]]
    )
    return result, human, EXIT_OK


def _cmd_decide(args):
    verdict = decide(args.lam, args.k, args.n)
    result = {"isotropic": verdict.isotropic, "rule": verdict.rule}
    if verdict.threshold_n is not None:
        result["threshold_n"] = verdict.threshold_n
    result["detail"] = verdict.detail
    human = _format_table(
        ["lambda", "k", "n", "isotropic", "rule", "threshold_n"],
        [[
            args.lam.as_text(), str(args.k), str(args.n),
            str(verdict.isotropic).lower(), verdict.rule,
            "-" if verdict.threshold_n is None else str(verdict.threshold_n),
        ]],
    ) + [f"detail: {verdict.detail}"]
    return result, human, EXIT_OK


def _cmd_min_n(args):
    smallest = min_isotropic_n(args.lam, args.k)
    rule = decide(args.lam, args.k, smallest).rule
    try:
        formula = threshold_n(args.lam, args.k)
        dim = str(schur_ones_hook_content(args.lam, args.k))
    except ZeroModule:
        formula = None
        dim = "0"
    result = {"lambda": list(args.lam), "k": args.k, "dim": dim}
    if formula is not None:
        result["threshold_n"] = formula
    result["min_isotropic_n"] = smallest
    result["rule_at_min_n"] = rule
    human = _format_table(
        ["lambda", "k", "dim", "threshold_n", "min_isotropic_n", "rule"],
        [[
            args.lam.as_text(), str(args.k), dim,
            "-" if formula is None else str(formula), str(smallest), rule,
        ]],
    )
    return result, human, EXIT_OK


def _cmd_oracle(args):
    from .sympoly import expansion_to_json

    verdict = top_chern_nonzero(
        args.lam, args.k, args.n,
        max_tableaux=args.max_tableaux, max_terms=args.max_terms,
    )
    result = {
        "nonzero": verdict.nonzero,
        "degree": str(verdict.degree),
        "shortcut": verdict.shortcut,
        "surviving": expansion_to_json(dict(verdict.surviving)),
    }
    rows = [
        [mu.as_text() or "-", str(coeff)] for mu, coeff in verdict.surviving
    ] or [["-", "-"]]
    human = [
        f"nonzero: {str(verdict.nonzero).lower()}"
        f"  degree: {verdict.degree}  shortcut: {verdict.shortcut}",
        "surviving classes:",
    ] + _format_table(["mu", "coeff"], rows)
    return result, human, EXIT_OK


def _cmd_check_lemma36(args):
    from .proofs import tevelev_inequalities

    report = tevelev_inequalities(args.lam, args.k, args.n)
    result = {
        "rows": [
            {"i": row.index, "lhs": str(row.lhs), "rhs": str(row.rhs),
             "holds": row.holds}
            for row in report.rows
        ],
        "all_hold": report.all_hold,
    }
    human = _format_table(
        ["i", "dim(C^(k-i))", "(k-i)(n-k-i)", "holds"],
        [[str(r.index), str(r.lhs), str(r.rhs), str(r.holds).lower()]
         for r in report.rows],
    ) + [f"all hold: {str(report.all_hold).lower()}"]
    return result, human, EXIT_OK


def _cmd_proof_chain(args):
    from .proofs import verify_proof_chain

    steps = verify_proof_chain(args.lam, args.k, args.n)
    result = {
        "steps": [step._asdict() for step in steps],
        "all_verified": all(s.holds for s in steps),
    }
    human = _format_table(
        ["step", "holds", "detail"],
        [[s.name, str(s.holds).lower(), s.detail] for s in steps],
    ) + [f"all verified: {str(all(s.holds for s in steps)).lower()}"]
    return result, human, EXIT_OK


def _cmd_sweep(args):
    cases = run_sweep(args.max_size, args.max_k, args.max_n, with_oracle=args.with_oracle)
    disagreements = sum(1 for c in cases if c.agree is False)
    compared = sum(1 for c in cases if c.oracle_nonzero is not None)
    result = {
        "total": len(cases),
        "compared": compared,
        "disagreements": disagreements,
        "cases": [
            {
                "lambda": list(c.shape), "k": c.k, "n": c.n,
                "isotropic": c.isotropic, "rule": c.rule,
                "oracle_nonzero": c.oracle_nonzero, "agree": c.agree,
            }
            for c in cases
        ],
    }
    human = _format_table(
        ["lambda", "k", "n", "isotropic", "rule", "oracle", "agree"],
        [[
            c.shape.as_text(), str(c.k), str(c.n), str(c.isotropic).lower(),
            c.rule,
            "-" if c.oracle_nonzero is None else str(c.oracle_nonzero).lower(),
            "-" if c.agree is None else str(c.agree).lower(),
        ] for c in cases],
    ) + [
        f"total: {len(cases)}  compared: {compared}"
        f"  disagreements: {disagreements}"
    ]
    code = EXIT_DISAGREEMENT if disagreements else EXIT_OK
    return result, human, code


def _cmd_self_check(args):
    from .proofs import self_check_suites

    suites = [
        {"name": name, "cases": len(outcomes), "violations": outcomes.count(False),
         "ok": all(outcomes)}
        for name, outcomes in self_check_suites()
    ]
    all_ok = all(suite["ok"] for suite in suites)
    result = {"suites": suites, "ok": all_ok}
    human = [
        f"{'PASS' if s['ok'] else 'FAIL'}  {s['name']}:"
        f" {s['cases']} cases, {s['violations']} violations"
        for s in suites
    ] + [f"self-check: {'PASS' if all_ok else 'FAIL'}"]
    return result, human, EXIT_OK if all_ok else EXIT_DOMAIN_ERROR


_HANDLERS = {
    "dim": _cmd_dim,
    "decide": _cmd_decide,
    "min-n": _cmd_min_n,
    "oracle": _cmd_oracle,
    "check-lemma36": _cmd_check_lemma36,
    "proof-chain": _cmd_proof_chain,
    "sweep": _cmd_sweep,
    "self-check": _cmd_self_check,
}


def run(argv: list[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        result, human, code = _HANDLERS[args.command](args)
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
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "timing_ms": elapsed,
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in human:
            print(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
