"""Checks every op's output against the benchmark-owned references.

``check(op, record)`` returns None for a correct op and a one-line reason
otherwise.  A record is what a worker (or a CLI process) produced for the
op: its output, an exception, or a time over the per-op limit.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from reference import (
    chain_in_scope,
    expected_min_n,
    expected_verdict,
    is_documented_skew_case,
    sweep_cases,
    sweep_compares,
    tevelev_rows,
    threshold,
    verdict_errors,
    weyl_dim,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# An op slower than this counts as failed (seconds).
OP_LIMIT_S = {"oracle": 60.0, "sweep": 60.0, "cli": 30.0}
DEFAULT_OP_LIMIT_S = 10.0

@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def key(shape, k: int, n: int) -> str:
    return f"{','.join(map(str, shape))}|{k}|{n}"


def check(op: dict, record: dict) -> str | None:
    if "error" in record:
        return f"unexpected exception: {record['error']}"
    limit = OP_LIMIT_S.get(op["op"], DEFAULT_OP_LIMIT_S)
    if record["s"] > limit:
        return f"took {record['s']:.1f} s, over the {limit:.0f} s per-op limit"
    try:
        return CHECKS[op["op"]](op, record["out"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _oracle_errors(shape, k, n, nonzero, degree, shortcut, surviving) -> list[str]:
    """surviving: [[mu, coeff], ...] with int coefficients."""
    errors = []
    dim = weyl_dim(shape, k)
    if degree != dim:
        errors.append(f"degree {degree} != Weyl dimension {dim}")
    expected_shortcut = "degree-exceeds-top" if dim > k * (n - k) else "none"
    if shortcut != expected_shortcut:
        errors.append(f"shortcut {shortcut}, expected {expected_shortcut}")
    if nonzero != bool(surviving):
        errors.append("nonzero disagrees with the surviving list")
    for mu, _ in surviving:
        if sum(mu) != dim or len(mu) > k or (mu and mu[0] > n - k):
            errors.append(f"class {mu} does not fit the {k}x{n - k} box at degree {dim}")
    if expected_shortcut == "none":
        want = golden()["oracle"].get(key(shape, k, n))
        if want is None:
            errors.append(f"no golden surviving list for {key(shape, k, n)}")
        elif surviving != want:
            errors.append(f"surviving {surviving} != golden {want}")
    isotropic, _, _ = expected_verdict(shape, k, n)
    if (isotropic is not None and not is_documented_skew_case(shape, k, n)
            and nonzero != isotropic):
        errors.append(f"nonzero={nonzero} but the rules give isotropic={isotropic}")
    return errors


def check_oracle(op, out):
    errors = _oracle_errors(
        op["shape"], op["k"], op["n"], out["nonzero"], out["degree"],
        out["shortcut"], out["surviving"],
    )
    return "; ".join(errors) or None


def check_sweep(op, cases):
    want = sweep_cases(op["max_size"], op["max_k"], op["max_n"])
    got = [(tuple(shape), k, n) for shape, k, n, *_ in cases]
    if got != want:
        return f"{len(got)} cases in the wrong order or set, expected {len(want)}"
    verdicts = golden()["sweep"]
    for shape, k, n, isotropic, rule, t, oracle in cases:
        compares = sweep_compares(shape, k)
        if compares != (oracle is not None):
            return f"{key(shape, k, n)}: oracle ran={oracle is not None}, expected {compares}"
        if compares and oracle != verdicts.get(key(shape, k, n)):
            return f"{key(shape, k, n)}: oracle {oracle} != golden"
        errors = verdict_errors(
            shape, k, n, {"isotropic": isotropic, "rule": rule, "threshold_n": t},
            oracle_nonzero=verdicts.get(key(shape, k, n)),
        )
        if errors:
            return f"{key(shape, k, n)}: " + "; ".join(errors)
    return None


def check_decide(op, out):
    return "; ".join(verdict_errors(op["shape"], op["k"], op["n"], out)) or None


def check_threshold(op, out):
    want = threshold(op["shape"], op["k"])
    return None if out == want else f"threshold_n {out} != {want}"


def check_lemma36(op, rows):
    want = tevelev_rows(op["shape"], op["k"], op["n"])
    return None if rows == want else f"rows {rows} != {want}"


def _chain_errors(steps) -> list[str]:
    if not steps:
        return ["empty chain"]
    errors = [f"step {name} does not hold" for name, holds in steps if not holds]
    if steps[0][0] != "hypothesis" or steps[-1][0] != "interlacing-family":
        errors.append("chain does not run from hypothesis to interlacing-family")
    return errors


def check_proof_chain(op, steps):
    if not chain_in_scope(op["shape"], op["k"]):
        return "op out of the chain's scope"
    return "; ".join(_chain_errors(steps)) or None


def check_min_n(op, out):
    want = expected_min_n(op["shape"], op["k"])
    return None if out in want else f"min_isotropic_n {out}, expected one of {sorted(want)}"


# -- CLI queries ---------------------------------------------------------------

def _cli_inputs(argv):
    values = {}
    for flag, value in zip(argv, argv[1:]):
        if flag == "--lambda":
            values["shape"] = tuple(int(p) for p in value.split(","))
        elif flag in ("--k", "--n"):
            values[flag[2:]] = int(value)
    return values


def _table_rows(lines):
    """Data rows of an aligned table: everything after the dashed rule."""
    for index, line in enumerate(lines):
        if line.startswith("-"):
            return [row.split() for row in lines[index + 1:]]
    return []


def check_cli(op, out):
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()[-200:]}"
    argv = op["argv"]
    command = argv[0]
    as_json = "--json" in argv
    text = out["stdout"]
    values = _cli_inputs(argv)
    shape, k, n = values.get("shape"), values.get("k"), values.get("n")
    if as_json:
        try:
            envelope = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if envelope.get("command") != command or envelope.get("timing_ms") != 0:
            return "envelope command or timing_ms is wrong"
        result = envelope["result"]
    else:
        lines = text.rstrip("\n").split("\n")
        rows = _table_rows(lines)
    errors: list[str] = []
    if command == "dim":
        want = str(weyl_dim(shape, n))
        got = result["dim"] if as_json else rows[0][-1]
        if got != want:
            errors.append(f"dim {got} != {want}")
    elif command == "decide":
        if as_json:
            got = {"isotropic": result["isotropic"], "rule": result["rule"],
                   "threshold_n": result.get("threshold_n")}
        else:
            row = rows[0]
            got = {"isotropic": row[3] == "true", "rule": row[4],
                   "threshold_n": None if row[5] == "-" else int(row[5])}
        errors += verdict_errors(shape, k, n, got)
    elif command == "min-n":
        if as_json:
            dim, got = result["dim"], result["min_isotropic_n"]
            t = result.get("threshold_n")
        else:
            row = rows[0]
            dim, got = row[2], int(row[4])
            t = None if row[3] == "-" else int(row[3])
        if dim != str(weyl_dim(shape, k)):
            errors.append(f"dim {dim} != {weyl_dim(shape, k)}")
        if len(shape) <= k and t != threshold(shape, k):
            errors.append(f"threshold_n {t} != {threshold(shape, k)}")
        if got not in expected_min_n(shape, k):
            errors.append(f"min_isotropic_n {got} != {sorted(expected_min_n(shape, k))}")
    elif command == "check-lemma36":
        want = [[str(i), str(lhs), str(rhs), str(holds).lower()]
                for i, lhs, rhs, holds in tevelev_rows(shape, k, n)]
        if as_json:
            got = [[str(r["i"]), r["lhs"], r["rhs"], str(r["holds"]).lower()]
                   for r in result["rows"]]
        else:
            got = rows[:-1]
        if got != want:
            errors.append(f"rows {got} != {want}")
    elif command == "proof-chain":
        if as_json:
            steps = [[s["name"], s["holds"]] for s in result["steps"]]
            errors += _chain_errors(steps)
        elif lines[-1] != "all verified: true":
            errors.append(f"last line {lines[-1]!r}")
    elif command == "oracle":
        if as_json:
            nonzero, degree = result["nonzero"], int(result["degree"])
            shortcut = result["shortcut"]
            surviving = [[s["mu"], int(s["coeff"])] for s in result["surviving"]]
        else:
            head = lines[0].split()
            nonzero, degree, shortcut = head[1] == "true", int(head[3]), head[5]
            surviving = [
                [[int(p) for p in row[0].split(",")], int(row[1])]
                for row in rows if row[0] != "-"
            ]
        errors += _oracle_errors(shape, k, n, nonzero, degree, shortcut, surviving)
    elif command == "self-check":
        ok = result["ok"] if as_json else lines[-1] == "self-check: PASS"
        if not ok:
            errors.append("self-check reports a failure")
    return "; ".join(errors) or None


CHECKS = {
    "oracle": check_oracle,
    "sweep": check_sweep,
    "decide": check_decide,
    "threshold_n": check_threshold,
    "lemma36": check_lemma36,
    "proof_chain": check_proof_chain,
    "min_n": check_min_n,
    "cli": check_cli,
}
