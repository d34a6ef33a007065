"""Apply one-line mutants to a copy of the package and check that Tier-1 sees them.

Run from the repository root:

    python3 bench/mutants.py

Each MUTANTS entry names a file under ``src/schur_isotropy``, one exact line
of it (indentation included, found exactly once), its replacement and the
expected outcome: ``fails`` (Tier-1 fails, or runs past TIMEOUT_S) or
``equivalent`` (Tier-1 passes, with a one-line reason why the mutant changes
no result).  For each mutant, and first for the unmutated tree, the script
copies what Tier-1 reads (COPIED) to a fresh temporary directory, applies the
mutant there and runs Tier-1 (``-x``, so a failing run stops at its first
failure) under a wall-clock limit.  It never edits the checkout.  It prints
one line per mutant and exits 1 when the unmutated tree fails, when a
mutant's line is not found exactly once, or when an outcome differs from its
expectation.  It is a dev script, not a test: pytest collects only
``tests/``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "schemas", "benchmark", "pyproject.toml")
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
# Tier-1 takes about 10 s; a test that hangs fails at conftest's 60 s alarm
TIMEOUT_S = 300

# (file, line, replacement, expected, reason)
MUTANTS = (
    ("chern.py",
     "    return comb(n, k) * (degree + k * (n - k))",
     "    return comb(n, k) * degree",
     "fails", "a guard test starts the sum it should refuse; the 60 s alarm ends it"),
    ("proofs.py",
     "_CROSS_CHECK_LIMIT = 8",
     "_CROSS_CHECK_LIMIT = 0",
     "fails", "dim no longer re-derives the dimension by the recurrence"),
    ("schur.py",
     "                columns[-1] += [size - sum(mu)] * c",
     "                columns[-1] += [size - sum(mu) + 1] * c",
     "fails", "the fillings table's new coordinate is off by one"),
    ("schur.py",
     "                count += c",
     "                count += 1",
     "fails", "the fillings table counts strips, not their fillings"),
    ("chern.py",
     "            roots = dots[a:b]",
     "            roots = dots[a:b - 1]",
     "fails", "a pass drops each shape's last root"),
    ("chern.py",
     "            _refuse_zero_bundle(shape, k)",
     "            pass",
     "fails", "a flip search packs a shape with more rows than k"),
    ("cli.py",
     "            sys.set_int_max_str_digits(limit)",
     "            pass",
     "fails", "run leaves the int-to-str limit lifted for its caller"),
    ("isotropy.py",
     "        if d % 2 == 0:",
     "        if d % 2:",
     "fails", "the (n-2)-form exception moves from the even columns to the odd"),
    ("isotropy.py",
     "                k <= 4, RULE_EXCEPTION_SKEW_3_N7, None,",
     "                k <= 5, RULE_EXCEPTION_SKEW_3_N7, None,",
     "fails", "alternating 3-forms on C^7 read isotropic at k = 5"),
    ("schur.py",
     "    blocks = [*ends.items(), (0, n)]",
     "    blocks = [*ends.items(), (0, n - 1)]",
     "fails", "every block meets the zero rows of n - 1, not n"),
    ("schur.py",
     "        _refuse_over(bound, _STEP_CAP, \"steps of Weyl's product\")",
     "        pass",
     "fails", "no step cap: a staircase of 2000 rows runs past its test's 20 s limit"),
    ("schur.py",
     "            steps, width = (above, diff) if above < diff else (diff, above)",
     "            steps, width = (diff, above) if above < diff else (above, diff)",
     "fails", "each pair of blocks takes the more steps: (999999, 2) runs to the 60 s alarm"),
    ("isotropy.py",
     "    formula = t = k - (-dim // k)",
     "    formula = t = k + dim // k",
     "fails", "the threshold rounds dim/k down, one n early where k does not divide dim"),
    ("isotropy.py",
     "                degrees[shape, k] = rule.dim",
     "                degrees[shape, k] = _route(shape, k + 1).dim",
     "fails", "the sweep's flip search reads the class degree of the next k"),
    ("proofs.py",
     '    _refuse_over(min(k, n - k) + 1, INEQUALITY_ROW_CAP, "interlacing rows")',
     "    pass",
     "fails", "check-lemma36 runs its 10^9 rows, to the child's time or memory limit"),
    ("proofs.py",
     '    _refuse_over(k - rows, DESCENT_STEP_CAP, "descent steps")',
     "    pass",
     "fails", "proof-chain is refused for its rows, not its descent steps"),
    ("isotropy.py",
     '    _refuse_over(count, SWEEP_CASE_CAP, "sweep cases")',
     "    pass",
     "fails", "a sweep of 1.4 * 10^10 cases runs, to the child's memory limit"),
    ("chern.py",
     "        if value < 0:",
     "        if value < -1:",
     "equivalent", "the integral of a globally generated bundle is never negative"),
    ("schur.py",
     "        for lower, stop in blocks[upper + 1:]:",
     "        for lower, stop in blocks[upper:]:",
     "equivalent", "a block against itself is 0 apart in part, so it takes no step: each"
     " pair of rows inside it gives 1"),
    ("sympoly.py",
     "        if all(expo[t] > expo[t + 1] for t in range(k - 1)):",
     "        if all(expo[t] >= expo[t + 1] for t in range(k - 1)):",
     "equivalent", "an alternating polynomial has no term with a repeated exponent"),
    ("sympoly.py",
     "    expansion = _alternant_expansion({(0,) * k: 1}, k, forms, max_terms, n)",
     "    expansion = _alternant_expansion("
     "{(0,) * k: 1}, k, forms, max_terms, n if n > 2 else None)",
     "equivalent", "at n <= 2 the degree shortcut answers before any expansion"),
)


def tier1(mutant: tuple | None) -> tuple[str, float]:
    """('passes' | 'fails' | 'times out' | 'missing', seconds) of Tier-1 on a
    copy with ``mutant`` applied, or on the unmutated copy for None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source, target = ROOT / name, tree / name
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            name, line, replacement = mutant[:3]
            path = tree / "src" / "schur_isotropy" / name
            lines = path.read_text().split("\n")
            if lines.count(line) != 1:
                return "missing", 0.0
            lines[lines.index(line)] = replacement
            path.write_text("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.perf_counter()
        # a session of its own, so a timeout ends the tests' child processes too
        child = subprocess.Popen(TIER1, cwd=tree, env=env, start_new_session=True,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            code = None
        outcome = "passes" if code == 0 else "fails" if code else "times out"
        return outcome, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    outcome, seconds = tier1(None)
    print(f"unmutated: Tier-1 {outcome} in {seconds:.1f} s", flush=True)
    if outcome != "passes":
        return 1
    wrong = 0
    for mutant in MUTANTS:
        name, line, _, expected, reason = mutant
        outcome, seconds = tier1(mutant)
        ok = outcome in (("fails", "times out") if expected == "fails" else ("passes",))
        wrong += not ok
        seen = "line not found" if outcome == "missing" else f"Tier-1 {outcome}"
        print(f"{'ok  ' if ok else 'FAIL'}  {name}: {line.strip()!r}"
              f" -> {seen} in {seconds:.1f} s (expected {expected}: {reason})",
              flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as expected"
          f" in {time.perf_counter() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
