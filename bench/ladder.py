"""Time the top-Chern-class routes, sweeps, tableau walks, weight tables and dimensions on a ladder.

Run from the repository root:

    python3 bench/ladder.py OUT.json [--base TREE]

Each (rung, route) runs at least MIN_REPEATS times, and on until its runs
have taken MIN_SECONDS of wall time, interpreter starts included, so a rung
of a few milliseconds gets enough repeats to outlast CPU-speed drift.  Each
run is a fresh interpreter that imports the package from ``src/`` and times
only the calls.  A table or dimension run, of microseconds to a millisecond,
makes one call to warm the interpreter and then reports the mean over as
many calls as fill 0.05 s, so its first-call cost does not swamp it.  With
``--base``, a second source tree (a git checkout of another commit, whose
``src/`` is imported instead) is timed in the same run: every repeat times
both trees back to back, the order alternating from one repeat to the next,
and the report gives per rung and route the base's timings and ``ratio``,
the median over the repeats of this tree's time over the base's.  Absolute
seconds from different runs are not comparable on a machine whose CPU speed
drifts; these paired ratios are.  The report names the base's commit, so a
base that is not the top of a git checkout (a ``git archive`` tree) is
refused with exit 2; make one with ``git worktree add TREE COMMIT``.

The rungs are of five kinds.  An oracle rung is one or more shapes, a k
and a run of n, timed by the routes ``localization``
(``chern.localization_integrals``, the sweep's verdict, one one-shape batch
per shape for the whole run of n), ``batch`` (one call for all the rung's
shapes together: one pass per n over Gr(k, n) for every shape, as
``chern.flip_points`` makes at most one per (k, n) for every pair pending
there) and ``expansion``
(``schur_isotropy.top_chern_nonzero``, the truncated Schur expansion, one
call per n), the latter two only on rungs marked for them; it also lists the
predicted cost that the localization guard reads at the largest n
(``chern.localization_cost``, summed over the shapes).  A sweep rung is one
``(max_size, max_k, max_n)`` window of ``run_sweep(..., with_oracle=True)``
(route ``sweep``): the eleven that the sweep-oracle benchmark workload runs,
then five wide ones whose n reaches far past the flips.
A walk rung is one ``tableaux.weight_vectors`` call on a tall hook with as
many letters as rows (route ``weights``).  A table rung gives every shape
up to a size the distinct weights and multiplicities of its fillings at
every k up to a bound, by ``schur.weight_counts`` with one shared table
(route ``table``; a base tree must have it) and by counting
``tableaux.weight_vectors`` (route ``enumeration``); it reports
``table_over_enumeration``, the ratio of their medians on this tree.  A
dimension rung is one or more (shape, n) pairs, each evaluated by
``schur.schur_ones_hook_content`` (route ``dimension``): first every
nonempty shape up to a size at every k from its row count to a bound, the
pairs whose class degrees a sweep window reads, then single long, tall,
staircase and block shapes.

The script exits 1 when a rung's routes disagree on a verdict, when a batch
differs from its one-shape batches, when a sweep finds a disagreement, when a
table differs from the counted walk, or when the base tree answers any rung
(a dimension included) differently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPEATS = 11
MIN_SECONDS = 3.0

# (the shapes, or a size standing for every shape up to it with at most k
# rows; k; the run of n; the routes beside localization)
RUNGS = (
    (((2, 1),), 5, (13,), ("expansion",)),
    (((1, 1, 1),), 6, (12,), ("expansion",)),
    (((3,),), 5, (13,), ("expansion",)),
    (((2, 1),), 6, (18,), ()),
    (((2, 1),), 5, tuple(range(6, 14)), ()),
    (((1, 1),), 6, tuple(range(7, 21)), ()),
    (((1,),), 120, (121,), ()),
    (((1,),), 200, (201,), ()),
    (5, 5, tuple(range(6, 11)), ("batch",)),
)
# the sweep-oracle windows: sizes 4, 5 by k 4, 5 by n 8, 9, 10, less (5, 5, 10);
# then the wide windows
SWEEPS = tuple(
    (size, k, n)
    for size in (4, 5) for k in (4, 5) for n in (8, 9, 10)
    if (size, k, n) != (5, 5, 10)
) + ((1, 6, 23), (2, 6, 23), (3, 6, 20), (4, 6, 16), (5, 5, 14))
# tall hooks (first row, height), walked with as many letters as rows
WALKS = ((2, 600),)
# weight tables: (largest size, largest k), every shape at every k from 1 up
TABLES = ((5, 5),)
# dimensions: (largest size, largest k) for every shape at every k from its
# rows up, the pairs of the sweep-oracle window (5, 5, 9); then (shape, n)
DIMENSIONS = (
    (5, 5),
    ((20000, 2), 5),
    ((1,) * 400, 400),
    ((1,) * 400, 800),
    (tuple(range(20, 0, -1)), 25),
    ((3,) * 20 + (2,) * 20 + (1,) * 20, 70),
    ((5,) * 50, 60),
    ((1000, 1000), 2000),
)

CHILD = """\
import hashlib, json, sys
from collections import Counter
from time import perf_counter
import schur_isotropy
from schur_isotropy import chern
from schur_isotropy.isotropy import run_sweep
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.tableaux import weight_vectors
route, spec = sys.argv[1], json.loads(sys.argv[2])
INNER_SECONDS = 0.05  # the least time of a table or dimension rung's timed calls
def per_call(call):
    # (seconds per call, the first call's result): the mean over as many
    # calls as fill INNER_SECONDS, after that first call warms the interpreter
    result, calls, start = call(), 0, perf_counter()
    while not calls or perf_counter() - start < INNER_SECONDS:
        call()
        calls += 1
    return (perf_counter() - start) / calls, result
if route == "sweep":
    start = perf_counter()
    cases = run_sweep(*spec, with_oracle=True)
    seconds = perf_counter() - start
    print(json.dumps({
        "s": seconds,
        "cases": len(cases),
        "compared": sum(c.oracle_nonzero is not None for c in cases),
        "disagreements": sum(c.agree is False for c in cases),
        "digest": hashlib.sha256(repr(cases).encode()).hexdigest(),
    }))
    sys.exit()
if route in ("table", "enumeration"):
    size, top = spec
    pairs = [(lam, k) for lam in partitions_up_to(size) for k in range(1, top + 1)]
    if route == "table":
        from schur_isotropy.schur import weight_counts
        def call():
            table = {}
            return [weight_counts(lam, k, table) for lam, k in pairs]
    else:
        def call():
            return [Counter(weight_vectors(lam, k)) for lam, k in pairs]
    seconds, counts = per_call(call)
    print(json.dumps({
        "s": seconds,
        "pairs": len(pairs),
        "digest": hashlib.sha256(
            repr([sorted(c.items()) for c in counts]).encode()
        ).hexdigest(),
    }))
    sys.exit()
if route == "dimension":
    shapes, top = spec
    if isinstance(shapes, int):
        pairs = [(lam, k) for lam in partitions_up_to(shapes) if lam
                 for k in range(len(lam), top + 1)]
    else:
        pairs = [(Partition(shapes), top)]
    seconds, values = per_call(lambda: [schur_ones_hook_content(lam, n) for lam, n in pairs])
    print(json.dumps({
        "s": seconds,
        "pairs": len(pairs),
        "digest": hashlib.sha256(repr(values).encode()).hexdigest(),
    }))
    sys.exit()
if route == "weights":
    shape, max_entry = Partition(spec[0]), spec[1]
    start = perf_counter()
    weights = weight_vectors(shape, max_entry)
    seconds = perf_counter() - start
    print(json.dumps({
        "s": seconds,
        "fillings": len(weights),
        "digest": hashlib.sha256(repr(weights).encode()).hexdigest(),
    }))
    sys.exit()
shapes, k, ns = spec
if isinstance(shapes, int):
    shapes = [shape for shape in partitions_up_to(shapes) if shape and len(shape) <= k]
shapes = [Partition(shape) for shape in shapes]
start = perf_counter()
if route == "batch":
    values = chern.localization_integrals(dict.fromkeys(shapes, ns), k)
elif route == "localization":
    values = {}
    for shape in shapes:
        values.update(chern.localization_integrals({shape: ns}, k))
else:
    values = {
        shape: {
            n: int(schur_isotropy.top_chern_nonzero(shape, k, n).nonzero) for n in ns
        }
        for shape in shapes
    }
seconds = perf_counter() - start
print(json.dumps({
    "s": seconds,
    "shapes": shapes,
    "nonzero": [[values[shape][n] > 0 for n in ns] for shape in shapes],
    "values": [[str(values[shape][n]) for n in ns] for shape in shapes],
    "cost": sum(
        chern.localization_cost(k, max(ns), schur_ones_hook_content(shape, k))
        for shape in shapes
    ),
}))
"""


def runs_text(shape) -> str:
    """The shape with each run of equal parts as part^count, e.g. 3^20,1."""
    runs = [(part, len([*run])) for part, run in groupby(shape)]
    return ",".join(f"{part}^{count}" if count > 1 else str(part) for part, count in runs)


def time_once(tree: Path, route: str, spec) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, route, json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout)


def commit_of(tree: Path) -> str | None:
    """HEAD of the tree when it is the top of a git checkout; None otherwise,
    as for a tree unpacked inside another checkout."""
    done = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True,
    )
    top, _, commit = done.stdout.strip().partition("\n")
    if done.returncode or Path(top).resolve() != tree:
        return None
    return commit


def four_digits(seconds: float) -> float:
    """Seconds to four significant digits, so a rung of microseconds keeps them."""
    return float(f"{seconds:.4g}")


def timed(route: str, spec, base: Path | None) -> tuple[dict, list[dict], list[dict]]:
    """Time one (rung, route) on this tree and, paired and alternating, on base."""
    runs, base_runs = [], []
    repeat, start = 0, time.perf_counter()
    while repeat < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        if base is not None and repeat % 2:
            base_runs.append(time_once(base, route, spec))
        runs.append(time_once(ROOT, route, spec))
        if base is not None and not repeat % 2:
            base_runs.append(time_once(base, route, spec))
        repeat += 1
    seconds = [four_digits(run["s"]) for run in runs]
    entry = {"seconds": seconds, "median_s": four_digits(statistics.median(seconds))}
    if base is not None:
        base_seconds = [four_digits(run["s"]) for run in base_runs]
        ratios = [run["s"] / other["s"] for run, other in zip(runs, base_runs)]
        entry.update(
            base_seconds=base_seconds,
            base_median_s=four_digits(statistics.median(base_seconds)),
            ratio=float(f"{statistics.median(ratios):.3g}"),
        )
    return entry, runs, base_runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="where to write the JSON report")
    parser.add_argument("--base", type=Path,
                        help="a second source tree to time alongside, paired")
    args = parser.parse_args()
    base = args.base.resolve() if args.base else None
    base_commit = commit_of(base) if base else None
    if base and not base_commit:
        parser.error(
            f"--base {base} is not a git checkout, so the report could not name"
            " its commit; make one with: git worktree add TREE COMMIT"
        )

    def same(runs: list[dict], key: str) -> bool:
        return len({json.dumps(run[key]) for run in runs}) == 1

    rungs = []
    agree = True
    for shapes, k, ns, others in RUNGS:
        rung, verdicts, values = {}, [], []
        for route in ("localization",) + others:
            entry, runs, base_runs = timed(route, [shapes, k, list(ns)], base)
            if not rung:
                label = runs[0]["shapes"]
                rung = {"lambda": label[0]} if len(label) == 1 else {"shapes": label}
                rung.update(k=k, n=list(ns), predicted_cost=runs[0]["cost"])
            nonzero = runs[0]["nonzero"]
            entry["nonzero"] = nonzero[0] if "lambda" in rung else nonzero
            verdicts += runs + base_runs
            if route != "expansion":
                values += runs + base_runs
            rung[route] = entry
        agree = agree and same(verdicts, "nonzero") and same(values, "values")
        rungs.append(rung)
        print(json.dumps(rung), flush=True)
    for window in SWEEPS:
        entry, runs, base_runs = timed("sweep", window, base)
        for key in ("cases", "compared", "disagreements"):
            entry[key] = runs[0][key]
        agree = agree and same(runs + base_runs, "digest")
        agree = agree and not entry["disagreements"]
        rungs.append({"window": list(window), "sweep": entry})
        print(json.dumps(rungs[-1]), flush=True)
    for arm, height in WALKS:
        shape = (arm,) + (1,) * (height - 1)
        entry, runs, base_runs = timed("weights", [shape, height], base)
        entry["fillings"] = runs[0]["fillings"]
        agree = agree and same(runs + base_runs, "digest")
        rungs.append({"hook": f"{arm},1^{height - 1}", "max_entry": height,
                      "weights": entry})
        print(json.dumps(rungs[-1]), flush=True)
    for size, top in TABLES:
        walked, runs, base_runs = timed("enumeration", [size, top], base)
        built, tables, base_tables = timed("table", [size, top], base)
        agree = agree and same(runs + base_runs + tables + base_tables, "digest")
        rungs.append({
            "tables": {"max_size": size, "max_k": top, "pairs": runs[0]["pairs"]},
            "enumeration": walked,
            "table": built,
            "table_over_enumeration": round(built["median_s"] / walked["median_s"], 3),
        })
        print(json.dumps(rungs[-1]), flush=True)
    for shapes, top in DIMENSIONS:
        entry, runs, base_runs = timed("dimension", [shapes, top], base)
        agree = agree and same(runs + base_runs, "digest")
        if isinstance(shapes, int):
            rung = {"shapes": f"every shape of size <= {shapes}, k from its rows"
                              f" to {top}", "pairs": runs[0]["pairs"]}
        else:
            rung = {"lambda": runs_text(shapes), "n": top}
        rungs.append({**rung, "dimension": entry})
        print(json.dumps(rungs[-1]), flush=True)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "min_repeats": MIN_REPEATS,
        "min_seconds": MIN_SECONDS,
    }
    if base is not None:
        report["base_commit"] = base_commit
    report["rungs"] = rungs
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
