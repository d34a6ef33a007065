"""Time the top-Chern-class routes, sweeps, tableau walks and weight tables on a ladder.

Run from the repository root:

    python3 bench/ladder.py OUT.json [--base TREE]

Each (rung, route) runs REPEATS times, each in a fresh interpreter that
imports the package from ``src/`` and times only the calls.  With
``--base``, a second source tree (a checkout of another commit, whose
``src/`` is imported instead) is timed in the same run: every repeat times
both trees back to back, the order alternating from one repeat to the next,
and the report gives per rung and route the base's timings and ``ratio``,
the median over the repeats of this tree's time over the base's.  Absolute
seconds from different runs are not comparable on a machine whose CPU speed
drifts; these paired ratios are.

The rungs are of four kinds.  An oracle rung is one or more shapes, a k
and a run of n, timed by the routes ``localization``
(``chern.localization_integrals``, the sweep's verdict, one one-shape batch
per shape for the whole run of n), ``batch`` (one call for all the rung's
shapes together, as ``chern.flip_points`` makes per k and round) and ``expansion``
(``chern.top_chern_nonzero``, the truncated Schur expansion, one call per
n), the latter two only on rungs marked for them; it also lists the
predicted cost that the localization guard reads at the largest n
(``chern.localization_cost``, summed over the shapes).  A sweep rung is one
``(max_size, max_k, max_n)`` window of ``run_sweep(..., with_oracle=True)``
(route ``sweep``): the eleven that the sweep-oracle benchmark workload runs,
then five wide ones whose n reaches far past the flips.
A walk rung is one ``tableaux.weight_vectors`` call on a tall hook with as
many letters as rows (route ``weights``).  A table rung gives every shape
up to a size the distinct weights and multiplicities of its fillings at
every k up to a bound, by ``chern.weight_counts`` with one shared table
(route ``table``, timed on this tree only, as a base tree may lack it) and
by counting ``tableaux.weight_vectors`` (route ``enumeration``); it reports
``table_over_enumeration``, the ratio of their medians on this tree.

The script exits 1 when a rung's routes disagree on a verdict, when a batch
differs from its one-shape batches, when a sweep finds a disagreement, when a
table differs from the counted walk, or when the base tree answers any rung
differently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5

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

CHILD = """\
import hashlib, json, sys
from collections import Counter
from time import perf_counter
from schur_isotropy import chern
from schur_isotropy.isotropy import run_sweep
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.tableaux import weight_vectors
route, spec = sys.argv[1], json.loads(sys.argv[2])
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
    start = perf_counter()
    if route == "table":
        from schur_isotropy.chern import weight_counts
        table = {}
        counts = [weight_counts(lam, k, table) for lam, k in pairs]
    else:
        counts = [Counter(weight_vectors(lam, k)) for lam, k in pairs]
    seconds = perf_counter() - start
    print(json.dumps({
        "s": seconds,
        "pairs": len(pairs),
        "digest": hashlib.sha256(
            repr([sorted(c.items()) for c in counts]).encode()
        ).hexdigest(),
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
        shape: {n: int(chern.top_chern_nonzero(shape, k, n).nonzero) for n in ns}
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


def time_once(tree: Path, route: str, spec) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, route, json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout)


def commit_of(tree: Path) -> str:
    """HEAD of the tree when it is a git checkout; 'unknown' otherwise."""
    done = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def timed(route: str, spec, base: Path | None) -> tuple[dict, list[dict], list[dict]]:
    """Time one (rung, route) on this tree and, paired and alternating, on base."""
    runs, base_runs = [], []
    for repeat in range(REPEATS):
        if base is not None and repeat % 2:
            base_runs.append(time_once(base, route, spec))
        runs.append(time_once(ROOT, route, spec))
        if base is not None and not repeat % 2:
            base_runs.append(time_once(base, route, spec))
    seconds = [round(run["s"], 4) for run in runs]
    entry = {"seconds": seconds, "median_s": round(statistics.median(seconds), 4)}
    if base is not None:
        base_seconds = [round(run["s"], 4) for run in base_runs]
        ratios = [run["s"] / other["s"] for run, other in zip(runs, base_runs)]
        entry.update(
            base_seconds=base_seconds,
            base_median_s=round(statistics.median(base_seconds), 4),
            ratio=round(statistics.median(ratios), 3),
        )
    return entry, runs, base_runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="where to write the JSON report")
    parser.add_argument("--base", type=Path,
                        help="a second source tree to time alongside, paired")
    args = parser.parse_args()
    base = args.base.resolve() if args.base else None

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
        built, tables, _ = timed("table", [size, top], None)
        agree = agree and same(runs + base_runs + tables, "digest")
        rungs.append({
            "tables": {"max_size": size, "max_k": top, "pairs": runs[0]["pairs"]},
            "enumeration": walked,
            "table": built,
            "table_over_enumeration": round(built["median_s"] / walked["median_s"], 3),
        })
        print(json.dumps(rungs[-1]), flush=True)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
    }
    if base is not None:
        report["base_commit"] = commit_of(base)
    report["rungs"] = rungs
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
