"""Time the two top-Chern-class routes on a fixed ladder of rungs.

Run from the repository root:

    python3 bench/ladder.py OUT.json

Each (rung, route) runs REPEATS times, each in a fresh interpreter that
imports the package from ``src/`` and times only the calls.  A rung is one
or more shapes, a k and a run of n.  The routes are ``localization``
(``chern.localization_integrals``, the sweep's verdict, one one-shape batch
per shape for the whole run of n), ``batch`` (one call for all the rung's
shapes together, as ``run_sweep`` makes per k) and ``expansion``
(``chern.top_chern_nonzero``, the truncated Schur expansion, one call per
n), the latter two only on rungs marked for them.  The report lists, per
rung, the predicted cost that the localization guard reads at the largest n
(``chern.localization_cost``, summed over the shapes), every timing in
seconds, their median, and each route's verdict per shape and n.  A rung
whose routes disagree, or whose batch values differ from its one-shape
batches, makes the script exit 1.
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

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 3

# (the shapes, or a size standing for every shape up to it with at most k
# rows; k; the run of n; the routes beside localization)
RUNGS = (
    (((2, 1),), 5, (13,), ("expansion",)),
    (((1, 1, 1),), 6, (12,), ("expansion",)),
    (((3,),), 5, (13,), ("expansion",)),
    (((2, 1),), 6, (18,), ()),
    (((2, 1),), 5, tuple(range(6, 14)), ()),
    (((1, 1),), 6, tuple(range(7, 21)), ()),
    (5, 5, tuple(range(6, 11)), ("batch",)),
)

CHILD = """\
import json, sys
from time import perf_counter
from schur_isotropy import chern
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.schur import schur_ones_hook_content
route, shapes, k, ns = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4])
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


def time_once(route: str, shapes, k: int, ns: tuple[int, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, route, json.dumps(shapes), str(k),
         json.dumps(ns)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="where to write the JSON report")
    args = parser.parse_args()

    rungs = []
    agree = True
    for shapes, k, ns, others in RUNGS:
        rung, verdicts, values = {}, set(), set()
        for route in ("localization",) + others:
            runs = [time_once(route, shapes, k, ns) for _ in range(REPEATS)]
            if not rung:
                label = runs[0]["shapes"]
                rung = {"lambda": label[0]} if len(label) == 1 else {"shapes": label}
                rung.update(k=k, n=list(ns), predicted_cost=runs[0]["cost"])
            nonzero = runs[0]["nonzero"]
            if "lambda" in rung:
                nonzero = nonzero[0]
            verdicts.update(json.dumps(run["nonzero"]) for run in runs)
            if route != "expansion":
                values.update(json.dumps(run["values"]) for run in runs)
            seconds = [round(run["s"], 4) for run in runs]
            rung[route] = {
                "seconds": seconds,
                "median_s": round(statistics.median(seconds), 4),
                "nonzero": nonzero,
            }
        agree = agree and len(verdicts) == 1 and len(values) == 1
        rungs.append(rung)
        print(json.dumps(rung), flush=True)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "rungs": rungs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
