"""Time the two top-Chern-class routes on a fixed ladder of rungs.

Run from the repository root:

    python3 bench/ladder.py OUT.json

Each (rung, route) runs REPEATS times, each in a fresh interpreter that
imports the package from ``src/`` and times only the call.  A rung is a
shape, a k and a run of n.  The routes are ``localization``
(``chern.localization_integrals``, the sweep's verdict, one call for the
whole run of n) and ``expansion`` (``chern.top_chern_nonzero``, the
truncated Schur expansion, one call per n), the latter only on rungs marked
for it.  The report lists, per rung, the predicted cost that the
localization guard reads at the largest n (``chern.localization_cost``),
every timing in seconds, their median, and each route's verdict per n; a
rung whose routes disagree makes the script exit 1.
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

# (shape, k, the run of n, run the expansion too)
RUNGS = (
    ((2, 1), 5, (13,), True),
    ((1, 1, 1), 6, (12,), True),
    ((3,), 5, (13,), True),
    ((2, 1), 6, (18,), False),
    ((2, 1), 5, tuple(range(6, 14)), False),
    ((1, 1), 6, tuple(range(7, 21)), False),
)

CHILD = """\
import json, sys
from time import perf_counter
from schur_isotropy import chern
from schur_isotropy.schur import schur_ones_hook_content
route, shape, k, ns = sys.argv[1], tuple(json.loads(sys.argv[2])), int(sys.argv[3]), json.loads(sys.argv[4])
start = perf_counter()
if route == "localization":
    values = chern.localization_integrals(shape, k, ns)
    nonzero = [values[n] > 0 for n in ns]
else:
    nonzero = [chern.top_chern_nonzero(shape, k, n).nonzero for n in ns]
seconds = perf_counter() - start
cost = chern.localization_cost(k, max(ns), schur_ones_hook_content(shape, k))
print(json.dumps({"s": seconds, "nonzero": nonzero, "cost": cost}))
"""


def time_once(route: str, shape: tuple[int, ...], k: int, ns: tuple[int, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, route, json.dumps(shape), str(k), json.dumps(ns)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="where to write the JSON report")
    args = parser.parse_args()

    rungs = []
    agree = True
    for shape, k, ns, with_expansion in RUNGS:
        routes = ("localization", "expansion") if with_expansion else ("localization",)
        rung = {"lambda": list(shape), "k": k, "n": list(ns)}
        verdicts = set()
        for route in routes:
            runs = [time_once(route, shape, k, ns) for _ in range(REPEATS)]
            rung["predicted_cost"] = runs[0]["cost"]
            verdicts.update(tuple(run["nonzero"]) for run in runs)
            seconds = [round(run["s"], 4) for run in runs]
            rung[route] = {
                "seconds": seconds,
                "median_s": round(statistics.median(seconds), 4),
                "nonzero": runs[0]["nonzero"],
            }
        agree = agree and len(verdicts) == 1
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
