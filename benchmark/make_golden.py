"""Regenerate golden.json: oracle outputs that have no closed form.

Records the surviving Schur classes of every oracle input the workloads can
draw (the ladder rungs at n = t, t+1, t+2, the zero-class rung, and the
small CLI oracle queries) and the oracle verdict of every case the largest
sweep window compares.  Run once from the repository root and commit the
result with the code that produced it:

    PYTHONPATH=src python3 benchmark/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import schur_isotropy as pkg  # noqa: E402
from reference import partitions_of, threshold, weyl_dim  # noqa: E402
from verify import GOLDEN_PATH, key  # noqa: E402
from workloads import (  # noqa: E402
    LADDER, SWEEP_KS, SWEEP_NS, SWEEP_SIZES, ZERO_CLASS,
)

# The CLI oracle queries draw shapes of at most 3 boxes, 2 <= k <= 4 and
# dim <= 20 (see workloads._cli_args).
CLI_ORACLE_MAX_SIZE = 3
CLI_ORACLE_KS = range(2, 5)
CLI_ORACLE_MAX_DIM = 20


def oracle_inputs():
    inputs = [(shape, k, threshold(shape, k) + step)
              for shape, k in LADDER for step in range(3)]
    inputs.append(ZERO_CLASS)
    for size in range(1, CLI_ORACLE_MAX_SIZE + 1):
        for shape in partitions_of(size):
            for k in CLI_ORACLE_KS:
                if len(shape) <= k and weyl_dim(shape, k) <= CLI_ORACLE_MAX_DIM:
                    t = threshold(shape, k)
                    inputs += [(shape, k, n) for n in range(t, t + 3)]
    return inputs


def main() -> None:
    oracle = {}
    for shape, k, n in oracle_inputs():
        verdict = pkg.top_chern_nonzero(pkg.Partition(shape), k, n)
        oracle[key(shape, k, n)] = [[list(mu), c] for mu, c in verdict.surviving]
    cases = pkg.run_sweep(max(SWEEP_SIZES), max(SWEEP_KS), max(SWEEP_NS), with_oracle=True)
    sweep = {
        key(c.shape, c.k, c.n): c.oracle_nonzero
        for c in cases if c.oracle_nonzero is not None
    }
    sections = []
    for name, table in (("oracle", oracle), ("sweep", sweep)):
        lines = ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())
        )
        sections.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(oracle)} oracle and {len(sweep)} sweep entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
