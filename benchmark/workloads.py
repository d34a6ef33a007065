"""Seeded input generation for the four workloads (standard library only).

Each generator returns the op list of one pass.  The same seed gives the
same list; the seed moves which inputs are drawn and their order, while the
mix of op kinds and sizes is fixed per workload so that a pass costs about
the same on every seed.
"""

from __future__ import annotations

import random

from reference import chain_in_scope, partitions_of, threshold, weyl_dim

WORKLOADS = ("oracle-ladder", "sweep-oracle", "decide-large", "cli-queries")

# (shape, k) rungs of the oracle ladder, all distinct so the (shape, k)
# expansion cache never hits.  (2,1)k5 and (1,1,1)k6 (about 7 s each) are
# left out: one of them would more than triple the time of a pass.
LADDER = (
    ((2, 1), 4),
    ((2, 2), 4),
    ((2, 1, 1), 4),
    ((4,), 4),
    ((3, 1), 4),
    ((3,), 5),
)
# The zero-class rung: alternating 3-forms on C^7 have no isotropic 5-plane.
ZERO_CLASS = ((1, 1, 1), 5, 7)

SWEEP_SIZES = (4, 5)
SWEEP_KS = (4, 5)
SWEEP_NS = (8, 9, 10)
# (5, 5, 10) alone costs as much as the other eleven windows together (its
# (2,1,1,1)k5 expansion is oracle-ladder work), and eleven windows put the
# median op inside a cluster of similar windows instead of between two.
SWEEP_LEFT_OUT = ((5, 5, 10),)

# decide-large strata: (rows, boxes).  The first part is fixed per stratum
# (about 1.3 x boxes/rows) and the seed draws the remaining parts, so the
# hook-content cost (boxes x columns) is the same on every seed.
DECIDE_STRATA = tuple(
    (rows, size)
    for size in (10, 30, 90)
    for rows in range(1, 7)
) + ((1, 200), (2, 150), (3, 200), (4, 250), (6, 400))

# min-n strata: (rows, boxes, k, target scan steps).  The seed picks a shape
# whose linear scan takes within 15% of the target number of decide() calls.
MIN_N_STRATA = (
    (2, 10, 3, 100),
    (3, 12, 4, 200),
    (2, 14, 3, 300),
    (3, 10, 6, 500),
    (4, 12, 6, 700),
    (3, 9, 8, 1000),
)

CLI_MIX = (
    ("dim", 6),
    ("decide", 6),
    ("min-n", 6),
    ("check-lemma36", 6),
    ("proof-chain", 6),
    ("oracle", 6),
    ("self-check", 2),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shape_with(rng: random.Random, rows: int, size: int, first: int) -> tuple:
    """A partition with exactly ``rows`` parts, first part ``first``, sum ``size``."""
    parts = [first] + [1] * (rows - 1)
    left = size - first - (rows - 1)
    while left:
        row = rng.randrange(1, rows)
        if parts[row] < first:
            parts[row] += 1
            left -= 1
    return tuple(sorted(parts, reverse=True))


def _first_part(rows: int, size: int) -> int:
    return min(size - rows + 1, max(-(-size // rows), round(1.3 * size / rows)))


def oracle_ladder(seed: int) -> list[dict]:
    rng = _rng("oracle-ladder", seed)
    ops = [
        {"op": "oracle", "shape": list(shape), "k": k,
         "n": threshold(shape, k) + rng.randrange(3)}
        for shape, k in LADDER
    ]
    shape, k, n = ZERO_CLASS
    ops.append({"op": "oracle", "shape": list(shape), "k": k, "n": n})
    rng.shuffle(ops)
    return ops


def sweep_oracle(seed: int) -> list[dict]:
    rng = _rng("sweep-oracle", seed)
    ops = [
        {"op": "sweep", "max_size": s, "max_k": k, "max_n": n}
        for s in SWEEP_SIZES for k in SWEEP_KS for n in SWEEP_NS
        if (s, k, n) not in SWEEP_LEFT_OUT
    ]
    rng.shuffle(ops)
    return ops


def _min_n_shape(rng: random.Random, rows: int, size: int, k: int, target: int):
    candidates = [
        p for p in partitions_of(size)
        if len(p) == rows and p[0] >= 2
    ]
    steps = {p: threshold(p, k) - k + 1 for p in candidates}
    near = [p for p in candidates if abs(steps[p] - target) <= 0.15 * target]
    if not near:
        near = sorted(candidates, key=lambda p: abs(steps[p] - target))[:1]
    return rng.choice(near)


def decide_large(seed: int) -> list[dict]:
    rng = _rng("decide-large", seed)
    ops = []
    for index, (rows, size) in enumerate(DECIDE_STRATA):
        shape = list(_shape_with(rng, rows, size, _first_part(rows, size)))
        k = rows + (rows + index) % 5
        if rows == 2 and k == 2:
            k = 3  # k = 2 two-row shapes go to the oracle fallback
        t = threshold(shape, k)
        ops.append({"op": "decide", "shape": shape, "k": k, "n": t - 1})
        ops.append({"op": "decide", "shape": shape, "k": k, "n": t})
        ops.append({"op": "threshold_n", "shape": shape, "k": k})
        ops.append({"op": "lemma36", "shape": shape, "k": k,
                    "n": t - rng.randrange(2)})
        if chain_in_scope(shape, k):
            ops.append({"op": "proof_chain", "shape": shape, "k": k, "n": t})
    for rows, size, k, target in MIN_N_STRATA:
        shape = _min_n_shape(rng, rows, size, k, target)
        ops.append({"op": "min_n", "shape": list(shape), "k": k})
    rng.shuffle(ops)
    return ops


def _small_shape(rng: random.Random, max_size: int, min_size: int = 1) -> tuple:
    size = rng.randint(min_size, max_size)
    return rng.choice(list(partitions_of(size)))


def _cli_args(rng: random.Random, command: str) -> list[str]:
    if command == "self-check":
        return ["self-check"]
    if command == "dim":
        shape = _small_shape(rng, 8)
        return ["dim", "--lambda", _text(shape), "--n", str(rng.randint(0, 8))]
    if command in ("decide", "check-lemma36"):
        shape = _small_shape(rng, 8, 3)
        k = rng.randint(3, 6)
        n = threshold(shape, k) + rng.randint(-2, 1)
        return [command, "--lambda", _text(shape), "--k", str(k),
                "--n", str(max(n, k))]
    if command == "min-n":
        while True:
            shape = _small_shape(rng, 6, 3)
            k = rng.randint(3, 5)
            if weyl_dim(shape, k) <= 300:
                return ["min-n", "--lambda", _text(shape), "--k", str(k)]
    if command == "proof-chain":
        while True:
            shape = _small_shape(rng, 8, 3)
            k = rng.randint(3, 6)
            if chain_in_scope(shape, k):
                return ["proof-chain", "--lambda", _text(shape), "--k", str(k),
                        "--n", str(threshold(shape, k) + rng.randint(0, 2))]
    if command == "oracle":
        while True:
            shape = _small_shape(rng, 3)
            k = rng.randint(max(2, len(shape)), 4)
            if weyl_dim(shape, k) <= 20:
                n = threshold(shape, k) + rng.randint(-1, 2)
                return ["oracle", "--lambda", _text(shape), "--k", str(k),
                        "--n", str(max(n, k))]
    raise ValueError(f"unknown command {command}")


def _text(shape) -> str:
    return ",".join(map(str, shape))


def cli_queries(seed: int) -> list[dict]:
    rng = _rng("cli-queries", seed)
    ops = []
    for command, count in CLI_MIX:
        with_json = [True] * (count // 2) + [False] * (count - count // 2)
        rng.shuffle(with_json)
        for as_json in with_json:
            argv = _cli_args(rng, command)
            if as_json:
                argv.append("--json")
            ops.append({"op": "cli", "argv": argv})
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "oracle-ladder": oracle_ladder,
    "sweep-oracle": sweep_oracle,
    "decide-large": decide_large,
    "cli-queries": cli_queries,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass, each op tagged with its position as ``id``."""
    ops = GENERATORS[workload](seed)
    for index, op in enumerate(ops):
        op["id"] = index
    return ops
