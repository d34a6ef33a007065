"""Self-test of the benchmark's own checks; needs neither the package nor a run.

    python3 benchmark/selftest.py

Shows that a flipped verdict, a wrong oracle output, an exception and a
slow op each count in failed_ratio; that the reference dimension agrees
with known values; that op lists are a pure function of the seed; that a
traced function that disappears reports its metrics as absent; and that
BENCHMARK.json names exactly the metrics the runner reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, all_metric_specs, span_metrics  # noqa: E402
from reference import expected_verdict, threshold, weyl_dim  # noqa: E402
from run import Pass, count_failures, end_to_end  # noqa: E402
from verify import check, golden, key  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _failed_ratio(op, record) -> float:
    run = Pass(traced=False)
    good_op = {"op": "threshold_n", "shape": [2, 1], "k": 3, "id": 1}
    run.records = [(good_op, {"s": 0.001, "out": threshold((2, 1), 3)}), (op, record)]
    attempted, failures = count_failures([run])
    return len(failures) / attempted


def test_flipped_verdict_counts() -> None:
    op = {"op": "decide", "shape": [4, 2, 1], "k": 5, "n": 20, "id": 0}
    isotropic, rule, t = expected_verdict(op["shape"], op["k"], op["n"])
    right = {"isotropic": isotropic, "rule": rule, "threshold_n": t}
    flipped = dict(right, isotropic=not isotropic)
    assert _failed_ratio(op, {"s": 0.001, "out": right}) == 0.0
    assert _failed_ratio(op, {"s": 0.001, "out": flipped}) == 0.5


def test_documented_skew_case_accepted_either_way() -> None:
    op = {"op": "decide", "shape": [1, 1], "k": 3, "n": 5, "id": 0}
    for isotropic in (True, False):
        out = {"isotropic": isotropic, "rule": "exception-degree-2", "threshold_n": 6}
        assert check(op, {"s": 0.001, "out": out}) is None
    moved = {"op": "decide", "shape": [1, 1], "k": 3, "n": 4, "id": 0}
    out = {"isotropic": True, "rule": "exception-degree-2", "threshold_n": 6}
    assert check(moved, {"s": 0.001, "out": out}) is not None


def test_wrong_oracle_output_counts() -> None:
    shape, k, n = (2, 1), 4, threshold((2, 1), 4)
    surviving = golden()["oracle"][key(shape, k, n)]
    out = {"nonzero": True, "degree": weyl_dim(shape, k), "shortcut": "none",
           "surviving": surviving}
    op = {"op": "oracle", "shape": list(shape), "k": k, "n": n, "id": 0}
    assert check(op, {"s": 0.1, "out": out}) is None
    bad = dict(out, surviving=[[mu, c + 1] for mu, c in surviving])
    assert _failed_ratio(op, {"s": 0.1, "out": bad}) == 0.5
    flipped = dict(out, nonzero=False, surviving=[])
    assert _failed_ratio(op, {"s": 0.1, "out": flipped}) == 0.5


def test_sweep_flip_counts() -> None:
    op = {"op": "sweep", "max_size": 2, "max_k": 2, "max_n": 4, "id": 0}
    from reference import sweep_cases, sweep_compares

    cases = []
    for shape, k, n in sweep_cases(2, 2, 4):
        isotropic, rule, t = expected_verdict(shape, k, n)
        oracle = golden()["sweep"][key(shape, k, n)] if sweep_compares(shape, k) else None
        cases.append([list(shape), k, n, isotropic, rule, t, oracle])
    assert check(op, {"s": 0.1, "out": cases}) is None
    index = next(i for i, case in enumerate(cases) if case[0] == [2])
    cases[index][6] = not cases[index][6]
    assert _failed_ratio(op, {"s": 0.1, "out": cases}) == 0.5


def test_exception_and_slow_op_count() -> None:
    op = {"op": "threshold_n", "shape": [3, 1], "k": 4, "id": 0}
    assert _failed_ratio(op, {"s": 0.001, "error": "DomainError: boom"}) == 0.5
    assert _failed_ratio(op, {"s": 1e6, "out": threshold((3, 1), 4)}) == 0.5


def test_weyl_dimension() -> None:
    assert weyl_dim((2, 1), 3) == 8
    assert weyl_dim((1, 1, 1), 5) == 10
    assert weyl_dim((3,), 5) == 35
    assert weyl_dim((2, 1), 5) == 40
    assert weyl_dim((1, 1, 1), 2) == 0
    assert threshold((2, 1), 3) == 3 + 3


def test_seeded_inputs() -> None:
    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)
    assert generate("decide-large", 7) != generate("decide-large", 8)
    assert generate("cli-queries", 7) != generate("cli-queries", 8)


def test_absent_function_reports_absent() -> None:
    installed = {spec for _, _, _, needs, _ in LAYER_METRICS for spec in needs}
    installed.discard("sympoly.multiply")
    values, unstable = span_metrics([{"sum": {}, "max": {}, "installed": installed}])
    assert values["sympoly.multiply_s"] is None
    assert values["sympoly.product_terms"] is None
    assert values["sympoly.expand_s"] == 0.0
    assert not unstable


def test_benchmark_json_matches_runner() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == all_metric_specs(), "per_layer differs from layers.py"
    run = Pass(traced=False)
    run.records = [({"op": "x", "id": 0}, {"s": 0.5})]
    run.setup = [0.1]
    metrics, _ = end_to_end([run])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, value["unit"]) for name, value in metrics.items()
    ]
    # BENCHMARK.json may list a subset: every workload stays runnable by hand.
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
