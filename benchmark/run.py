"""Benchmark of schur-isotropy: four seeded workloads, end-to-end and per layer.

Run from the repository root:

    python3 benchmark/run.py --workload oracle-ladder --seed 1 --seconds 60 --trace 0

A run repeats the workload's pass (its fixed, seeded op list) in fresh
interpreters for about ``--seconds`` seconds, checks every op's output
against benchmark-owned references, and prints one JSON object as the last
line of stdout.  With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` passes alternate traced and untraced and it holds the
per-layer metrics (see METRICS.md).  The line before it carries run
details: Python version, CPU count, commit, op counts, failed_ratio and,
where a run holds at least 100 ops, op_p90_ms.  Spans and a full report go
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time as wall_clock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import CLI_METRICS, all_metric_specs, merge, span_metrics  # noqa: E402
from verify import check  # noqa: E402
from worker import TRACE_MARK  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

WORKER = str(HERE / "worker.py")
RSS_MARK = "BENCH-RSS "
# An untraced CLI query is `python -m schur_isotropy.cli` plus an exit hook
# that reports the process's own peak resident set (VmHWM) on stderr.
CLI_BOOT = f"""\
import atexit, runpy, sys

def report_peak():
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{RSS_MARK}" + peak + "\\n")

atexit.register(report_peak)
runpy.run_module("schur_isotropy.cli", run_name="__main__", alter_sys=True)
"""
# The whole run, last pass included, ends by then (the limit is 180 s).
HARD_LIMIT_S = 150.0
CLI_OP_TIMEOUT_S = 30.0
P90_MIN_OPS = 100
# Set-up samples per pass (import + input generation in a fresh
# interpreter): each worker reports one, and probes make up the rest.
SETUP_SAMPLES = 4


class Pass:
    """One pass over the op list: per-op records, set-up samples, trace summary."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.records: list[tuple[dict, dict]] = []
        self.setup: list[float] = []
        self.summaries: list[dict] = []
        self.cli_times: list[dict] = []
        self.peaks_kb: list[int] = []
        self.output_bytes = 0
        self.aborted = False

    @property
    def wall_s(self) -> float:
        return sum(record["s"] for _, record in self.records)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool, out_dir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.ops = generate(workload, seed)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.spans_path = str(out_dir / f"{workload}-seed{seed}.spans.jsonl")
        self.deadline = perf_counter() + HARD_LIMIT_S
        if trace:
            Path(self.spans_path).write_text("", encoding="utf-8")

    def spawn(self, argv: list[str], timeout: float | None = None):
        """Run a child to completion.

        Returns (completed process, seconds from spawn to exit, wall-clock
        spawn and exit times), or None when it was killed at its time limit.
        """
        limit = self.deadline - perf_counter()
        if timeout is not None:
            limit = min(limit, timeout)
        spawned = wall_clock()
        start = perf_counter()
        try:
            done = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(limit, 0.1),
            )
        except subprocess.TimeoutExpired:
            return None
        return done, perf_counter() - start, spawned, wall_clock()

    def worker(self, *args: str):
        """Run worker.py and parse its JSON line; None when it failed or timed out."""
        result = self.spawn([sys.executable, WORKER, *args])
        if result is None:
            return None
        done = result[0]
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
            return None
        lines = done.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def warm_up(self) -> bool:
        """Import once untimed, so bytecode caches exist before measuring."""
        return self.worker("setup", self.workload, str(self.seed)) is not None

    def run_pass(self, traced: bool) -> Pass:
        current = Pass(traced)
        if self.workload == "cli-queries":
            self._cli_pass(current)
        elif self.workload == "sweep-oracle":
            for index in range(len(self.ops)):
                self._ops_pass(current, [str(index)])
                if current.aborted:
                    break
        else:
            self._ops_pass(current, [])
        for _ in range(SETUP_SAMPLES - len(current.setup)):
            probe = self.worker("setup", self.workload, str(self.seed))
            if probe is not None:
                current.setup.append(probe["setup_s"])
        missing = {op["id"] for op in self.ops} - {op["id"] for op, _ in current.records}
        for op in self.ops:
            if op["id"] in missing:
                current.records.append((op, {"s": 0.0, "error": "not run: the run's time limit was reached"}))
        return current

    def _ops_pass(self, current: Pass, only: list[str]) -> None:
        report = self.worker(
            "ops", self.workload, str(self.seed), "1" if current.traced else "0",
            self.spans_path if current.traced else "-", *only,
        )
        if report is None:
            current.aborted = True
            return
        by_id = {op["id"]: op for op in self.ops}
        current.records += [(by_id[record["id"]], record) for record in report["ops"]]
        current.setup.append(report["setup_s"])
        current.peaks_kb.append(report["peak_rss_kb"])
        if "trace" in report:
            current.summaries.append(report["trace"])

    def _cli_pass(self, current: Pass) -> None:
        for op in self.ops:
            if current.traced:
                argv = [sys.executable, WORKER, "cli", self.spans_path, *op["argv"]]
            else:
                argv = [sys.executable, "-c", CLI_BOOT, *op["argv"]]
            result = self.spawn(argv, CLI_OP_TIMEOUT_S)
            if result is None:
                current.records.append((op, {"s": CLI_OP_TIMEOUT_S, "error": "killed at the time limit"}))
                current.aborted = True
                return
            done, seconds, spawned, exited = result
            stderr = done.stderr
            if current.traced:
                stderr, trailer = _split_mark(stderr, TRACE_MARK)
                if trailer is None:
                    current.records.append((op, {"s": seconds, "error": "no trace trailer"}))
                    continue
                timing = json.loads(trailer)
                current.summaries.append(timing["trace"])
                current.cli_times.append({
                    # start-up before the probe's first line plus exit after its last
                    "interpreter_ms": 1000 * (timing["started"] - spawned
                                              + exited - timing["finished"]),
                    "import_ms": 1000 * timing["import_s"],
                    "run_ms": 1000 * timing["run_s"],
                })
            else:
                stderr, peak = _split_mark(stderr, RSS_MARK)
                if peak is not None:
                    current.peaks_kb.append(int(peak))
            current.output_bytes += len(done.stdout.encode("utf-8"))
            out = {"code": done.returncode, "stdout": done.stdout, "stderr": stderr}
            current.records.append((op, {"s": seconds, "out": out}))


def _split_mark(text: str, mark: str) -> tuple[str, str | None]:
    """Text before the last line starting with ``mark``, and the rest of that line."""
    head, found, tail = text.rpartition("\n" + mark)
    return (head, tail.strip()) if found else (text, None)


def _commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree; 'unknown' otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    complete = [p for p in passes if not p.aborted] or passes
    op_ms = [1000 * record["s"] for p in complete for _, record in p.records]
    setup = [s for p in passes for s in p.setup]
    metrics = {
        "setup_s": _metric(statistics.median(setup) if setup else 0.0, "s"),
        "wall_s": _metric(statistics.median(p.wall_s for p in complete), "s"),
        "op_p50_ms": _metric(statistics.median(op_ms), "ms"),
        "peak_rss_mb": _metric(
            statistics.median(max(p.peaks_kb, default=0) for p in complete) / 1024, "MB"),
    }
    extra = {"ops_timed": len(op_ms)}
    if len(op_ms) >= P90_MIN_OPS:
        extra["op_p90_ms"] = statistics.quantiles(op_ms, n=10)[-1]
    return metrics, extra


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced and not p.aborted]
    untraced = [p for p in passes if not p.traced and not p.aborted]
    units = {name: unit for name, unit, _ in all_metric_specs()}
    if not traced:
        return {name: _metric(None, unit) for name, unit in units.items()}, []
    values, unstable = span_metrics([merge(p.summaries) for p in traced])
    cli_times = [t for p in traced for t in p.cli_times]
    for name, _, _ in CLI_METRICS:
        field = name.split(".", 1)[1]
        if field == "output_bytes":
            values[name] = traced[0].output_bytes
        else:
            values[name] = statistics.median(t[field] for t in cli_times) if cli_times else 0.0
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced) if untraced else None
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else None
    return {name: _metric(values[name], unit) for name, unit in units.items()}, unstable


def count_failures(passes: list[Pass]) -> tuple[int, list[dict]]:
    """Ops attempted, and each op with wrong output, an exception or over its limit."""
    attempted = 0
    failures = []
    for p in passes:
        for op, record in p.records:
            attempted += 1
            reason = check(op, record)
            if reason is not None:
                failures.append({"op": op, "reason": reason})
    return attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "schur_isotropy" / "__init__.py").is_file():
        print("error: src/schur_isotropy not found; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    runner = Runner(root, args.workload, args.seed, trace, out_dir)
    if not runner.warm_up():
        print("error: the package does not import", file=sys.stderr)
        return 1

    start = perf_counter()
    passes: list[Pass] = []
    min_passes = 2 if trace else 1
    while True:
        traced = trace and len(passes) % 2 == 0
        pass_start = perf_counter()
        passes.append(runner.run_pass(traced))
        if passes[-1].aborted:
            break
        now = perf_counter()
        if len(passes) >= min_passes and now - start + (now - pass_start) > args.seconds:
            break

    attempted, failures = count_failures(passes)
    for failure in failures[:5]:
        print(f"FAILED op {failure['op']}: {failure['reason']}", file=sys.stderr)

    if trace:
        metrics, unstable = per_layer(passes)
        extra = {"counts_not_repeating": unstable}
    else:
        metrics, extra = end_to_end(passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": _cpu_count(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "passes": len(passes),
        "ops_per_pass": len(runner.ops),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "run_s": perf_counter() - start,
        **extra,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    report = {"info": info, "result": result, "failures": failures[:50],
              "pass_wall_s": [p.wall_s for p in passes],
              "pass_op_s": [{op["id"]: record["s"] for op, record in p.records}
                            for p in passes]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
