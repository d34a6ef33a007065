"""Child process of the benchmark: one fresh interpreter per pass or query.

  worker.py ops <workload> <seed> <trace 0|1> <spans file|-> [op index]
      import the package, generate the pass, run its ops (or the one op at
      ``op index``) and print one JSON line with setup time, per-op times,
      outputs, and with tracing the span summary.
  worker.py setup <workload> <seed>
      import the package and generate the pass; print the set-up time.
  worker.py cli <spans file> <argv...>
      a traced ``schur-isotropy`` query: times the import of the cli module
      and ``cli.run`` separately, prints the command's own output, and puts
      the timings, its wall-clock start and end, and the span summary on the
      last line of stderr.

The package is found through PYTHONPATH; only public names are used.
"""

from __future__ import annotations

from time import time as wall_clock

STARTED = wall_clock()  # before any other import: the CLI probe's interpreter start

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

TRACE_MARK = "BENCH-TRACE "


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec.

    ``ru_maxrss`` also counts the parent's resident set at fork time, so
    VmHWM is read where /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tracer(package):
    """A tracer wrapped around the package and every one of its submodules."""
    from tracer import Tracer, install

    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    tracer = Tracer()
    install(tracer, modules)
    return tracer


def run_op(pkg, op: dict):
    """Call the package for one op; returns (call seconds, JSON-able output)."""
    kind = op["op"]
    if kind == "sweep":
        start = perf_counter()
        cases = pkg.run_sweep(op["max_size"], op["max_k"], op["max_n"], with_oracle=True)
        elapsed = perf_counter() - start
        return elapsed, [
            [list(c.shape), c.k, c.n, c.isotropic, c.rule, c.threshold_n,
             c.oracle_nonzero]
            for c in cases
        ]
    shape = pkg.Partition(op["shape"])
    k = op["k"]
    start = perf_counter()
    if kind == "oracle":
        result = pkg.top_chern_nonzero(shape, k, op["n"])
    elif kind == "decide":
        result = pkg.decide(shape, k, op["n"])
    elif kind == "threshold_n":
        result = pkg.threshold_n(shape, k)
    elif kind == "lemma36":
        result = pkg.tevelev_inequalities(shape, k, op["n"])
    elif kind == "proof_chain":
        result = pkg.verify_proof_chain(shape, k, op["n"])
    elif kind == "min_n":
        result = pkg.min_isotropic_n(shape, k)
    else:
        raise ValueError(f"unknown op {kind}")
    elapsed = perf_counter() - start
    if kind == "oracle":
        out = {
            "nonzero": result.nonzero,
            "degree": result.degree,
            "shortcut": result.shortcut,
            "surviving": [[list(mu), coeff] for mu, coeff in result.surviving],
        }
    elif kind == "decide":
        out = {"isotropic": result.isotropic, "rule": result.rule,
               "threshold_n": result.threshold_n}
    elif kind == "lemma36":
        out = [[r.index, r.lhs, r.rhs, r.holds] for r in result.rows]
    elif kind == "proof_chain":
        out = [[s.name, s.holds] for s in result]
    else:
        out = result
    return elapsed, out


def cmd_ops(workload: str, seed: int, trace: bool, spans_path: str, only) -> None:
    start = perf_counter()
    import schur_isotropy as pkg
    from workloads import generate

    ops = generate(workload, seed)
    if only is not None:
        ops = [ops[only]]
    setup_s = perf_counter() - start
    tracer = _tracer(pkg) if trace else None
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["id"]
        op_start = perf_counter()
        try:
            seconds, out = run_op(pkg, op)
            records.append({"id": op["id"], "s": seconds, "out": out})
        except Exception as exc:  # reported to the parent as a failed op
            records.append({
                "id": op["id"], "s": perf_counter() - op_start,
                "error": f"{type(exc).__name__}: {exc}",
            })
    report = {
        "setup_s": setup_s,
        "ops": records,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spans_path != "-":
            tracer.dump(spans_path, {"workload": workload, "seed": seed, "op": only})
    print(json.dumps(report))


def cmd_setup(workload: str, seed: int) -> None:
    start = perf_counter()
    import schur_isotropy  # noqa: F401
    from workloads import generate

    generate(workload, seed)
    print(json.dumps({"setup_s": perf_counter() - start}))


def cmd_cli(spans_path: str, argv: list[str]) -> int:
    start = perf_counter()
    import schur_isotropy
    from schur_isotropy import cli

    imported = perf_counter()
    tracer = _tracer(schur_isotropy)
    captured = io.StringIO()
    run_start = perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.run(argv)
    run_end = perf_counter()
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    if spans_path != "-":
        tracer.dump(spans_path, {"argv": argv})
    trailer = {
        "started": STARTED,
        "import_s": imported - start,
        "run_s": run_end - run_start,
        "trace": tracer.summary(),
    }
    trailer["finished"] = wall_clock()
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(trailer) + "\n")
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "ops":
        only = int(argv[5]) if len(argv) > 5 else None
        cmd_ops(argv[1], int(argv[2]), argv[3] == "1", argv[4], only)
        return 0
    if mode == "setup":
        cmd_setup(argv[1], int(argv[2]))
        return 0
    if mode == "cli":
        return cmd_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
