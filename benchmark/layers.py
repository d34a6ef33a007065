"""Per-layer metrics of a traced run, derived from merged span summaries.

Each metric names the module (layer) it measures.  Times are the median
over traced passes; counts come from one pass and must repeat exactly on
every pass and every run with the same seed.  A metric whose span has no
installed wrapper (the function was deleted or renamed) reports absent
(value null).  A layer a workload never calls reports 0.
"""

from __future__ import annotations

from statistics import median


def _ratio(a, b):
    return a / b if b else 0.0


# name, unit, better, spans it needs, value from the (sum, max) totals of a pass
LAYER_METRICS = [
    ("tableaux.enumerate_s", "s", "lower", ["tableaux.enumerate"],
     lambda s, m: s.get("tableaux.enumerate.s", 0.0)),
    ("tableaux.count_s", "s", "lower", ["tableaux.count"],
     lambda s, m: s.get("tableaux.count.s", 0.0)),
    ("tableaux.tableaux", "count", "lower", ["tableaux.enumerate"],
     lambda s, m: s.get("enumerate.tableaux", 0)),
    ("tableaux.distinct_weights", "count", "lower", ["tableaux.enumerate"],
     lambda s, m: s.get("enumerate.distinct_weights", 0)),
    ("sympoly.multiply_s", "s", "lower", ["sympoly.multiply"],
     lambda s, m: s.get("sympoly.multiply.s", 0.0)),
    ("sympoly.expand_s", "s", "lower", ["sympoly.expand"],
     lambda s, m: s.get("sympoly.expand.s", 0.0)),
    ("sympoly.mul_linear_calls", "count", "lower", ["sympoly.mul_linear"],
     lambda s, m: s.get("sympoly.mul_linear.calls", 0)),
    ("sympoly.term_ops", "count", "lower", ["sympoly.mul_linear"],
     lambda s, m: s.get("mul_linear.term_ops", 0)),
    ("sympoly.peak_terms", "count", "lower", ["sympoly.mul_linear"],
     lambda s, m: m.get("mul_linear.peak_terms", 0)),
    ("sympoly.product_terms", "count", "lower", ["sympoly.multiply"],
     lambda s, m: s.get("multiply.product_terms", 0)),
    ("chern.oracle_s", "s", "lower", ["chern.oracle"],
     lambda s, m: s.get("chern.oracle.s", 0.0)),
    ("chern.oracle_self_s", "s", "lower", ["chern.oracle"],
     lambda s, m: s.get("chern.oracle.self_s", 0.0)),
    ("chern.oracle_calls", "count", "lower", ["chern.oracle"],
     lambda s, m: s.get("chern.oracle.calls", 0)),
    ("chern.expansion_hits", "count", "higher", ["chern.oracle", "tableaux.enumerate", "sympoly.multiply"],
     lambda s, m: s.get("oracle.hits", 0)),
    ("chern.expansion_misses", "count", "lower", ["chern.oracle", "tableaux.enumerate", "sympoly.multiply"],
     lambda s, m: s.get("oracle.misses", 0)),
    ("chern.expansion_hit_ratio", "ratio", "higher", ["chern.oracle", "tableaux.enumerate", "sympoly.multiply"],
     lambda s, m: _ratio(s.get("oracle.hits", 0),
                         s.get("oracle.hits", 0) + s.get("oracle.misses", 0))),
    ("chern.shortcut_degree", "count", "higher", ["chern.oracle"],
     lambda s, m: s.get("oracle.shortcut.degree-exceeds-top", 0)),
    ("chern.shortcut_empty", "count", "higher", ["chern.oracle"],
     lambda s, m: s.get("oracle.shortcut.empty-weights", 0)),
    ("chern.expansion_classes", "count", "lower", ["chern.oracle", "sympoly.expand"],
     lambda s, m: s.get("oracle.expansion_classes", 0)),
    ("chern.surviving_classes", "count", "lower", ["chern.oracle", "sympoly.expand"],
     lambda s, m: s.get("oracle.surviving_classes", 0)),
    ("chern.keep_ratio", "ratio", "higher", ["chern.oracle", "sympoly.expand"],
     lambda s, m: _ratio(s.get("oracle.surviving_classes", 0),
                         s.get("oracle.expansion_classes", 0))),
    ("chern.sweep_s", "s", "lower", ["chern.sweep"],
     lambda s, m: s.get("chern.sweep.s", 0.0)),
    ("chern.sweep_cases", "count", "higher", ["chern.sweep"],
     lambda s, m: s.get("sweep.cases", 0)),
    ("chern.sweep_compared", "count", "higher", ["chern.sweep"],
     lambda s, m: s.get("sweep.compared", 0)),
    ("chern.sweep_skipped", "count", "lower", ["chern.sweep"],
     lambda s, m: s.get("sweep.skipped", 0)),
    ("chern.disagreements", "count", "lower", ["chern.sweep"],
     lambda s, m: s.get("sweep.disagreements", 0)),
    ("isotropy.decide_s", "s", "lower", ["isotropy.decide"],
     lambda s, m: s.get("isotropy.decide.s", 0.0)),
    ("isotropy.decide_calls", "count", "lower", ["isotropy.decide"],
     lambda s, m: s.get("isotropy.decide.calls", 0)),
    ("isotropy.oracle_fallback_calls", "count", "lower", ["isotropy.decide"],
     lambda s, m: s.get("decide.oracle_fallback", 0)),
    ("isotropy.min_n_s", "s", "lower", ["isotropy.min_n"],
     lambda s, m: s.get("isotropy.min_n.s", 0.0)),
    ("isotropy.min_n_scan_steps", "count", "lower", ["isotropy.min_n", "isotropy.decide"],
     lambda s, m: s.get("min_n.scan_steps", 0)),
    ("isotropy.proof_chain_s", "s", "lower", ["isotropy.proof_chain"],
     lambda s, m: s.get("isotropy.proof_chain.s", 0.0)),
    ("isotropy.lemma36_s", "s", "lower", ["isotropy.lemma36"],
     lambda s, m: s.get("isotropy.lemma36.s", 0.0)),
    ("schur.hook_content_s", "s", "lower", ["schur.hook_content"],
     lambda s, m: s.get("schur.hook_content.s", 0.0)),
    ("schur.hook_content_calls", "count", "lower", ["schur.hook_content"],
     lambda s, m: s.get("schur.hook_content.calls", 0)),
    ("schur.hook_content_boxes", "count", "lower", ["schur.hook_content"],
     lambda s, m: s.get("hook_content.boxes", 0)),
]

# Measured by the runner around each CLI process, not from spans.
CLI_METRICS = [
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
]

TRACE_METRICS = [
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def all_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return ([(name, unit, better) for name, unit, better, _, _ in LAYER_METRICS]
            + CLI_METRICS + TRACE_METRICS)


def merge(summaries) -> dict:
    """Combine per-process span summaries of one pass."""
    total: dict = {}
    maximum: dict = {}
    installed: set = set()
    for summary in summaries:
        for key, value in summary["sum"].items():
            total[key] = total.get(key, 0) + value
        for key, value in summary["max"].items():
            maximum[key] = max(maximum.get(key, 0), value)
        installed.update(summary["installed"])
    return {"sum": total, "max": maximum, "installed": installed}


def span_metrics(pass_summaries: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values over the traced passes, and the counts that did not repeat."""
    values: dict = {}
    unstable = []
    for name, unit, _, needs, value_of in LAYER_METRICS:
        if not all(span in pass_summaries[0]["installed"] for span in needs):
            values[name] = None
            continue
        per_pass = [value_of(p["sum"], p["max"]) for p in pass_summaries]
        if unit == "s":
            values[name] = median(per_pass)
        else:
            values[name] = per_pass[0]
            if any(v != per_pass[0] for v in per_pass):
                unstable.append(name)
    return values, unstable
