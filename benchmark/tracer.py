"""Span tracer installed from outside the package for the traced runs.

Each public function is wrapped at the module attribute its callers look it
up by, so calls made inside the package are seen without editing it.  Spans
(name, start, end, parent, op id) stay in memory until the process ends;
``summary`` reduces them to additive per-process totals that the parent
merges across processes and passes.  A function that a later change deletes
or renames is skipped, and every metric that needs its span reports absent.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

FALLBACK_RULE = "oracle-fallback"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, info]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.op_id = None
        self.installed: set[str] = set()
        self.expansion_classes: dict[tuple, int] = {}

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        spans, stack, active = self.spans, self.stack, self.active
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            nested = active.get(name, 0) > 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id,
                    {"nested": nested}]
            stack.append(len(spans))
            spans.append(span)
            active[name] = active.get(name, 0) + 1
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(tracer, span, args, result)
            return result

        setattr(owner, attr, traced)
        self.installed.add(name)

    def parent_info(self, span) -> dict | None:
        return self.spans[span[3]][5] if span[3] >= 0 else None

    def summary(self) -> dict:
        """Additive totals: per-span-name time, self time and calls, plus counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        total: dict[str, float] = {}
        maximum: dict[str, float] = {}

        def add(key, value):
            total[key] = total.get(key, 0) + value

        for index, (name, start, end, parent, _, info) in enumerate(spans):
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - child_time[index])
            if not info["nested"]:
                add(f"{name}.s", end - start)
            if name == "sympoly.mul_linear":
                add("mul_linear.term_ops", info.get("term_ops", 0))
                maximum["mul_linear.peak_terms"] = max(
                    maximum.get("mul_linear.peak_terms", 0), info.get("peak_terms", 0)
                )
            elif name == "sympoly.multiply":
                add("multiply.product_terms", info.get("terms", 0))
            elif name == "tableaux.enumerate":
                add("enumerate.tableaux", info.get("tableaux", 0))
                add("enumerate.distinct_weights", info.get("distinct", 0))
            elif name == "chern.oracle":
                # A call that raised has no shortcut recorded.
                shortcut = info.get("shortcut", "raised")
                add(f"oracle.shortcut.{shortcut}", 1)
                if info.get("enumerated"):
                    add("oracle.misses" if info.get("multiplied") else "oracle.hits", 1)
                    classes = self.expansion_classes.get(info.get("key"))
                    if classes is not None:
                        add("oracle.expansion_classes", classes)
                        add("oracle.surviving_classes", info["surviving"])
            elif name == "chern.sweep":
                for key in ("cases", "compared", "skipped", "disagreements"):
                    add(f"sweep.{key}", info.get(key, 0))
            elif name == "isotropy.decide":
                if info.get("rule") == FALLBACK_RULE:
                    add("decide.oracle_fallback", 1)
                if parent >= 0 and spans[parent][0] == "isotropy.min_n":
                    add("min_n.scan_steps", 1)
            elif name == "schur.hook_content":
                add("hook_content.boxes", info.get("boxes", 0))
        return {"sum": total, "max": maximum, "installed": sorted(self.installed)}

    def dump(self, path: str, header: dict) -> None:
        """Append this process's spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps({"process": header}) + "\n")
            for name, start, end, parent, op_id, _ in self.spans:
                out.write(json.dumps([op_id, name, start, end, parent]) + "\n")


# -- after-call hooks: record what each layer did, from public attributes ----

def _after_mul_linear(tracer, span, args, result):
    terms_in = len(args[0].terms)
    nonzero = sum(1 for a in args[1] if a)
    span[5]["term_ops"] = terms_in * nonzero
    span[5]["peak_terms"] = max(terms_in, len(result.terms))


def _after_multiply(tracer, span, args, result):
    span[5]["terms"] = len(result.terms)
    info = tracer.parent_info(span)
    if info is not None:
        info["multiplied"] = True


def _after_enumerate(tracer, span, args, result):
    span[5]["tableaux"] = len(result)
    span[5]["distinct"] = len(set(map(tuple, result)))
    info = tracer.parent_info(span)
    if info is not None:
        info["enumerated"] = True


def _after_expand(tracer, span, args, result):
    info = tracer.parent_info(span)
    if info is not None:
        info["classes"] = len(result)


def _after_oracle(tracer, span, args, result):
    info = span[5]
    info["shortcut"] = result.shortcut
    info["surviving"] = len(result.surviving)
    info["key"] = (tuple(args[0]), args[1])
    if "classes" in info:
        tracer.expansion_classes[info["key"]] = info["classes"]


def _after_sweep(tracer, span, args, result):
    compared = sum(1 for case in result if case.oracle_nonzero is not None)
    span[5].update(
        cases=len(result),
        compared=compared,
        skipped=len(result) - compared,
        disagreements=sum(1 for case in result if case.agree is False),
    )


def _after_decide(tracer, span, args, result):
    span[5]["rule"] = result.rule


def _after_hook_content(tracer, span, args, result):
    span[5]["boxes"] = sum(args[0])


# Function name -> (span name, after-call hook).
TRACED = {
    "weight_vectors": ("tableaux.enumerate", _after_enumerate),
    "count_ssyt": ("tableaux.count", None),
    "product_of_linear_forms": ("sympoly.multiply", _after_multiply),
    "schur_expand": ("sympoly.expand", _after_expand),
    "schur_ones_hook_content": ("schur.hook_content", _after_hook_content),
    "top_chern_nonzero": ("chern.oracle", _after_oracle),
    "run_sweep": ("chern.sweep", _after_sweep),
    "decide": ("isotropy.decide", _after_decide),
    "min_isotropic_n": ("isotropy.min_n", None),
    "verify_proof_chain": ("isotropy.proof_chain", None),
    "tevelev_inequalities": ("isotropy.lemma36", None),
}


def install(tracer: Tracer, modules) -> None:
    """Wrap every traced function at each module attribute bound to it.

    ``modules`` are the package itself (the exports the benchmark calls)
    and its submodules: a module that imports a function by name looks it
    up in its own namespace, so each such binding gets its own wrapper and
    every call passes through exactly one.  ``SymPoly.mul_linear`` is
    wrapped once, on the class.
    """
    for module in modules:
        for attr, (name, after) in TRACED.items():
            if callable(getattr(module, attr, None)):
                tracer.wrap(module, attr, name, after)
        if module.__name__.endswith(".sympoly") and hasattr(module, "SymPoly"):
            tracer.wrap(module.SymPoly, "mul_linear", "sympoly.mul_linear", _after_mul_linear)
