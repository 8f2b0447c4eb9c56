"""Span recording around gaugenorm's functions, from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
gaugenorm module that holds it, so calls between modules (``rearrange`` inside
``norms``, ``norm_mat`` inside ``dominance``) are seen as well. A span is
(name, start, end, parent span, public call id). Spans stay in memory; the
benchmark turns them into per-layer figures and writes them out at the end of
the run. A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("linalg", "stepfn", "norms", "duality", "dominance", "extreme2")

# Every function a workload reaches, so that the self times add up to the
# timed section. The per-layer metrics in BENCHMARK.json are a subset.
TRACED = {
    "linalg": ("s_numbers", "matrix_from_json", "mu_step", "trace_norm", "operator_norm"),
    "stepfn": ("rearrange", "refine", "pairing", "partial_integral"),
    "norms": ("norm_step", "norm_vec", "norm_mat"),
    "duality": (
        "spec_rows", "simplex_max", "ball_vertices", "primal_vertices", "dual_spec",
        "dual_vec_full", "dual_vec", "dual_mat", "involution_check",
        "representation_check",
    ),
    "dominance": ("kyfan_dominates",),
    "extreme2": ("profile_of", "decompose", "reconstruct", "lp_density_check"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.call_id = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call_id)

        return traced

    def install(self) -> None:
        import gaugenorm

        holders = [gaugenorm] + [sys.modules[f"gaugenorm.{m}"] for m in MODULES]
        for module, names in TRACED.items():
            home = sys.modules[f"gaugenorm.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for holder in holders:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapper)
        # StepFn construction, validation included, as its own span.
        step = gaugenorm.stepfn.StepFn
        step.__post_init__ = self._wrap("stepfn.StepFn", step.__post_init__)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, total self time in ns)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0])
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - inner
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_time_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Write the spans as one JSON object of parallel arrays."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "name": [index[n] for n in cols[0]],
                    "start_ns": [t - t0 for t in cols[1]],
                    "end_ns": [t - t0 for t in cols[2]],
                    "parent": list(cols[3]),
                    "call": list(cols[4]),
                },
                fh,
            )


# Per-layer metrics: (metric, span name, field). Calls and self times are per
# operation of the timed section, so runs of different lengths compare.
LAYER_METRICS = (
    ("linalg.s_numbers.calls", "linalg.s_numbers", "calls"),
    ("linalg.s_numbers.self_ms", "linalg.s_numbers", "self_ms"),
    ("linalg.matrix_from_json.self_ms", "linalg.matrix_from_json", "self_ms"),
    ("stepfn.StepFn.constructed", "stepfn.StepFn", "calls"),
    ("stepfn.rearrange.calls", "stepfn.rearrange", "calls"),
    ("stepfn.rearrange.self_ms", "stepfn.rearrange", "self_ms"),
    ("stepfn.pairing.self_ms", "stepfn.pairing", "self_ms"),
    ("stepfn.partial_integral.calls", "stepfn.partial_integral", "calls"),
    ("stepfn.partial_integral.self_ms", "stepfn.partial_integral", "self_ms"),
    ("norms.norm_step.calls", "norms.norm_step", "calls"),
    ("norms.norm_step.self_ms", "norms.norm_step", "self_ms"),
    ("duality.spec_rows.calls", "duality.spec_rows", "calls"),
    ("duality.spec_rows.self_ms", "duality.spec_rows", "self_ms"),
    ("duality.simplex_max.calls", "duality.simplex_max", "calls"),
    ("duality.simplex_max.self_ms", "duality.simplex_max", "self_ms"),
    ("duality.ball_vertices.calls", "duality.ball_vertices", "calls"),
    ("duality.ball_vertices.self_ms", "duality.ball_vertices", "self_ms"),
    ("dominance.kyfan_dominates.self_ms", "dominance.kyfan_dominates", "self_ms"),
    ("extreme2.profile_of.self_ms", "extreme2.profile_of", "self_ms"),
    ("extreme2.decompose.self_ms", "extreme2.decompose", "self_ms"),
    ("extreme2.reconstruct.self_ms", "extreme2.reconstruct", "self_ms"),
    ("extreme2.lp_density_check.self_ms", "extreme2.lp_density_check", "self_ms"),
)


def layer_metrics(tracer: Tracer, ops: int, timed_ns: int, cache_delta) -> dict:
    """Per-layer metrics of a traced run, each normalized per operation."""
    selfs = tracer.self_times()
    out = {}
    for metric, span, field in LAYER_METRICS:
        calls, self_ns = selfs.get(span, (0, 0))
        if field == "calls":
            out[metric] = {"value": calls / ops, "unit": "1/op"}
        else:
            out[metric] = {"value": self_ns / 1e6 / ops, "unit": "ms/op"}
    hits, misses = cache_delta
    out["duality.vertex_cache.hit_ratio"] = {
        "value": hits / (hits + misses) if hits + misses else 0.0,
        "unit": "ratio",
    }
    for module in MODULES:
        total = sum(ns for name, (_, ns) in selfs.items() if name.startswith(module + "."))
        out[f"{module}.self_ms"] = {"value": total / 1e6 / ops, "unit": "ms/op"}
    out["trace.accounted_share"] = {
        "value": tracer.root_time_ns() / timed_ns if timed_ns else 0.0,
        "unit": "ratio",
    }
    return out
