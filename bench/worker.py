"""Runs one workload in this fresh interpreter; started by run.py.

    worker.py setup WORKLOAD SEED
        import gaugenorm, build the workload's spec objects, print "ready".
    worker.py run WORKLOAD SEED SECONDS TRACE [MAX_OPS]
        run whole rounds for SECONDS, check every output, print a JSON detail
        line and then the JSON result line.

Only the public calls are timed; drawing inputs between them is not. The
timed section is the sum of the operations' latencies.

Every round has the same make-up, so each position in it (its slot) recurs
once per round with the same cost. The end-to-end timings come from each
slot's quickest call of the run, as ``timeit`` reports the quickest repeat:
on a shared host the speed jumps between fast and slow spells, and a median
over all calls moved with the share of the run spent in slow ones, while
the quickest of many tries of one operation moved far less. The medians and
90th percentiles over all calls are still printed per call kind on the
detail line.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gaugenorm  # noqa: E402

import workloads  # noqa: E402

if not Path(gaugenorm.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gaugenorm imported from {gaugenorm.__file__}, not from {ROOT / 'src'}")


class Record:
    __slots__ = ("op", "slot", "latency_ns", "output", "error")

    def __init__(self, op, slot, latency_ns, output, error):
        self.op, self.slot, self.latency_ns = op, slot, latency_ns
        self.output, self.error = output, error


def run_op(op, slot, tracer, call_id) -> Record:
    if tracer is not None:
        tracer.call_id = call_id
    start = time.perf_counter_ns()
    try:
        output = op.call()
        error = None
    except Exception as exc:  # a failed call is a result to count, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start
    op.call = None  # release the operands; the reference keeps what it needs
    return Record(op, slot, latency, output, error)


def sample(ops, k):
    """About k operations of a round: every known-fault one, every call kind."""
    keep, kinds = [], set()
    for op in ops:
        if op.fault is not None or op.kind not in kinds:
            kinds.add(op.kind)
            keep.append(op)
    kept = {id(op) for op in keep}
    rest = [op for op in ops if id(op) not in kept]
    room = max(0, k - len(keep))
    return keep + (rest[:: max(1, len(rest) // room)][:room] if room else [])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_per_slot(records) -> list[float]:
    """Each slot's quickest successful call over the run, in ms, sorted."""
    best = {}
    for rec in records:
        if rec.error is None and rec.latency_ns < best.get(rec.slot, math.inf):
            best[rec.slot] = rec.latency_ns
    return sorted(ns / 1e6 for ns in best.values())


def latency_report(records) -> dict:
    """Per call kind: sample count, p50 and (from 100 samples) p90, in ms."""
    by_kind = {}
    for rec in records:
        if rec.error is None:
            by_kind.setdefault(rec.op.kind, []).append(rec.latency_ns / 1e6)
    out = {}
    for kind, ms in sorted(by_kind.items()):
        entry = {"count": len(ms), "p50_ms": statistics.median(ms)}
        if len(ms) >= 100:
            entry["p90_ms"] = percentile(ms, 90)
        out[kind] = entry
    return out


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    warnings.simplefilter("ignore", RuntimeWarning)
    prepared = workloads.SETUP[workload](seed)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"
    max_ops = int(argv[5]) if len(argv) > 5 else None

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cache = gaugenorm.duality._primal_vertices_cached.cache_info()

    records = []
    rounds = 0
    gc.collect()
    gc.freeze()
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or rounds == 0:
        # Inputs are drawn just before each call, outside its timing, so
        # only the current operation's operands are alive.
        ops = workloads.ROUND[workload](seed, rounds, prepared)
        if max_ops is not None:
            ops = sample(list(ops), max_ops)
        for position, op in enumerate(ops):
            slot = position if op.slot is None else op.slot
            records.append(run_op(op, slot, tracer, len(records)))
        if rounds == 0:
            # Later rounds repeat the same make-up; past the first, the peak
            # would only grow with the records this benchmark keeps.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Keep the records out of later collections, so the collector's work
        # inside a timed call does not grow with the length of the run.
        gc.collect()
        gc.freeze()
        rounds += 1
    wall = time.perf_counter() - begin
    after = gaugenorm.duality._primal_vertices_cached.cache_info()
    cache_delta = (after.hits - cache.hits, after.misses - cache.misses)

    timed_ns = sum(r.latency_ns for r in records)
    if tracer is not None:
        # Before the checks, whose own calls into gaugenorm are not timed.
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, len(records), timed_ns, cache_delta)
        out_dir = ROOT / "bench" / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{workload}-seed{seed}.json")
        tracer.spans.clear()

    from reference import Checker

    check_begin = time.perf_counter()
    Checker().check(records)
    check_s = time.perf_counter() - check_begin

    failed = [r for r in records if r.error is not None]
    unexpected = [r for r in failed if r.op.fault is None]
    ok = [r for r in records if r.error is None]
    faults = Counter(r.op.fault or f"unexpected: {r.error}" for r in failed)

    best = best_per_slot(records)
    if tracer is None:
        metrics = {
            "best_ops_per_s": {"value": len(best) / (sum(best) / 1e3), "unit": "1/s"},
            "best_call_p50_ms": {"value": statistics.median(best), "unit": "ms"},
            "best_call_p90_ms": {"value": percentile(best, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "ops_per_round": len(records) // rounds,
        "slots": len(best),
        "timed_s": timed_ns / 1e9,
        "ops_per_s": len(ok) / (timed_ns / 1e9),
        "loop_wall_s": wall,
        "check_s": check_s,
        "calls": latency_report(records),
        "faults": dict(faults),
        "unexpected_failures": [f"{r.op.kind}: {r.error}" for r in unexpected[:5]],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
