"""Arithmetic that turns a driver record into metrics.

Everything here is pure: it takes the raw record the C++ driver writes
(perfbench/driver.cpp) and returns numbers. perfbench/test_perfbench.py
tests it.
"""

import math
import statistics

# Spans ParallelLbm emits on every rank lane, one each per step in overlap
# mode.
RANK_SPANS = {
    "lbm.collide_ms": "collide",
    "lbm.stream_inner_ms": "overlap.inner",
    "lbm.stream_outer_ms": "overlap.outer",
    "core.pack_ms": "overlap.pack",
    "core.unpack_ms": "overlap.unpack",
    "core.wait_ms": "overlap.wait",
}
RANK_CATS = {"lbm", "overlap"}

# Parent rank span -> spans that run inside it on the same lane. The
# overlap-mode rank spans do not nest today, so each self time is the
# span's duration; a span added inside one of them must be listed here so
# the parent's self time excludes it. Names, not interval containment,
# decide nesting: on cold_queries two partitions share each rank lane.
RANK_CHILDREN = {}

# A run whose open-loop generator sent a request later than this after its
# due time is invalid: the offered load was not what the workload says.
MAX_LATE_MS = 250.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q * n))


def tail_rule_met(n, q, min_beyond=10):
    """A percentile is reported as a tail only when at least `min_beyond`
    samples lie beyond it (so p90 needs 100 samples)."""
    return samples_beyond(n, q) >= min_beyond


def union_length(intervals):
    """Total length covered by a set of (t0, t1) intervals."""
    total = 0.0
    end = -math.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(events, children):
    """Self time of every span: its duration minus the part of it that its
    children (spans named in children[parent], on the same lane) cover.

    `events` are (name, cat, lane, t0_us, t1_us); returns a list of
    (name, cat, lane, self_us) in the same order.
    """
    by_lane = {}
    for e in events:
        by_lane.setdefault(e[2], []).append(e)
    out = []
    for name, cat, lane, t0, t1 in events:
        kids = children.get(name, ())
        covered = [
            (max(c[3], t0), min(c[4], t1))
            for c in by_lane[lane]
            if c[0] in kids and c[3] < t1 and c[4] > t0
        ] if kids else []
        out.append((name, cat, lane, (t1 - t0) - union_length(covered)))
    return out


def lateness_ms(due_ms, sent_ms):
    """How late the open-loop generator sent each request."""
    return [max(0.0, s - d) for d, s in zip(due_ms, sent_ms)]


def generator_fell_behind(late_ms, limit_ms=MAX_LATE_MS):
    return bool(late_ms) and max(late_ms) > limit_ms


def accounting(attempted, refused, errors):
    """(attempted, failed, error_rate): a refused request counts as failed,
    like one that raised."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    failed = refused + errors
    return attempted, failed, failed / attempted


def _median(values):
    return statistics.median(values) if values else 0.0


def rank_span_metrics(events, steps):
    """Per-step self times of the rank spans, slowest lane; the rank
    imbalance (slowest / mean busy time, waiting excluded); and the
    slowest lane's total covered time per step."""
    out = {k: 0.0 for k in RANK_SPANS}
    out["core.rank_imbalance"] = 0.0
    covered = 0.0
    rank_events = [e for e in events if e[1] in RANK_CATS]
    if not rank_events or steps <= 0:
        return out, covered
    per_lane = {}
    for name, _cat, lane, self_us in self_times(rank_events, RANK_CHILDREN):
        if name not in RANK_SPANS.values():
            continue
        lane_tot = per_lane.setdefault(lane, {})
        lane_tot[name] = lane_tot.get(name, 0.0) + self_us / 1e3
    for metric, span in RANK_SPANS.items():
        out[metric] = max(t.get(span, 0.0) for t in per_lane.values()) / steps
    busy = [sum(v for k, v in t.items() if k != "overlap.wait")
            for t in per_lane.values()]
    out["core.rank_imbalance"] = max(busy) / (sum(busy) / len(busy))
    covered = max(sum(t.values()) for t in per_lane.values()) / steps
    return out, covered


def _counter_total(samples, name):
    return sum(v for n, _r, v in samples if n == name)


def _delta(before, after, name):
    return _counter_total(after, name) - _counter_total(before, name)


def _gauges(samples, name):
    return {r: v for n, r, v in samples if n == name}


def _span_ms(events, name):
    """Durations (ms) of the driver's own spans called `name`."""
    return [(e[4] - e[3]) / 1e3 for e in events if e[0] == name]


def end_to_end(raw, workload):
    """End-to-end metrics of an untraced run."""
    setup_s = statistics.median(raw["setup_s"])
    if workload == "urban_step":
        lat = raw["samples_ms"]
        per_s = len(lat) / (sum(lat) / 1e3)
    else:
        q = raw["queries"]
        t0 = "due_ms" if workload == "warm_queries" else "start_ms"
        lat = [x["done_ms"] - x[t0] for x in q]
        per_s = len(q) / (max(x["done_ms"] for x in q) / 1e3)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_p90_ms": percentile(lat, 0.9),
        "throughput_per_s": per_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }, len(lat)


def per_layer(raw, workload):
    """Per-layer metrics of a traced run (0 where the layer does no work on
    this workload, or where a probe does not run on it)."""
    m = {}
    trace = raw["trace"]
    before = raw["trace_before"]
    events = [tuple(e) for e in trace["events"]]
    queries = raw.get("queries", [])
    results = [x["result"] for x in queries]

    if workload == "urban_step":
        traced = _span_ms(events, "bench.step")
        steps = len(traced)
    else:
        steps = int(sum(r["flow_steps"] for r in results))
    spans, covered = rank_span_metrics(events, steps)
    m.update(spans)

    hidden_after = _gauges(trace["gauges"], "mpi.overlap_hidden_ms")
    if workload == "urban_step" and steps:
        hidden_before = _gauges(before["gauges"], "mpi.overlap_hidden_ms")
        m["core.hidden_ms"] = statistics.mean(
            (v - hidden_before.get(r, 0.0)) / steps
            for r, v in hidden_after.items())
    elif workload == "cold_queries" and hidden_after:
        # The gauge restarts with every leased run; what is left is the
        # last run on each lane, spin_up_steps long.
        m["core.hidden_ms"] = statistics.mean(hidden_after.values()) / \
            raw["config"]["spin_up_steps"]
    else:
        m["core.hidden_ms"] = 0.0

    for name in ("messages", "bytes"):
        d = _delta(before["counters"], trace["counters"], "mpi." + name)
        m["netsim.%s_per_step" % name] = d / steps if steps else 0.0

    triad = raw.get("triad", {}).get("gbs", 0.0)
    m["mem.triad_gbs"] = triad
    m["lbm.bytes_per_step"] = raw.get("computed_bytes_per_step", 0.0) \
        if workload == "urban_step" else 0.0
    if workload == "urban_step":
        step_s = statistics.median(raw["samples_ms"]) / 1e3
        m["lbm.bw_frac"] = m["lbm.bytes_per_step"] / step_s / (triad * 1e9)
        m["obs.trace_overhead_frac"] = \
            statistics.median(traced) / statistics.median(raw["samples_ms"]) - 1
        m["obs.uncovered_frac"] = 1 - covered / (sum(traced) / steps)
    else:
        m["lbm.bw_frac"] = 0.0
        m["obs.trace_overhead_frac"] = 0.0
        m["obs.uncovered_frac"] = 0.0

    m["io.checkpoint_load_ms"] = _median(
        _span_ms(events, "bench.checkpoint_load"))
    m["io.checkpoint_save_ms"] = _median(
        _span_ms(events, "bench.checkpoint_save"))
    m["io.checkpoint_mb"] = raw.get("checkpoint_bytes", 0.0) / 1e6
    hits = [r for r in results if r["hit"]]
    misses = [r for r in results if not r["hit"]]
    m["cache.restore_ms"] = _median([r["flow_ms"] for r in hits])
    m["cache.hit_ratio"] = len(hits) / len(results) if results else 0.0
    m["service.flow_overhead_ms"] = _median(
        [r["flow_ms"] - r["flow_wall_ms"] for r in misses])
    m["lbm.spinup_step_ms"] = _median(
        [r["flow_wall_ms"] / r["flow_steps"] for r in misses
         if r["flow_steps"]])
    m["tracer.advect_ms"] = _median([r["tracer_ms"] for r in results])
    m["tracer.mhops_per_s"] = _median(
        [raw["probe_hops"] / 1e6 / (ms / 1e3)
         for ms in _span_ms(events, "bench.tracer")])
    t0 = "due_ms" if workload == "warm_queries" else "start_ms"
    m["service.queue_ms"] = _median(
        [x["done_ms"] - x[t0] - x["result"]["flow_ms"] -
         x["result"]["tracer_ms"] for x in queries])
    m["load.late_ms"] = max(lateness_ms(
        [x["due_ms"] for x in queries], [x["sent_ms"] for x in queries]),
        default=0.0) if workload == "warm_queries" else 0.0
    return m
