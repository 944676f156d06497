"""Summary math for the benchmark: medians, quartiles, the percentile rule,
span self time, and the per-layer metrics of one traced nova_perf run."""

import json
import math
import statistics
from collections import namedtuple

Span = namedtuple("Span", "name id parent thread start end")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def quartiles(values):
    """First quartile, median, third quartile (Python's default method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Nearest-rank percentile, or None when fewer than MIN_BEYOND samples
    lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the part of it its children cover.
    Children may run in parallel on several threads; their overlap counts
    once."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        inside = [(max(c.start, span.start), min(c.end, span.end))
                  for c in children.get(span.id, [])]
        inside = [(a, b) for a, b in inside if b > a]
        result[span.id] = (span.end - span.start) - covered(inside)
    return result


def parse_spans(lines):
    """Spans from the JSON lines nova_perf writes."""
    return [Span(**json.loads(line)) for line in lines if line.strip()]


def layer_values(spans, info):
    """Per-layer metrics of one traced run, plus the per-call samples that
    are pooled across runs for percentiles.

    `info` is the JSON line nova_perf printed for the run."""
    own = self_times(spans)

    def total(*names):
        return sum(own[s.id] for s in spans if s.name in names)

    def durations(name):
        return [s.end - s.start for s in spans if s.name == name]

    calibrations = durations("core.calibrate")
    walks = durations("pipeline.walk")
    run_s = total("serve.run")
    mirror_s = sum(durations("pricing.mirror"))
    plan_s = total("serve.plan")
    values = {
        "approx.pwl_train_s": total("approx.pwl_train"),
        "approx.tables_trained": len(durations("approx.pwl_train")),
        "serve.generate_s": total("serve.generate", "serve.faults"),
        "serve.plan_s": plan_s,
        "serve.plan_steps": info["plan_steps"],
        "core.calibrate_s": sum(calibrations),
        "core.calibrations": len(calibrations),
        "core.calibrations_per_s": len(calibrations) / sum(calibrations),
        "pipeline.walk_s": sum(walks),
        "pipeline.walks": len(walks),
        "serve.surrogate.fit_s": total("serve.surrogate.fit",
                                       "serve.surrogate.reconcile"),
        "serve.surrogate.predict_s": total("serve.surrogate.predict"),
        "serve.surrogate.distinct_shapes": info["replay_distinct_shapes"],
        "serve.surrogate.anchors": info["anchors"],
        "serve.surrogate.anchor_ratio":
            info["anchors"] / info["replay_distinct_shapes"],
        "serve.surrogate.max_rel_error": info["max_rel_error"],
        "serve.run_s": run_s,
        # No public boundary: the run minus a replay of its pricing and
        # plan building. Report aggregation stays in it.
        "serve.dispatch_s": run_s - mirror_s - plan_s,
        "serve.batches": info["batches"],
        "serve.steps": info["steps"],
        "serve.mean_batch": info["mean_batch"],
        "serve.retries": info["retries"],
        "serve.preempted_steps": info["preempted_steps"],
        "serve.shed": info["status"]["shed"],
        "serve.failed": info["status"]["failed"],
    }
    samples = {
        "core.calibrate_us": [d * 1e6 for d in calibrations],
        "pipeline.walk_us": [d * 1e6 for d in walks],
    }
    return values, samples


def combine_layers(runs):
    """Per-layer metrics over several traced runs: the median of each
    per-run value, and percentiles over the pooled per-call samples.
    Returns (metrics, missing) where missing names each percentile the
    pooled samples cannot support yet."""
    metrics = {}
    for name in runs[0][0]:
        metrics[name] = statistics.median(values[name] for values, _ in runs)
    metrics["serve.dispatch_steps_per_s"] = (
        metrics["serve.steps"] / metrics["serve.dispatch_s"]
        if metrics["serve.dispatch_s"] > 0 else 0.0)
    missing = []
    for name in runs[0][1]:
        pooled = [x for _, samples in runs for x in samples[name]]
        for p in (50, 99):
            value = percentile(pooled, p)
            if value is None:
                missing.append(f"{name}.p{p}")
            metrics[f"{name}.p{p}"] = value
    return metrics, missing
