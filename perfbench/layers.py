"""Per-layer metrics: the ``--trace 1`` report, derived from a trace summary.

Every workload reports every metric below; a layer a workload does not
exercise reads 0 there (that is the prediction for it).  Span layers are
the names :mod:`perfbench.tracing` records; a metric may sum several.
"""

from __future__ import annotations

#: (metric, unit) in report order.
PER_LAYER = (
    ("engine.steps", "count"),
    ("engine.self_s", "s"),
    ("driver.arrival.self_s", "s"),
    ("driver.start.self_s", "s"),
    ("driver.complete.self_s", "s"),
    ("driver.run.self_s", "s"),
    ("driver.fail_node.count", "count"),
    ("driver.requeued", "count"),
    ("timeline.self_s", "s"),
    ("election.count", "count"),
    ("election.self_s", "s"),
    ("election.candidates_mean", "count"),
    ("sed.estimate.count", "count"),
    ("sed.estimate.self_s", "s"),
    ("sed.estimates_per_election", "ratio"),
    ("sed.invalidations_per_task", "ratio"),
    ("estimation.set_per_task", "ratio"),
    ("validation.calls_per_task", "ratio"),
    ("ranking.refresh.count", "count"),
    ("ranking.refresh.self_s", "s"),
    ("ranking.dirty_per_refresh", "ratio"),
    ("policy.sort.count", "count"),
    ("policy.sort.self_s", "s"),
    ("policy.sorts_per_election", "ratio"),
    ("scoring.score.count", "count"),
    ("scoring.self_s", "s"),
    ("queue.ops", "count"),
    ("queue.self_s", "s"),
    ("queue.depth_max", "count"),
    ("queue.wait_sim_s_mean", "s"),
    ("node.core_ops", "count"),
    ("node.self_s", "s"),
    ("energy.segments", "count"),
    ("energy.self_s", "s"),
    ("planner.checks", "count"),
    ("planner.self_s", "s"),
    ("planner.candidates_final", "count"),
    ("trace.rows", "count"),
    ("trace.load_s", "s"),
    ("lab.assemble_s", "s"),
    ("protocol.read.self_s", "s"),
    ("protocol.decode.self_s", "s"),
    ("protocol.render.self_s", "s"),
    ("admission.admit.count", "count"),
    ("admission.self_s", "s"),
    ("admission.refused", "count"),
    ("place_batch.count", "count"),
    ("place_batch.self_s", "s"),
    ("batch.size_mean", "count"),
    ("batch.wait_ms", "ms"),
    ("service.self_s", "s"),
    ("asyncio.loop.self_s", "s"),
    ("client.late_ms_p99", "ms"),
    ("client.late_ms_max", "ms"),
    ("client.non_200", "count"),
    ("client.latency_p90_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("spec.hash.count", "count"),
    ("spec.hash.self_s", "s"),
    ("spec.build.self_s", "s"),
    ("executor.session_for_spec.self_s", "s"),
    ("executor.run.self_s", "s"),
    ("executor.pool_wait_s", "s"),
    ("store.put.count", "count"),
    ("store.put.self_s", "s"),
    ("store.get.self_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.load_s", "s"),
    ("store.bytes_written", "bytes"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
)

#: Per-layer self-time metrics and the span layers each one sums.
SELF_TIME = {
    "engine.self_s": ("engine",),
    "driver.arrival.self_s": ("driver.arrival",),
    "driver.start.self_s": ("driver.start",),
    "driver.complete.self_s": ("driver.complete",),
    "driver.run.self_s": ("driver.run", "driver.fail_node"),
    "timeline.self_s": ("timeline.fault", "engine.callback"),
    "election.self_s": ("election",),
    "sed.estimate.self_s": ("sed.estimate",),
    "ranking.refresh.self_s": ("ranking",),
    "policy.sort.self_s": ("policy", "policy.aggregate"),
    "scoring.self_s": ("scoring",),
    "queue.self_s": ("queue",),
    "node.self_s": ("node", "node.core"),
    "energy.self_s": ("energy",),
    "planner.self_s": ("planner",),
    "trace.load_s": ("trace.load",),
    "lab.assemble_s": ("lab.session", "lab.platform", "lab.hierarchy"),
    "protocol.read.self_s": ("protocol.read",),
    "protocol.decode.self_s": ("protocol.decode",),
    "protocol.render.self_s": ("protocol.render",),
    "admission.self_s": ("admission",),
    "place_batch.self_s": ("place_batch",),
    "service.self_s": ("service",),
    "asyncio.loop.self_s": ("asyncio.loop",),
    "spec.hash.self_s": ("spec.hash",),
    "spec.build.self_s": ("spec.build",),
    "executor.session_for_spec.self_s": ("executor.session_for_spec",),
    "executor.run.self_s": ("executor.run",),
    "executor.pool_wait_s": ("executor.pool_wait",),
    "store.put.self_s": ("store.put",),
    "store.get.self_s": ("store.get",),
    "store.load_s": ("store.load",),
}


def derive(summary: dict, context: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from a trace summary plus workload context.

    ``context`` carries what the trace cannot see: ``tasks`` (the per-task
    base), ``wall_s`` of the traced region (and ``attributed_s`` when the
    summary merges other processes' spans into it), and any metric
    measured outside the spans (``trace_overhead``, ``client.*``,
    ``store.bytes_written``, ``queue.wait_sim_s_mean`` ...).
    """
    layers = summary["layers"]
    counters = summary["counters"]
    maxima = summary["maxima"]

    def self_s(*names):
        return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(name):
        return layers.get(name, {}).get("count", 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    tasks = context.get("tasks", 0)
    elections = counters.get("election.submits", 0)
    values = {name: self_s(*spans) for name, spans in SELF_TIME.items()}
    values.update(
        {
            "engine.steps": counters.get("engine.steps", 0),
            "driver.fail_node.count": counters.get("driver.fail_node", 0),
            "driver.requeued": counters.get("driver.requeued", 0),
            "election.count": elections,
            "election.candidates_mean": ratio(counters.get("election.candidates", 0), elections),
            "sed.estimate.count": calls("sed.estimate"),
            "sed.estimates_per_election": ratio(calls("sed.estimate"), elections),
            "sed.invalidations_per_task": ratio(counters.get("sed.invalidations", 0), tasks),
            "estimation.set_per_task": ratio(counters.get("estimation.set", 0), tasks),
            "validation.calls_per_task": ratio(counters.get("validation.calls", 0), tasks),
            "ranking.refresh.count": calls("ranking"),
            "ranking.dirty_per_refresh": ratio(counters.get("ranking.dirty", 0), calls("ranking")),
            "policy.sort.count": calls("policy"),
            "policy.sorts_per_election": ratio(calls("policy"), elections),
            "scoring.score.count": calls("scoring"),
            "queue.ops": calls("queue"),
            "queue.depth_max": maxima.get("queue.depth", 0),
            "node.core_ops": calls("node.core"),
            "energy.segments": counters.get("energy.segments", 0),
            "planner.checks": counters.get("planner.checks", 0),
            "planner.candidates_final": maxima.get("planner.candidates_final", 0),
            "trace.rows": counters.get("trace.rows", 0),
            "admission.admit.count": calls("admission"),
            "admission.refused": counters.get("admission.refused", 0),
            "place_batch.count": calls("place_batch"),
            "batch.size_mean": ratio(counters.get("batch.tasks", 0), calls("place_batch")),
            "batch.wait_ms": 1e3 * ratio(counters.get("batch.wait_s", 0.0), counters.get("batch.tasks", 0)),
            "spec.hash.count": calls("spec.hash"),
            "store.put.count": calls("store.put"),
            "store.hit_ratio": ratio(counters.get("store.hits", 0), counters.get("store.lookups", 0)),
        }
    )
    for name, _unit in PER_LAYER:
        if name in context:  # measured outside the spans
            values[name] = context[name]
        values.setdefault(name, 0.0)
    attributed = context.get("attributed_s", summary["attributed_s"])
    values["unattributed_s"] = max(0.0, context["wall_s"] - attributed)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}


def largest_layer(summary: dict) -> tuple[str, float]:
    """The named layer with the most self time (idle time is not a layer)."""
    rows = [(row["self_s"], name) for name, row in summary["layers"].items() if name != "idle"]
    if not rows:
        return "none", 0.0
    seconds, name = max(rows)
    return name, seconds
