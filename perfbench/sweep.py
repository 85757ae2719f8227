"""The ``sweep-grid`` workload: ``run_sweep(stream=True, jobs=2)`` into a sharded store.

A seeded grid of cheap scenarios spans two lab backends (middleware
placement runs and the engine-less heterogeneity point study).  A
**cold** pass executes every scenario on two pool workers and writes a
fresh :class:`repro.runner.store.ShardedResultStore`; there are three,
each into its own store, and the cold figures are their medians.
**Warm** passes then re-run the same grid against the last store
reopened from disk and must be answered entirely from it,
byte-identical to the cold results.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from perfbench.common import (
    Budget,
    HostSpeed,
    Outcome,
    cpus,
    median,
    peak_rss_mb,
    percentile,
    pinned_to,
)

#: Grid size per measured second (half per family).
SCENARIOS_PER_SECOND = {"full": 20, "smoke": 2}
COLD_PASSES = 11
#: Warm passes repeat until the measured seconds are used (at least this many).
MIN_WARM_PASSES = 3
JOBS = 2


def grid(seed: int, count: int):
    """``count`` scenarios: RANDOM-policy seeds over two experiment families.

    Two thirds are middleware placement runs (about 60 ms each), one third
    point-study runs (about 10 ms), so the median scenario latency falls
    inside the placement runs' latencies rather than in the gap between
    the two families, where it would jump from one to the other.
    """
    from repro.runner.spec import ScenarioSpec, SweepSpec

    first = seed * 100_000
    placement = max(1, (2 * count) // 3)
    return (
        SweepSpec(
            ScenarioSpec(experiment="placement", platform="tiny", workload="tiny", policy="RANDOM"),
            {"seed": range(first, first + placement)},
        ),
        SweepSpec(
            ScenarioSpec(
                experiment="heterogeneity", platform="types2", workload="tiny", policy="RANDOM"
            ),
            {"seed": range(first, first + max(1, count - placement))},
        ),
    )


def one_pass(sweeps, store) -> dict:
    """One ``run_sweep`` call, timing each scenario from pull to completion.

    ``setup_s`` is the time until the pass delivers its first result
    (for a cold pass: pool start-up plus the first scenario).
    """
    from repro.runner.executor import run_sweep

    clock = time.perf_counter
    pulled: list[float] = []
    done: dict[int, float] = {}

    def scenarios():
        for sweep in sweeps:
            for spec in sweep.iter_expand():
                pulled.append(clock())
                yield spec

    def progress(index, _result, _total):
        done[index] = clock()

    started = clock()
    outcome = run_sweep(scenarios(), stream=True, jobs=JOBS, store=store, progress=progress)
    ended = clock()
    latency = [done[index] - pulled[index] for index in range(len(pulled))]
    completions = sorted(done.values())
    return {
        "outcome": outcome,
        "wall_s": ended - started,
        "setup_s": completions[0] - started,
        "latency": latency,
        "completions": completions,
    }


def records(outcome) -> list[str]:
    return [json.dumps(result.to_record(), sort_keys=True) for result in outcome.results]


def sustained_rate(completions) -> float:
    """Completions per second between the 10th and 90th percentile completion."""
    low = completions[len(completions) // 10]
    high = completions[(9 * len(completions)) // 10]
    middle = (9 * len(completions)) // 10 - len(completions) // 10
    return middle / (high - low) if high > low else len(completions) / (completions[-1] - completions[0])


def check_cold(outcome: Outcome, cold: dict) -> list[str]:
    """Count the cold pass; returns its records, the warm passes' reference."""
    reference = records(cold["outcome"])
    outcome.attempted += len(reference)
    outcome.check(
        "cold pass executed every scenario",
        cold["outcome"].executed == len(reference),
        f"{cold['outcome'].executed} executed of {len(reference)}",
    )
    return reference


def check_warm(outcome: Outcome, warm: dict, reference: list[str]) -> dict:
    """Count one warm pass's misses and mismatches, then drop its results."""
    result = warm.pop("outcome")
    outcome.attempted += result.total
    outcome.failed += abs(result.total - len(reference)) + sum(
        1
        for mine, theirs, item in zip(records(result), reference, result.results)
        if mine != theirs or not item.cached
    )
    warm["total"] = result.total
    warm["cached"] = result.cached
    return warm


def measure(workload: str, seed: int, seconds: float, scale: str, workdir: Path,
            pinned: str | None) -> Outcome:
    from repro.runner.store import ShardedResultStore

    outcome = Outcome()
    sweeps = grid(seed, max(4, int(SCENARIOS_PER_SECOND[scale] * seconds)))
    budget = Budget(seconds)
    speed = HostSpeed(cpus())  # the pool workers and the parent share every CPU
    cpu = (cpus() or (None,))[0]
    warm_speed = HostSpeed((cpu,))  # a warm pass is the parent alone, kept on one CPU

    def timed_pass(store, speed: HostSpeed) -> dict:
        """One pass between two ticks; ``scale`` turns its host seconds into scaled ones."""
        started = time.perf_counter()
        result = one_pass(sweeps, store)
        ended = time.perf_counter()
        speed.tick()
        result["scale"] = speed.scaled(started, ended) / (ended - started)
        return result

    speed.tick()
    colds = [
        timed_pass(ShardedResultStore(workdir / f"cold-{index}"), speed)
        for index in range(COLD_PASSES)
    ]
    reference = check_cold(outcome, colds[0])
    for cold in colds[1:]:
        outcome.failed += sum(a != b for a, b in zip(check_cold(outcome, cold), reference))
    store_path = str(workdir / f"cold-{COLD_PASSES - 1}")
    warm_passes = []
    with pinned_to(cpu):
        warm_speed.tick()
        while len(warm_passes) < MIN_WARM_PASSES or budget.left() > 0:
            warm_passes.append(check_warm(outcome, timed_pass(store_path, warm_speed), reference))
    outcome.check(
        "cold passes agree; warm passes are 100% cache hits, byte-identical to the cold results",
        outcome.failed == 0,
        f"{len(warm_passes)} warm passes, {outcome.failed} misses or mismatches",
    )
    scenarios = colds[0]["outcome"].total
    tasks = sum(result.metrics["task_count"] for result in colds[0]["outcome"].results)
    latency_ms = [1e3 * value * cold["scale"] for cold in colds for value in cold["latency"]]
    walls = [cold["wall_s"] * cold["scale"] for cold in colds]
    outcome.metric(
        "setup_s", median([cold["setup_s"] * cold["scale"] for cold in colds]), "s", COLD_PASSES
    )
    outcome.metric("tasks_per_s", tasks / median(walls), "1/s", COLD_PASSES)
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.metric("latency_p50_ms", median(latency_ms), "ms", len(latency_ms))
    outcome.notes["latency"] = (
        f"p90 {percentile(latency_ms, 90):.3f} ms, p95 {percentile(latency_ms, 95):.3f} ms, p99 {percentile(latency_ms, 99):.3f} ms "
        f"(n={len(latency_ms)})"
    )
    outcome.metric(
        "capacity_rps",
        median([sustained_rate(cold["completions"]) / cold["scale"] for cold in colds]),
        "1/s",
        COLD_PASSES,
    )
    outcome.metric("scenarios_per_s", scenarios / median(walls), "1/s", COLD_PASSES)
    outcome.metric(
        "cached_scenarios_per_s",
        median([warm["total"] / (warm["wall_s"] * warm["scale"]) for warm in warm_passes]),
        "1/s",
        len(warm_passes),
    )
    outcome.notes["host_speed_cold"] = speed.note()
    outcome.notes["host_speed_warm"] = warm_speed.note()
    outcome.notes["grid"] = (
        f"{scenarios} scenarios; {COLD_PASSES} cold passes, {len(warm_passes)} warm passes"
    )
    outcome.notes["unscaled"] = (
        f"cold {scenarios / median([cold['wall_s'] for cold in colds]):.2f} scenarios/s, "
        f"warm {median([w['total'] / w['wall_s'] for w in warm_passes]):.2f} scenarios/s"
    )
    return outcome


def trace(workload: str, seed: int, scale: str, workdir: Path, pinned: str | None):
    """An untraced and a traced cold + warm pair, each into a fresh store."""
    from perfbench.tracing import (
        Recorder,
        install,
        merge_summaries,
        trace_pool_workers,
        worker_summaries,
    )
    from repro.runner.store import ShardedResultStore

    sweeps = grid(seed, max(4, int(SCENARIOS_PER_SECOND[scale] * 20)))
    plain = one_pass(sweeps, ShardedResultStore(workdir / "plain"))
    recorder = Recorder()
    patch = install(recorder)
    dumps = workdir / "workers"
    dumps.mkdir()
    trace_pool_workers(recorder, dumps, patch)
    store_path = workdir / "traced"
    try:
        started = time.perf_counter()
        cold = one_pass(sweeps, ShardedResultStore(store_path))
        warm = one_pass(sweeps, str(store_path))
        ended = time.perf_counter()
    finally:
        patch.restore()
    outcome = Outcome()
    check_warm(outcome, warm, check_cold(outcome, cold))
    outcome.check("warm pass is 100% cache hits, byte-identical to the cold results", outcome.failed == 0)
    parent = recorder.summary(started, ended)
    context = {
        "wall_s": ended - started,
        "attributed_s": parent["attributed_s"],
        "tasks": sum(result.metrics["task_count"] for result in cold["outcome"].results),
        "trace_overhead": cold["wall_s"] / plain["wall_s"],
        "store.hit_ratio": warm["cached"] / warm["total"],
        "store.bytes_written": sum(path.stat().st_size for path in store_path.rglob("*") if path.is_file()),
    }
    return outcome, merge_summaries([parent, *worker_summaries(dumps)]), context
