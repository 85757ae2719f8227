#!/usr/bin/env python3
"""Regenerate the golden-figure fixtures under ``tests/data/golden/``.

The golden files lock the paper's headline numbers — Table II makespan and
energy totals, and the Figure 9 candidate/power trajectory — against
silent drift: ``tests/test_goldens.py`` re-runs the same scenarios in
quantized energy mode and asserts bit-identical agreement with these
fixtures.  Refactors of the engine, the energy accountant or the event
machinery must reproduce these numbers exactly (JSON serialises doubles
through ``repr``, which round-trips, so equality here is equality of the
underlying bits).

Run from the repository root after an *intentional* numerical change::

    PYTHONPATH=src python tools/make_goldens.py

and commit the regenerated fixtures together with the change that moved
them.  The tool prints a diff summary when a fixture changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"

#: Preset scales captured per figure.  "quick" keeps the regression tests
#: fast; "paper" locks the actual published-figure numbers.
SCALES = ("quick", "paper")


def table2_golden() -> dict:
    """Makespan/energy totals per policy (Table II, Figure 5)."""
    from repro.experiments.placement import run_policy_comparison
    from repro.experiments.presets import placement_config_for

    scales = {}
    for scale in SCALES:
        comparison = run_policy_comparison(
            config=placement_config_for(scale, scale)
        )
        policies = {}
        for policy in comparison.policies:
            metrics = comparison.metrics(policy)
            policies[policy] = {
                "makespan": metrics.makespan,
                "total_energy": metrics.total_energy,
                "task_count": metrics.task_count,
                "energy_per_cluster": dict(metrics.energy_per_cluster),
            }
        scales[scale] = policies
    return {"energy_mode": "quantized", "scales": scales}


def figure9_golden() -> dict:
    """Candidate-count and windowed-power trajectories (Figure 9)."""
    from repro.experiments.adaptive import adaptive_config_for, run_adaptive_experiment

    scales = {}
    for scale in SCALES:
        result = run_adaptive_experiment(adaptive_config_for(workload=scale))
        scales[scale] = {
            "candidate_series": [[time, count] for time, count in result.candidate_series],
            "power_series": [[time, power] for time, power in result.power_series],
            "completed_tasks": result.completed_tasks,
            "total_energy": result.total_energy,
            "total_nodes": result.total_nodes,
        }
    return {"energy_mode": "quantized", "scales": scales}


def queue_table_golden() -> dict:
    """Makespan/energy/wait per queue policy on the bundled SWF trace.

    The mini.swf trace at 16 cores is the reference scenario where the
    backfill planners visibly beat FCFS (a wide job head-blocks runnable
    small jobs); the fixture locks each policy's schedule bits.
    """
    from repro.experiments.presets import placement_config_for
    from repro.experiments.queue_family import run_queue_comparison

    trace = Path(__file__).resolve().parent.parent / "tests" / "data" / "mini.swf"
    comparison = run_queue_comparison(
        config=placement_config_for("quick", "trace", trace=str(trace)),
        queue_cores=16,
    )
    policies = {}
    for policy, result in comparison.results.items():
        policies[policy] = {
            "makespan": result.metrics["makespan"],
            "total_energy": result.metrics["total_energy"],
            "mean_wait": result.metrics["mean_wait"],
            "completed": result.metrics["task_count"],
            "failed": result.metrics["failed_tasks"],
        }
    return {"trace": "mini.swf", "queue_cores": 16, "policies": policies}


def green_score_golden() -> dict:
    """A GREEN_SCORE run under provisioning, a crash storm and mixed preferences.

    Twelve Table I nodes behind per-cluster Local Agents, 300 tasks in
    bursts above the provisioned capacity (so queues form and the
    Equation 4 waiting term matters), user preferences spanning
    ``[-1, 1]`` (±1 exercise the ±0.9 clamp, 0 falls back to the policy's
    ``default_preference``), crashes with requeue on half of the
    nodes and a two-level tariff cycle driving the planner.
    """
    import random

    from repro.lab import (
        LabSession,
        PlatformSource,
        PolicySource,
        ProvisioningSource,
        WorkloadSource,
    )
    from repro.scenario.generators import exponential_failures, periodic_tariffs
    from repro.simulation.task import Task
    from repro.simulation.trace import ExecutionTrace
    from repro.workload.traces import TraceWorkload

    rng = random.Random("green-score-golden")
    tasks = [
        Task(
            flop=3.0e11 * rng.lognormvariate(0.0, 0.5),
            arrival_time=600.0 * (index // 60) + rng.uniform(0.0, 30.0),
            client=f"user-{rng.randrange(4)}",
            user_preference=rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)),
        )
        for index in range(300)
    ]
    tasks.sort(key=lambda task: task.arrival_time)
    horizon = tasks[-1].arrival_time + 3600.0
    platform = PlatformSource.table1(4)
    names = [node.name for node in platform.build_platform().nodes]
    timeline = exponential_failures(
        names[::2], mtbf=horizon / 8.0, mttr=horizon / 40.0, horizon=horizon, seed=5
    ).extended(periodic_tariffs(period=horizon / 2.0, costs=(1.0, 0.4), horizon=horizon).events)
    result = LabSession(
        platform=platform,
        workload=WorkloadSource.from_generator(TraceWorkload.from_iter(tasks)),
        policy=PolicySource("GREEN_SCORE", preference=0.25),
        provisioning=ProvisioningSource(),
        timeline=timeline,
        horizon=horizon,
    ).run()
    simulation = result.simulation
    requeued = len(simulation.trace.of_kind(ExecutionTrace.TASK_REQUEUED))
    return {
        "tasks": len(tasks),
        "completed": simulation.metrics.task_count,
        "requeued": requeued,
        "failed": simulation.failed_tasks,
        "rejected": simulation.rejected_tasks,
        "total_energy": simulation.metrics.total_energy,
        "makespan": simulation.metrics.makespan,
        "tasks_per_node": dict(simulation.metrics.tasks_per_node),
    }


GOLDENS = {
    "table2.json": table2_golden,
    "figure9.json": figure9_golden,
    "queue_table.json": queue_table_golden,
    "green_score.json": green_score_golden,
}


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    changed = 0
    for name, build in GOLDENS.items():
        path = GOLDEN_DIR / name
        payload = json.dumps(build(), indent=2, sort_keys=True) + "\n"
        previous = path.read_text("utf-8") if path.exists() else None
        if payload == previous:
            print(f"make_goldens: {name}: unchanged")
            continue
        path.write_text(payload, "utf-8")
        changed += 1
        state = "rewritten" if previous is not None else "created"
        print(f"make_goldens: {name}: {state}")
    print(f"make_goldens: {len(GOLDENS)} fixture(s), {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
