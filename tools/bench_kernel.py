#!/usr/bin/env python3
"""Kernel benchmark: event-driven energy accounting at week-long scale.

Runs a fixed scenario — 50 nodes × 10,000 tasks spread over a one-week
horizon — through :class:`~repro.middleware.driver.MiddlewareSimulation`
once per energy mode and reports wall time, engine events per second,
peak RSS and the size of the accounting store:

* ``quantized`` — segment accounting on the 1 Hz sampling grid;
* ``exact``     — segment accounting, analytic integration.

A third case, ``combined``, exercises the full ``repro.lab``
composition on the same scale: the task stream written to (and replayed
from) a trace file, a seeded crash-storm + tariff timeline injected, and
the adaptive provisioning planner active — the
trace × timeline × provisioning cross-product end-to-end.

Each mode runs in its own subprocess so peak-RSS figures are independent
high-water marks.  Results are written to ``BENCH_kernel.json`` (override
with ``--out``); ``--quick`` shrinks the scenario for CI smoke runs
(12 nodes × 1,000 tasks × 1 day).

A separate ``--serve`` mode benchmarks the serving layer instead: a
:class:`~repro.serve.service.PlacementService` on an ephemeral port,
hammered by the replay client at pipelining windows 1, 8 and 64, and
reports sustained requests/sec per window (written to
``BENCH_serve.json``).

A ``--scaling`` mode measures the kernel scaling frontier instead: a
nodes × tasks grid (up to 500 × 100,000, plus a 5,000-node point) run
once with the resident incremental ranking and once with the knob forced
off (``master.use_resident_ranking = False`` — the seed's per-request
tree walk).  The seed path is measured at a reduced task count and
extrapolated linearly in tasks (its per-event cost is independent of the
task count: every election walks all nodes), which is what makes the
100k-task points affordable to baseline.  Per-phase wall-time breakdowns
(estimation / scoring / dispatch / energy) ride along in every point.
Results go to ``BENCH_scaling.json``; with ``--quick --baseline FILE``
the run doubles as a CI regression guard, failing when any grid point
drops more than 30% below the committed quick figures.

Usage::

    PYTHONPATH=src python tools/bench_kernel.py            # full scenario
    PYTHONPATH=src python tools/bench_kernel.py --quick    # CI smoke run
    PYTHONPATH=src python tools/bench_kernel.py --serve    # daemon throughput
    PYTHONPATH=src python tools/bench_kernel.py --scaling  # scaling frontier
    PYTHONPATH=src python tools/bench_kernel.py --scaling --quick \
        --baseline BENCH_scaling.json                      # CI guard
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Per-task cost: ≈ 600 s on one Taurus core (2.3 GFLOP/s).
TASK_FLOP = 1.38e12

FULL_SCENARIO = {"nodes": 50, "tasks": 10_000, "horizon_s": 604_800.0}
QUICK_SCENARIO = {"nodes": 12, "tasks": 1_000, "horizon_s": 86_400.0}

MODES = ("quantized", "exact")

#: The lab-composition benchmark case (not an energy mode).
COMBINED = "combined"

ALL_CASES = MODES + (COMBINED,)


def build_platform(node_count: int):
    """A ``node_count``-node platform cycling the three Table I node types."""
    from repro.infrastructure.cluster import Cluster
    from repro.infrastructure.node import Node, NodeSpec
    from repro.infrastructure.platform import (
        Platform,
        orion_spec,
        sagittaire_spec,
        taurus_spec,
    )

    templates = (orion_spec(), taurus_spec(), sagittaire_spec())
    per_cluster: dict[str, list[Node]] = {t.cluster: [] for t in templates}
    for index in range(node_count):
        template = templates[index % len(templates)]
        rank = len(per_cluster[template.cluster])
        spec = NodeSpec(
            name=f"{template.cluster}-{rank}",
            cluster=template.cluster,
            cores=template.cores,
            flops_per_core=template.flops_per_core,
            idle_power=template.idle_power,
            peak_power=template.peak_power,
            boot_power=template.boot_power,
            boot_time=template.boot_time,
            memory_gb=template.memory_gb,
        )
        per_cluster[template.cluster].append(Node(spec))
    return Platform(
        [Cluster(name, nodes) for name, nodes in per_cluster.items() if nodes]
    )


def build_tasks(task_count: int, horizon: float):
    """Evenly spaced arrivals over ``horizon``: long stretches of near-idle
    simulated time in which the segment accountant does nothing at all."""
    from repro.simulation.task import Task

    spacing = horizon / task_count
    return [
        Task(flop=TASK_FLOP, arrival_time=index * spacing, client="bench")
        for index in range(task_count)
    ]


def run_mode(mode: str, scenario: dict) -> dict:
    """Run one energy mode in-process and measure it."""
    from repro.core.policies import PowerPolicy
    from repro.middleware.driver import MiddlewareSimulation
    from repro.middleware.hierarchy import build_hierarchy

    platform = build_platform(scenario["nodes"])
    master, seds = build_hierarchy(platform, scheduler=PowerPolicy())
    simulation = MiddlewareSimulation(
        platform,
        master,
        seds,
        sample_period=1.0,
        policy_name="POWER",
        energy_mode=mode,
        trace_level="off",
    )
    tasks = build_tasks(scenario["tasks"], scenario["horizon_s"])

    started = time.perf_counter()
    simulation.submit_workload(tasks)
    result = simulation.run()
    wall = time.perf_counter() - started

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes, Linux kilobytes
        peak_rss_kb //= 1024
    return {
        "mode": mode,
        "wall_s": round(wall, 3),
        "events": result.events_processed,
        "events_per_s": round(result.events_processed / wall) if wall else None,
        "peak_rss_kb": peak_rss_kb,
        "completed_tasks": result.metrics.task_count,
        "total_energy_j": result.total_energy,
        "store_kind": "segments",
        "store_objects": simulation.accountant.log.segment_count,
    }


def run_combined(scenario: dict) -> dict:
    """The trace × timeline × provisioning composition, through repro.lab.

    The same task volume as the energy-mode cases, but arriving from a
    written-then-replayed trace file, under a seeded crash storm with a
    cyclic tariff schedule, scheduled by GreenPerf behind the adaptive
    provisioning planner.
    """
    import tempfile

    from repro.lab import (
        LabSession,
        PlatformSource,
        PolicySource,
        ProvisioningSource,
        WorkloadSource,
    )
    from repro.scenario.generators import exponential_failures, periodic_tariffs
    from repro.workload.traces import save_trace

    horizon = scenario["horizon_s"]
    nodes_per_cluster = max(1, scenario["nodes"] // 3)
    platform_source = PlatformSource.table1(nodes_per_cluster)
    node_names = [node.name for node in platform_source.build_platform().nodes]

    timeline = exponential_failures(
        node_names[:: max(1, len(node_names) // 8)],  # a handful of flaky nodes
        mtbf=horizon / 4.0,
        mttr=horizon / 50.0,
        horizon=horizon,
        seed=42,
    ).extended(
        periodic_tariffs(period=horizon / 4.0, costs=(1.0, 0.5), horizon=horizon).events
    )
    with tempfile.TemporaryDirectory(prefix="bench_kernel_") as tmpdir:
        trace_path = Path(tmpdir) / "bench_trace.csv"
        save_trace(trace_path, build_tasks(scenario["tasks"], horizon))
        session = LabSession(
            platform=platform_source,
            workload=WorkloadSource.from_trace(trace_path),
            policy=PolicySource("GREENPERF"),
            provisioning=ProvisioningSource(),
            timeline=timeline,
            horizon=horizon,
            trace_level="off",
        )

        started = time.perf_counter()
        result = session.run()
        wall = time.perf_counter() - started

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes, Linux kilobytes
        peak_rss_kb //= 1024
    events = int(result.metrics["events"])
    return {
        "mode": COMBINED,
        "wall_s": round(wall, 3),
        "events": events,
        "events_per_s": round(events / wall) if wall else None,
        "peak_rss_kb": peak_rss_kb,
        "completed_tasks": int(result.metrics["task_count"]),
        "total_energy_j": result.metrics["total_energy"],
        "failed_tasks": int(result.metrics["failed_tasks"]),
        "rejected_tasks": int(result.metrics["rejected_tasks"]),
        "timeline_events": len(timeline),
        "final_candidates": int(result.metrics["final_candidates"]),
    }


#: The scaling frontier: nodes × tasks, including the ISSUE's 500 × 100k
#: target point and a 5,000-node breadth point.
SCALING_GRID = (
    (50, 10_000),
    (100, 20_000),
    (200, 50_000),
    (500, 100_000),
    (5_000, 20_000),
)
QUICK_SCALING_GRID = ((25, 2_000), (50, 5_000))

#: Task counts at which the seed (tree-walk) baseline is actually run;
#: larger points extrapolate linearly in tasks from these.
BASELINE_TASKS = 2_000
QUICK_BASELINE_TASKS = 500

#: CI regression guard: fail when a quick point's events/s falls below
#: this fraction of the committed figure.
SCALING_GUARD_FLOOR = 0.70


def scaling_horizon(nodes: int, tasks: int) -> float:
    """Horizon keeping per-node arrival pressure equal to the 50 × 10k case."""
    reference = FULL_SCENARIO
    return (
        reference["horizon_s"]
        * (tasks / reference["tasks"])
        * (reference["nodes"] / nodes)
    )


def run_scaling_point(nodes: int, tasks: int, *, resident: bool) -> dict:
    """One grid point, in-process: POWER policy, quantized accounting.

    ``resident=False`` forces the per-request hierarchy walk — the seed's
    election path — via the Master Agent's knob, so both runs share every
    other code path bit for bit.
    """
    from repro.core.policies import PowerPolicy
    from repro.middleware.driver import MiddlewareSimulation
    from repro.middleware.hierarchy import build_hierarchy
    from repro.util import phases

    horizon = scaling_horizon(nodes, tasks)
    platform = build_platform(nodes)
    master, seds = build_hierarchy(platform, scheduler=PowerPolicy())
    master.use_resident_ranking = resident
    timer = phases.activate(phases.PhaseTimer())
    try:
        simulation = MiddlewareSimulation(
            platform,
            master,
            seds,
            sample_period=1.0,
            policy_name="POWER",
            energy_mode="quantized",
            trace_level="off",
        )
        workload = build_tasks(tasks, horizon)
        started = time.perf_counter()
        simulation.submit_workload(workload)
        result = simulation.run()
        wall = time.perf_counter() - started
    finally:
        phases.deactivate()

    ranking = getattr(master, "_ranking", None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes, Linux kilobytes
        peak_rss_kb //= 1024
    return {
        "nodes": nodes,
        "tasks": tasks,
        "horizon_s": round(horizon, 1),
        "resident_requested": resident,
        "resident_active": type(ranking).__name__ == "ResidentRanking",
        "wall_s": round(wall, 3),
        "events": result.events_processed,
        "events_per_s": round(result.events_processed / wall) if wall else None,
        "peak_rss_kb": peak_rss_kb,
        "completed_tasks": result.metrics.task_count,
        "total_energy_j": result.total_energy,
        "phases": {name: round(secs, 3) for name, secs in timer.totals().items()},
    }


def run_scaling_in_subprocess(nodes: int, tasks: int, *, resident: bool) -> dict:
    """Isolate one scaling point in a child for clean RSS and cold caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    spec = f"{nodes}:{tasks}:{'resident' if resident else 'baseline'}"
    command = [sys.executable, str(Path(__file__).resolve()), "--run-scaling", spec]
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"scaling subprocess for {spec!r} failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def run_scaling_grid(grid, baseline_tasks: int) -> list[dict]:
    """Run the full grid: resident point + measured/extrapolated baseline."""
    points = []
    for nodes, tasks in grid:
        print(f"scaling {nodes} nodes x {tasks:,} tasks ...", flush=True)
        resident = run_scaling_in_subprocess(nodes, tasks, resident=True)
        base_tasks = min(tasks, baseline_tasks)
        baseline = run_scaling_in_subprocess(nodes, base_tasks, resident=False)
        # The tree walk costs O(nodes) per event regardless of task count,
        # so its events/s at the full task count equals the measured
        # small-run figure (wall time extrapolates linearly in tasks).
        seed_events_per_s = baseline["events_per_s"]
        speedup = (
            round(resident["events_per_s"] / seed_events_per_s, 2)
            if seed_events_per_s
            else None
        )
        point = {
            "nodes": nodes,
            "tasks": tasks,
            "horizon_s": resident["horizon_s"],
            "resident": resident,
            "baseline": baseline,
            "baseline_extrapolated": base_tasks < tasks,
            "seed_events_per_s": seed_events_per_s,
            "speedup_vs_seed": speedup,
        }
        points.append(point)
        print(
            f"  resident {resident['events_per_s']:>10,} events/s   "
            f"seed {seed_events_per_s:>10,} events/s"
            f"{' (extrapolated)' if point['baseline_extrapolated'] else ''}   "
            f"speedup {speedup}x",
            flush=True,
        )
    return points


def check_scaling_baseline(points: list[dict], baseline_path: Path) -> list[str]:
    """Regression guard: compare quick points against the committed file."""
    committed = json.loads(baseline_path.read_text())
    reference = committed.get("quick", committed).get("points", [])
    by_key = {(p["nodes"], p["tasks"]): p for p in reference}
    failures = []
    for point in points:
        ref = by_key.get((point["nodes"], point["tasks"]))
        if ref is None:
            continue
        floor = ref["resident"]["events_per_s"] * SCALING_GUARD_FLOOR
        measured = point["resident"]["events_per_s"]
        if measured < floor:
            failures.append(
                f"{point['nodes']} nodes x {point['tasks']:,} tasks: "
                f"{measured:,} events/s < {floor:,.0f} "
                f"({SCALING_GUARD_FLOOR:.0%} of committed "
                f"{ref['resident']['events_per_s']:,})"
            )
    return failures


#: Pipelining windows the serve benchmark sweeps (in-flight requests per
#: connection — the daemon's micro-batches grow with the window).
SERVE_WINDOWS = (1, 8, 64)

FULL_SERVE_TASKS = 5_000
QUICK_SERVE_TASKS = 500


def run_serve(scenario: dict) -> dict:
    """Daemon throughput: requests/sec at each pipelining window.

    A fresh service per window (so earlier windows cannot warm queues
    for later ones), one replay connection, no admission limits — the
    measured figure is the placement + protocol path itself.
    """
    import asyncio

    from repro.serve.replay import replay_tasks
    from repro.serve.service import PlacementService
    from repro.serve.state import ServeState

    task_count = scenario["serve_tasks"]
    windows = {}
    for window in SERVE_WINDOWS:

        async def measure(window: int = window) -> dict:
            service = PlacementService(ServeState.assemble())
            await service.start()
            try:
                report = await replay_tasks(
                    build_tasks(task_count, float(task_count)),
                    host=service.host,
                    port=service.port,
                    window=window,
                    tenant="bench",
                )
                stats = service.stats()
            finally:
                await service.stop()
            return {
                "requests": report.sent,
                "accepted": report.accepted,
                "wall_s": round(report.wall_seconds, 3),
                "requests_per_s": round(report.requests_per_second),
                "micro_batches": stats["batches"]["count"],
                "largest_batch": stats["batches"]["largest"],
            }

        windows[str(window)] = asyncio.run(measure())
    return {
        "scenario": {
            "tasks_per_window": task_count,
            "platform": "table1(1)",
            "policy": "GREENPERF",
            "task_flop": TASK_FLOP,
            "quick": scenario["quick"],
        },
        "windows": windows,
    }


def run_mode_in_subprocess(mode: str, quick: bool) -> dict:
    """Isolate one mode in a child process for a clean peak-RSS reading."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, str(Path(__file__).resolve()), "--run-mode", mode]
    if quick:
        command.append("--quick")
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"benchmark subprocess for mode {mode!r} failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def summarise(scenario: dict, by_mode: dict) -> dict:
    by_mode = dict(by_mode)
    combined = by_mode.pop(COMBINED, None)
    report = {
        "scenario": scenario,
        "modes": by_mode,
    }
    if combined is not None:
        report["combined"] = combined
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-scale scenario")
    parser.add_argument(
        "--serve",
        action="store_true",
        help="benchmark the placement daemon (requests/sec per pipelining window)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_kernel.json, or "
        "BENCH_serve.json with --serve)",
    )
    parser.add_argument(
        "--modes",
        default=",".join(ALL_CASES),
        help=f"comma-separated subset of {ALL_CASES} (default: all)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="benchmark the nodes x tasks scaling frontier (resident ranking "
        "vs the seed tree walk); writes BENCH_scaling.json",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="with --scaling: committed BENCH_scaling.json to guard against; "
        f"fails when any point drops below {SCALING_GUARD_FLOOR:.0%} of it",
    )
    parser.add_argument(
        "--run-mode",
        default=None,
        help=argparse.SUPPRESS,  # internal: child-process entry point
    )
    parser.add_argument(
        "--run-scaling",
        default=None,
        help=argparse.SUPPRESS,  # internal: "nodes:tasks:resident|baseline"
    )
    args = parser.parse_args(argv)

    scenario = dict(QUICK_SCENARIO if args.quick else FULL_SCENARIO)
    scenario["task_flop"] = TASK_FLOP
    scenario["sample_period_s"] = 1.0
    scenario["policy"] = "POWER"
    scenario["quick"] = args.quick
    scenario["serve_tasks"] = QUICK_SERVE_TASKS if args.quick else FULL_SERVE_TASKS

    if args.serve:
        if sys.path[0] != str(SRC):
            sys.path.insert(0, str(SRC))
        report = run_serve(scenario)
        for window, stats in report["windows"].items():
            print(
                f"  window {window:>3}   wall {stats['wall_s']:>7.3f} s   "
                f"{stats['requests_per_s']:>8,} requests/s   "
                f"{stats['micro_batches']} micro-batches "
                f"(largest {stats['largest_batch']})"
            )
        out_path = Path(args.out or REPO_ROOT / "BENCH_serve.json")
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
        return 0

    if args.run_scaling:
        if sys.path[0] != str(SRC):
            sys.path.insert(0, str(SRC))
        nodes, tasks, variant = args.run_scaling.split(":")
        point = run_scaling_point(
            int(nodes), int(tasks), resident=variant == "resident"
        )
        print(json.dumps(point))
        return 0

    if args.scaling:
        grid = QUICK_SCALING_GRID if args.quick else SCALING_GRID
        baseline_tasks = QUICK_BASELINE_TASKS if args.quick else BASELINE_TASKS
        report = {
            "scenario": {
                "task_flop": TASK_FLOP,
                "policy": "POWER",
                "energy_mode": "quantized",
                "baseline_tasks": baseline_tasks,
                "quick": args.quick,
            },
            "points": run_scaling_grid(grid, baseline_tasks),
        }
        if not args.quick:
            # The quick grid rides along in the committed file: it is the
            # stable reference the CI guard compares its own quick run to.
            print("scaling quick reference grid ...", flush=True)
            report["quick"] = {
                "baseline_tasks": QUICK_BASELINE_TASKS,
                "points": run_scaling_grid(
                    QUICK_SCALING_GRID, QUICK_BASELINE_TASKS
                ),
            }
        out_path = Path(args.out or REPO_ROOT / "BENCH_scaling.json")
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
        if args.baseline:
            failures = check_scaling_baseline(
                report["points"], Path(args.baseline)
            )
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            if failures:
                return 1
            print("scaling guard: no regression vs", args.baseline)
        return 0

    if args.run_mode:
        if sys.path[0] != str(SRC):
            sys.path.insert(0, str(SRC))
        if args.run_mode == COMBINED:
            print(json.dumps(run_combined(scenario)))
        else:
            print(json.dumps(run_mode(args.run_mode, scenario)))
        return 0

    modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
    unknown = set(modes) - set(ALL_CASES)
    if unknown:
        parser.error(f"unknown modes {sorted(unknown)}; choose from {ALL_CASES}")

    by_mode = {}
    for mode in modes:
        print(f"running {mode} ...", flush=True)
        by_mode[mode] = run_mode_in_subprocess(mode, args.quick)
        stats = by_mode[mode]
        if "store_objects" in stats:
            store = f"{stats['store_objects']:,} {stats['store_kind']}"
        else:
            store = (
                f"{stats['timeline_events']} timeline events, "
                f"{stats['failed_tasks']} failed tasks"
            )
        print(
            f"  {mode:<10} wall {stats['wall_s']:>9.3f} s   "
            f"{stats['events_per_s']:>12,} events/s   "
            f"peak RSS {stats['peak_rss_kb'] / 1024:>8.1f} MB   "
            f"{store}"
        )

    report = summarise(scenario, by_mode)
    out_path = Path(args.out or REPO_ROOT / "BENCH_kernel.json")
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
