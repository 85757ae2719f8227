"""The two simulation-kernel workloads: ``kernel-resident`` and ``green-contended``.

Both run one seeded scenario through :class:`repro.lab.LabSession` (the
path ``repro lab run`` takes) again and again for the measured time.  A
scenario run is one *unit*; every unit after the first re-requests the
identical scenario, so all units must produce the same digest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from dataclasses import dataclass
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

#: Input sizes per scale.  ``full`` is what the benchmark measures (and
#: what ``digests.json`` pins); ``smoke`` is for the harness's own tests.
KERNEL_RESIDENT = {
    "full": {"nodes_per_cluster": 67, "tasks": 10_000},
    "smoke": {"nodes_per_cluster": 2, "tasks": 300},
}
GREEN_CONTENDED = {
    "full": {"nodes_per_cluster": 33, "tasks": 1_200},
    "smoke": {"nodes_per_cluster": 2, "tasks": 80},
}

#: Per-task cost of kernel-resident: about 600 s on one Taurus core.
RESIDENT_TASK_FLOP = 1.38e12
#: Poisson arrival rate (tasks per simulated second): about 300 busy cores
#: of 1,742 at full scale, so SeD queues stay empty.
RESIDENT_RATE = 0.5

#: Seconds between host-speed ticks inside a timed unit.
TICK_EVERY_S = 0.1

#: green-contended task cost (the adaptive experiment's task size).
GREEN_TASK_FLOP = 6.9e11
#: User preferences mixed into the trace (Equation 1 weights).
GREEN_PREFERENCES = (-1.0, -0.5, 0.0, 0.5, 1.0)


class Probe:
    """The cheap hooks every timed unit needs.

    ``MiddlewareSimulation.run`` is timed (one call per unit: it splits
    set-up from simulation) and keeps the simulation for the conservation
    check; ``fail_node`` counts requeued tasks (a few dozen calls).  When
    ``speed`` is set, every task arrival and completion gives it a chance
    to tick (:meth:`perfbench.common.HostSpeed.maybe_tick`), so host speed
    is sampled inside a run, not only between runs.
    """

    def __init__(self, patcher) -> None:
        from repro.middleware.driver import MiddlewareSimulation

        self.simulation = None
        self.run_started = self.run_ended = 0.0
        self.requeued = 0
        self.speed = None
        probe = self

        def run(original):
            @functools.wraps(original)
            def wrapper(self, *args, **kwargs):
                probe.simulation = self
                probe.run_started = time.perf_counter()
                try:
                    return original(self, *args, **kwargs)
                finally:
                    probe.run_ended = time.perf_counter()

            return wrapper

        def fail_node(original):
            @functools.wraps(original)
            def wrapper(self, name, *, requeue=True):
                displaced = original(self, name, requeue=requeue)
                if requeue:
                    probe.requeued += displaced
                return displaced

            return wrapper

        def tick_first(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if probe.speed is not None:
                    probe.speed.maybe_tick()
                return original(*args, **kwargs)

            return wrapper

        patcher.replace(MiddlewareSimulation, "run", run)
        patcher.replace(MiddlewareSimulation, "fail_node", fail_node)
        patcher.replace(MiddlewareSimulation, "_handle_arrival", tick_first)
        patcher.replace(MiddlewareSimulation, "_complete_task", tick_first)

    def start_unit(self) -> None:
        self.simulation = None
        self.requeued = 0


@dataclass
class Unit:
    started: float
    run_started: float
    run_ended: float
    ended: float
    submitted: int
    completed: int
    requeued: int
    digest: str
    fields: dict
    conserved: bool
    conservation: str

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def digest_of(fields: dict) -> str:
    """A short hash of a run's simulated results (floats by ``repr``)."""
    text = json.dumps({key: repr(value) for key, value in sorted(fields.items())})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_unit(make_session, probe: Probe, expected_tasks: int) -> Unit:
    """Assemble and run one scenario; check conservation; digest its results."""
    probe.start_unit()
    started = time.perf_counter()
    result = make_session().run()
    ended = time.perf_counter()
    simulation = probe.simulation
    queued = sum(sed.queue.pending_count for sed in simulation.seds.values())
    completed = simulation.metrics.task_count
    fields = {
        "completed": completed,
        "failed": simulation.failed_tasks,
        "rejected": simulation.rejected_tasks,
        "requeued": probe.requeued,
        "total_energy": float(result.metrics["total_energy"]),
        "makespan": float(result.metrics["makespan"]),
    }
    balance = (
        completed
        + simulation.failed_tasks
        + simulation.rejected_tasks
        + queued
        + simulation.running_tasks
    )
    submitted = simulation.submitted_tasks
    conserved = submitted == balance == expected_tasks
    return Unit(
        started=started,
        run_started=probe.run_started,
        run_ended=probe.run_ended,
        ended=ended,
        submitted=submitted,
        completed=completed,
        requeued=probe.requeued,
        digest=digest_of(fields),
        fields=fields,
        conserved=conserved,
        conservation=(
            f"expected {expected_tasks} = submitted {submitted} = completed {completed}"
            f" + failed {simulation.failed_tasks} + rejected {simulation.rejected_tasks}"
            f" + queued {queued} + running {simulation.running_tasks}"
        ),
    )


# -- inputs -----------------------------------------------------------------------------


def resident_session_factory(seed: int, scale: str, workdir: Path):
    from repro.lab import LabSession, PlatformSource, PolicySource, WorkloadSource
    from repro.workload.generator import PoissonWorkload

    size = KERNEL_RESIDENT[scale]

    def make():
        return LabSession(
            platform=PlatformSource.table1(size["nodes_per_cluster"]),
            workload=WorkloadSource.from_generator(
                PoissonWorkload(
                    total_tasks=size["tasks"],
                    rate=RESIDENT_RATE,
                    flop_per_task=RESIDENT_TASK_FLOP,
                    flop_sigma=0.3,
                    seed=seed,
                )
            ),
            policy=PolicySource("POWER"),
            trace_level="off",
        )

    return make, size["tasks"]


def green_trace_tasks(seed: int, cores: int, count: int):
    """Equal bursts of a third of the platform's cores, 15 minutes apart.

    Each burst lands within one minute on the provisioned candidates
    (fewer cores than the platform has), so queues form at every burst.
    Burst sizes and spacing are fixed, so every seed asks for the same
    amount of scheduling work; the seed varies task sizes, arrival
    instants, tenants and preferences.
    """
    from repro.simulation.task import Task

    rng = random.Random(f"green-contended:{seed}")
    burst = max(1, cores // 3)
    tasks = [
        Task(
            flop=GREEN_TASK_FLOP * rng.lognormvariate(0.0, 0.5),
            arrival_time=900.0 * (index // burst) + rng.uniform(0.0, 60.0),
            client=f"user-{rng.randrange(8)}",
            user_preference=rng.choice(GREEN_PREFERENCES),
        )
        for index in range(count)
    ]
    tasks.sort(key=lambda task: task.arrival_time)
    return tasks


def green_session_factory(seed: int, scale: str, workdir: Path):
    from repro.lab import (
        LabSession,
        PlatformSource,
        PolicySource,
        ProvisioningSource,
        WorkloadSource,
    )
    from repro.scenario.generators import exponential_failures, periodic_tariffs
    from repro.workload.traces import save_trace

    size = GREEN_CONTENDED[scale]
    platform = PlatformSource.table1(size["nodes_per_cluster"])
    built = platform.build_platform()
    tasks = green_trace_tasks(seed, built.total_cores, size["tasks"])
    trace_path = workdir / "green-contended.csv"
    save_trace(trace_path, tasks)
    horizon = tasks[-1].arrival_time + 3600.0
    names = [node.name for node in built.nodes]
    timeline = exponential_failures(
        names[::4], mtbf=horizon / 3.0, mttr=horizon / 30.0, horizon=horizon, seed=seed
    ).extended(periodic_tariffs(period=horizon / 3.0, costs=(1.0, 0.5), horizon=horizon).events)

    def make():
        return LabSession(
            platform=platform,
            workload=WorkloadSource.from_trace(trace_path),
            policy=PolicySource("GREEN_SCORE"),
            provisioning=ProvisioningSource(),
            timeline=timeline,
            horizon=horizon,
            trace_level="off",
        )

    return make, size["tasks"]


FACTORIES = {
    "kernel-resident": resident_session_factory,
    "green-contended": green_session_factory,
}


# -- the workload ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, scale: str, workdir: Path,
            pinned: str | None) -> Outcome:
    """Timed units until ``seconds`` are used (at least two), in scaled seconds.

    The process stays on one CPU, the one the ticks measure; ticks come
    between units and about every :data:`TICK_EVERY_S` inside them.
    """
    from perfbench.tracing import Patcher

    outcome = Outcome()
    make, expected = FACTORIES[workload](seed, scale, workdir)
    patcher = Patcher()
    probe = Probe(patcher)
    cpu = (cpus() or (None,))[0]
    speed = HostSpeed((cpu,), every=TICK_EVERY_S)
    try:
        with pinned_to(cpu):
            budget = Budget(seconds)
            units: list[Unit] = []
            speed.tick()
            probe.speed = speed
            while len(units) < 2 or budget.left() > 0:
                units.append(run_unit(make, probe, expected))
                speed.tick()
    finally:
        patcher.restore()
    check_units(outcome, units, pinned)
    walls = [speed.scaled(u.started, u.ended) for u in units]
    runs = [speed.scaled(u.run_started, u.run_ended) for u in units]
    setups = [speed.scaled(u.started, u.run_started) for u in units]
    outcome.metric("setup_s", median(setups), "s", len(units))
    outcome.metric(
        "tasks_per_s", median([u.completed / run for u, run in zip(units, runs)]), "1/s", len(units)
    )
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.metric("latency_p50_ms", 1e3 * median(walls), "ms", len(units))
    outcome.notes["latency_p90_ms"] = f"{1e3 * percentile(walls, 90):.3f} (n={len(units)})"
    outcome.metric(
        "capacity_rps",
        median([(u.submitted + u.requeued) / run for u, run in zip(units, runs)]),
        "1/s",
        len(units),
    )
    outcome.metric("scenarios_per_s", 1.0 / median(walls), "1/s", len(units))
    outcome.metric("cached_scenarios_per_s", 1.0 / median(walls[1:]), "1/s", len(units) - 1)
    rates = sorted(u.completed / speed.host(u.run_started, u.run_ended) for u in units)
    outcome.notes["units"] = (
        f"{len(units)} runs; unscaled tasks/s min {rates[0]:.1f} median {median(rates):.1f} "
        f"max {rates[-1]:.1f}"
    )
    outcome.notes["host_speed"] = speed.note()
    outcome.notes["digest"] = units[0].digest
    outcome.notes["digest_fields"] = units[0].fields
    return outcome


def check_units(outcome: Outcome, units, pinned: str | None) -> None:
    """Digest identity across repeats (and against the pin) plus conservation."""
    reference = units[0].digest if pinned is None else pinned
    for unit in units:
        outcome.attempted += unit.submitted
        if unit.digest != reference or not unit.conserved:
            outcome.failed += unit.submitted
    digests = sorted({unit.digest for unit in units})
    outcome.check(
        "digest identical across repeats", len(digests) == 1, ", ".join(digests)
    )
    if pinned is None:
        outcome.notes["digest pin"] = "none for this seed; repeats compared with each other only"
    else:
        outcome.check("digest matches the pinned value", digests == [pinned], f"pinned {pinned}")
    bad = [unit.conservation for unit in units if not unit.conserved]
    outcome.check(
        "tasks conserved", not bad, bad[0] if bad else units[0].conservation
    )


def trace(workload: str, seed: int, scale: str, workdir: Path, pinned: str | None):
    """One untraced and one traced unit; returns (outcome, summary, context)."""
    from perfbench.tracing import Patcher, Recorder, install

    outcome = Outcome()
    make, expected = FACTORIES[workload](seed, scale, workdir)
    patcher = Patcher()
    probe = Probe(patcher)
    try:
        plain = run_unit(make, probe, expected)
        recorder = Recorder()
        tracer = install(recorder)
        try:
            started = time.perf_counter()
            traced = run_unit(make, probe, expected)
            ended = time.perf_counter()
        finally:
            tracer.restore()
    finally:
        patcher.restore()
    check_units(outcome, [plain, traced], pinned)
    summary = recorder.summary(started, ended)
    simulation = probe.simulation
    delays = simulation.metrics.queue_delays()
    context = {
        "wall_s": ended - started,
        "trace_overhead": traced.wall_s / plain.wall_s,
        "tasks": traced.submitted,
        "queue.wait_sim_s_mean": float(delays.mean()) if len(delays) else 0.0,
    }
    return outcome, summary, context
