"""The ``serve-http`` workload: the real placement daemon over HTTP.

The daemon is started as a subprocess (``python -m repro serve --port 0``
on the paper platform with the default policy); the client speaks
:mod:`repro.serve.protocol` over one connection, in two phases:

* **phase A, open loop** — requests sent on a fixed wall-clock schedule,
  well under capacity; each is timed from when it was *due*, so a stall
  also counts against the requests queued behind it;
* **phase B, closed loop** — a fixed pipelining window; the sustained
  request rate is the daemon's capacity.

Every response's node must equal the node an offline
:meth:`repro.serve.state.ServeState.place_batch` replay of the same
submissions elects (the serve == simulate contract).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.common import (
    ROOT,
    SRC,
    HostSpeed,
    Outcome,
    cpus,
    median,
    peak_rss_mb,
    percentile,
    pinned_to,
    reference_work,
)
from perfbench.kernel import TICK_EVERY_S, Probe
from perfbench.tracing import Patcher

#: Sizes per scale: phase-A rate (requests per wall second), phase-B
#: pipelining window and request count per measured second.
SIZES = {
    "full": {"rate": 400.0, "window": 16, "closed_per_s": 1000, "starts": 3},
    "smoke": {"rate": 200.0, "window": 4, "closed_per_s": 100, "starts": 2},
}
#: Share of the measured seconds given to phase A (phase B follows).
PHASE_A_SHARE = 0.6
#: In-process replays of the served stream: the first is the serve ==
#: simulate reference, every one must agree with it.
REPLAYS = 5
#: Phase A runs in this many segments, each on a fresh schedule.
OPEN_SEGMENTS = 30
#: Phase B's rate is the median over this many equal slices of it (the
#: host-speed reference is timed between them), so a host stall in one
#: slice does not move the figure.
CLOSED_SLICES = 40
#: Idle pause before each tick between segments (see ``_settled_tick``).
SETTLE_S = 0.02

PLATFORM = "paper"
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: Virtual seconds between submissions: each tenant offers 1/4 request per
#: virtual second, so a quota of 1/s with a burst of 16 never refuses.
VIRTUAL_GAP = 1.0
QUOTA_RATE = 1.0
QUOTA_BURST = 16.0
#: Mean task cost: about 40 s on one core; at one arrival per virtual
#: second about 40 of the 104 cores are busy, so the backlog stays flat.
TASK_FLOP = 1.0e11
STARTUP_TIMEOUT_S = 60.0


def submissions(seed: int, count: int):
    """The seeded request stream: tenants in shuffled rounds, varied sizes."""
    from repro.serve.protocol import SubmitRequest

    rng = random.Random(f"serve-http:{seed}")
    requests = []
    order: list[str] = []
    for index in range(count):
        if not order:
            order = list(TENANTS)
            rng.shuffle(order)
        requests.append(
            SubmitRequest(
                tenant=order.pop(),
                flop=TASK_FLOP * rng.lognormvariate(0.0, 0.5),
                time=index * VIRTUAL_GAP,
                preference=rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)),
            )
        )
    return requests


# -- the daemon --------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess; ``start()`` returns its set-up time."""

    def __init__(self, command: list[str]) -> None:
        self.command = command
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *self.command, "serve", "--port", "0", "--platform", PLATFORM,
             "--quota-rate", str(QUOTA_RATE), "--quota-burst", str(QUOTA_BURST)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(STARTUP_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        setup = time.perf_counter() - started
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        return setup

    def move_to(self, cpu: int | None) -> None:
        """Keep the daemon on ``cpu`` from now on (no-op for ``None``)."""
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(self.process.pid, {cpu})

    def stop(self) -> None:
        """Ask for a graceful shutdown and wait for the process to exit."""
        process = self.process
        if process is None:
            return
        if process.poll() is None and self.port:
            try:
                asyncio.run(_post_shutdown(self.port))
            except OSError:
                pass
        try:
            _out, err = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            _out, err = process.communicate()
        self.process = None
        if process.returncode != 0:
            raise RuntimeError(f"daemon exited {process.returncode}: {err[-2000:]}")


async def _post_shutdown(port: int) -> None:
    from repro.serve.protocol import read_response, render_request

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(render_request("POST", "/shutdown"))
        await writer.drain()
        await read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


# -- the client ------------------------------------------------------------------------------


def _segments(count: int, parts: int):
    """``range(count)`` cut into ``parts`` contiguous, nearly equal ranges."""
    parts = max(1, min(parts, count))
    edges = [count * part // parts for part in range(parts + 1)]
    return [range(low, high) for low, high in zip(edges, edges[1:])]


def _warm_tick(speed: HostSpeed) -> None:
    """Tick after one untimed reference run on each CPU.

    A tick that follows idle time reads up to 1.6x slower than one that
    follows work (the vCPU and its caches wake up during it), and the
    serve workload ticks after idle time.
    """
    for cpu in speed.on_cpus:
        with pinned_to(cpu):
            reference_work()
    speed.tick()


async def _settled_tick(speed: HostSpeed) -> None:
    """Tick once the daemon has finished what the last reply left it to do.

    Without the pause a tick can share its CPU with the daemon's tail
    work, read slow, and scale the segment before it by a wrong factor.
    """
    await asyncio.sleep(SETTLE_S)
    _warm_tick(speed)


async def _drive(port: int, phase_a, rate: float, phase_b, window: int,
                 speed: HostSpeed, between) -> dict:
    """Phase A (open loop at ``rate``), ``between()``, then phase B (closed loop, ``window``).

    Each phase runs in short segments with nothing in flight between
    them.  Phase A's schedule restarts after each segment, so one stall
    delays only its own segment; its latencies stay in host seconds (see
    :func:`measure`).  In phase B ``speed`` ticks in every gap (the loop
    has nothing else to do then), and each slice's rate is rescaled by
    the ticks on either side of it.
    """
    from repro.serve.protocol import read_response, render_request

    clock = time.perf_counter
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies: list[tuple[int, object]] = []
    try:
        count = len(phase_a)
        latency = [0.0] * count
        late = [0.0] * count
        for segment in _segments(count, OPEN_SEGMENTS):
            first_due = clock() + 0.01
            due = {index: first_due + (index - segment.start) / rate for index in segment}

            async def receive_open_loop(segment=segment, due=due) -> None:
                for index in segment:
                    replies.append(await read_response(reader))
                    latency[index] = clock() - due[index]

            receiver = asyncio.create_task(receive_open_loop())
            for index in segment:
                wait = due[index] - clock()
                if wait > 0:
                    await asyncio.sleep(wait)
                late[index] = max(0.0, clock() - due[index])
                writer.write(render_request("POST", "/submit", phase_a[index].to_json()))
            await writer.drain()
            await receiver

        between()
        await _settled_tick(speed)
        closed_rates = []
        closed_s = 0.0
        for segment in _segments(len(phase_b), CLOSED_SLICES):
            started = clock()
            pending = iter(segment)
            in_flight = 0
            for index in pending:
                writer.write(render_request("POST", "/submit", phase_b[index].to_json()))
                in_flight += 1
                if in_flight >= window:
                    break
            while in_flight:
                replies.append(await read_response(reader))
                in_flight -= 1
                index = next(pending, None)
                if index is not None:
                    writer.write(render_request("POST", "/submit", phase_b[index].to_json()))
                    in_flight += 1
            ended = clock()
            closed_s += ended - started
            await _settled_tick(speed)
            closed_rates.append(len(segment) / speed.scaled(started, ended))
    finally:
        writer.close()
        await writer.wait_closed()
    return {
        "replies": replies,
        "latency": latency,
        "late": late,
        "closed_rates": closed_rates,
        "closed_s": closed_s,
    }


# -- the offline replay -------------------------------------------------------------------------


def offline_replay(requests) -> dict:
    """Place the same submissions in-process, as the daemon's state would."""
    from repro.experiments.presets import PLATFORM_PRESETS
    from repro.lab import LabSession, PlatformSource, PolicySource, WorkloadSource

    started = time.perf_counter()
    state = LabSession(
        platform=PlatformSource.table1(PLATFORM_PRESETS[PLATFORM]),
        workload=WorkloadSource.served(),
        policy=PolicySource("GREENPERF"),
    ).open_state()
    placing = time.perf_counter()
    decisions = state.place_batch(
        [request.to_task(arrival_time=request.time) for request in requests]
    )
    result = state.drain()
    ended = time.perf_counter()
    return {
        "nodes": [decision.node for decision in decisions],
        "completed": result.metrics.task_count,
        "started": started,
        "placing": placing,
        "ended": ended,
    }


# -- the workload ---------------------------------------------------------------------------------


def _session(seed: int, seconds: float, scale: str, command: list[str], starts: int,
             client_cpu: int | None = None, daemon_cpu: int | None = None):
    """Start the daemon ``starts`` times (timing each), then drive the last one.

    The client runs on ``client_cpu``.  The daemon starts and serves
    phase B on ``daemon_cpu``, but serves phase A on the client's CPU:
    a request then costs the client's and the daemon's work on one CPU,
    not a wake-up of the other vCPU, which the host delays by anything
    up to a millisecond depending on other tenants.
    """
    size = SIZES[scale]
    speed = HostSpeed(dict.fromkeys((client_cpu, daemon_cpu)))
    open_count = max(20, int(size["rate"] * seconds * PHASE_A_SHARE))
    closed_count = max(20, int(size["closed_per_s"] * seconds * (1.0 - PHASE_A_SHARE)))
    requests = submissions(seed, open_count + closed_count)
    setups = []
    for index in range(starts):
        daemon = Daemon(command)
        _warm_tick(speed)
        started = time.perf_counter()
        with pinned_to(daemon_cpu):  # the daemon inherits the CPU
            daemon.start()
        ended = time.perf_counter()
        _warm_tick(speed)
        setups.append(speed.scaled(started, ended))
        if index < starts - 1:
            daemon.stop()
    try:
        daemon.move_to(client_cpu)
        run = asyncio.run(
            _drive(daemon.port, requests[:open_count], size["rate"],
                   requests[open_count:], size["window"], speed,
                   lambda: daemon.move_to(daemon_cpu))
        )
    finally:
        daemon.stop()
    run.update(
        requests=requests,
        open_count=open_count,
        closed_count=closed_count,
        setups=setups,
        speed_notes=speed.note(),
    )
    return run


def _check(outcome: Outcome, run: dict, replays: list[dict]) -> None:
    from repro.serve.protocol import SubmitResponse

    expected = replays[0]["nodes"]
    non_200 = 0
    for index, (status, body) in enumerate(run["replies"]):
        outcome.attempted += 1
        response = SubmitResponse.from_json(body) if status == 200 else None
        if status != 200:
            non_200 += 1
        if response is None or not response.accepted or response.node != expected[index]:
            outcome.failed += 1
    outcome.notes["client.non_200"] = non_200
    outcome.check(
        "every response is 200 and names the offline replay's node",
        outcome.failed == 0,
        f"{outcome.failed} of {outcome.attempted} differ",
    )
    outcome.check(
        "offline replay is deterministic",
        all(replay["nodes"] == expected for replay in replays),
    )
    outcome.check(
        "offline replay places and completes every task",
        all(replay["completed"] == len(expected) and None not in replay["nodes"] for replay in replays),
    )


def measure(workload: str, seed: int, seconds: float, scale: str, workdir: Path,
            pinned: str | None) -> Outcome:
    outcome = Outcome()
    own = cpus() or (None,)
    client_cpu, daemon_cpu = own[0], own[-1]
    replay_speed = HostSpeed((client_cpu,), every=TICK_EVERY_S)
    patcher = Patcher()
    try:
        with pinned_to(client_cpu):
            run = _session(
                seed, seconds, scale, ["-m", "repro"], SIZES[scale]["starts"], client_cpu,
                daemon_cpu,
            )
            Probe(patcher).speed = replay_speed  # ticks inside the replays too
            replays = []
            replay_speed.tick()
            for _ in range(REPLAYS):
                replays.append(offline_replay(run["requests"]))
                replay_speed.tick()
    finally:
        patcher.restore()
    _check(outcome, run, replays)
    # Phase A latencies are host milliseconds.  A request at this rate is
    # mostly the guest kernel's loopback TCP, epoll and context switches,
    # which the host's contention slows far less than Python bytecode: when
    # the reference ran 2x slower, unscaled p50 rose by 14-20% and scaled
    # p50 fell by 40%.
    latency_ms = [1e3 * value for value in run["latency"]]
    samples = len(latency_ms)
    walls = [replay_speed.scaled(r["started"], r["ended"]) for r in replays]
    outcome.metric("setup_s", median(run["setups"]), "s", len(run["setups"]))
    outcome.metric(
        "tasks_per_s",
        median([len(run["requests"]) / replay_speed.scaled(r["placing"], r["ended"]) for r in replays]),
        "1/s",
        REPLAYS,
    )
    outcome.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    outcome.metric("latency_p50_ms", median(latency_ms), "ms", samples)
    outcome.metric("capacity_rps", median(run["closed_rates"]), "1/s", len(run["closed_rates"]))
    outcome.metric("scenarios_per_s", 1.0 / median(walls), "1/s", REPLAYS)
    outcome.metric("cached_scenarios_per_s", 1.0 / median(walls[1:]), "1/s", REPLAYS - 1)
    outcome.notes["host_speed"] = run["speed_notes"]
    outcome.notes["host_speed_replays"] = replay_speed.note()
    late_ms = [1e3 * value for value in run["late"]]
    outcome.notes["phase_a"] = (
        f"{run['open_count']} requests at {SIZES[scale]['rate']:g}/s; "
        f"latency p90 {percentile(latency_ms, 90):.3f} ms, p95 {percentile(latency_ms, 95):.3f} ms, p99 {percentile(latency_ms, 99):.3f} ms, "
        f"p99.9 {percentile(latency_ms, 99.9):.3f} ms; "
        f"generator late p99 {percentile(late_ms, 99):.3f} ms, max {max(late_ms):.3f} ms"
    )
    outcome.notes["phase_b"] = f"{run['closed_count']} requests, window {SIZES[scale]['window']}"
    return outcome


def trace(workload: str, seed: int, scale: str, workdir: Path, pinned: str | None):
    """An untraced and a traced daemon on the same stream (one start each)."""
    seconds = 6.0 if scale == "full" else 2.0
    plain = _session(seed, seconds, scale, ["-m", "repro"], 1)
    dump = workdir / "daemon-trace.json"
    command = [str(ROOT / "perfbench" / "daemon.py"), "--trace-out", str(dump), "--"]
    traced = _session(seed, seconds, scale, command, 1)
    outcome = Outcome()
    replays = [offline_replay(traced["requests"])]
    _check(outcome, traced, replays)
    daemon = json.loads(dump.read_text())
    late_ms = [1e3 * value for value in traced["late"]]
    plain_ms = [1e3 * value for value in plain["latency"]]
    context = {
        "wall_s": daemon["wall_s"],
        "tasks": len(traced["requests"]),
        "trace_overhead": traced["closed_s"] / plain["closed_s"],
        "client.late_ms_p99": percentile(late_ms, 99),
        "client.late_ms_max": max(late_ms),
        "client.non_200": outcome.notes["client.non_200"],
        "client.latency_p90_ms": percentile(plain_ms, 90),
        "client.latency_p99_ms": percentile(plain_ms, 99),
    }
    return outcome, daemon["summary"], context
