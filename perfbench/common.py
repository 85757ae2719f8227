"""Shared pieces of the benchmark: results, percentiles, run metadata, scratch space."""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Program sources the benchmark imports and starts.
SRC = ROOT / "src"

#: Scratch space for generated traces, stores and daemon trace dumps.
SCRATCH = ROOT / ".perfbench"

#: End-to-end metrics (name -> unit), printed by every ``--trace 0`` run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "capacity_rps": "1/s",
    "scenarios_per_s": "1/s",
    "cached_scenarios_per_s": "1/s",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of ``values``.

    >>> percentile([5, 1, 4, 2, 3], 50)
    3
    >>> percentile(range(1, 101), 99)
    99
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    """Median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size of this process (or of its waited-for children)."""
    kilobytes = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes
        kilobytes /= 1024.0
    return kilobytes / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if (ROOT / ".git").exists():
        try:
            completed = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            completed = None
        if completed is not None and completed.returncode == 0:
            return completed.stdout.strip()
    return os.environ.get("PERFBENCH_GIT_SHA", "unknown")


def run_meta(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What every result is recorded with."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": _git_sha(),
    }


@dataclass
class Metric:
    value: float
    unit: str
    samples: int | None = None


@dataclass
class Outcome:
    """What one workload run produced: metrics plus its output checks."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _name, ok, _detail in self.checks)


def emit(outcome: Outcome, meta: dict, names) -> dict:
    """Print the human-readable report and the final one-line JSON result."""
    for key, value in meta.items():
        print(f"meta {key}: {value}")
    for name, ok, detail in outcome.checks:
        print(f"check {name}: {'ok' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    for key, value in outcome.notes.items():
        print(f"note {key}: {value}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"error_rate = {rate:.6g} ({outcome.failed} failed of {outcome.attempted} attempted)")
    metrics = {}
    for name in names:
        metric = outcome.metrics[name]
        samples = f" (n={metric.samples})" if metric.samples is not None else ""
        print(f"metric {name} = {metric.value:.6g} {metric.unit}{samples}")
        metrics[name] = {"value": metric.value, "unit": metric.unit}
    result = {
        "correct": outcome.correct,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``.perfbench/`` in the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


#: Seconds one :func:`reference_work` run takes at the benchmark's nominal
#: host speed (about its median on the 2-vCPU Xeon VM the benchmark was
#: tuned on).
REFERENCE_S = 0.0075


class _Slot:
    __slots__ = ("key", "load", "energy")

    def __init__(self, key: str) -> None:
        self.key = key
        self.load = 0.0
        self.energy = 0.0

    def add(self, amount: float) -> float:
        self.load += amount
        self.energy += amount * 0.5
        return self.load


def reference_work(steps: int = 6_000) -> float:
    """Fixed pure-Python work in the program's style: objects, dicts, a heap, floats."""
    slots = {index: _Slot(f"n{index}") for index in range(512)}
    heap: list = []
    x = 0.37
    total = 0.0
    for step in range(steps):
        x = 3.9 * x * (1.0 - x)
        slot = slots[int(x * 512.0) & 511]
        total += slot.add(x)
        heapq.heappush(heap, (x + step, step, slot.key))
        if len(heap) > 256:
            heapq.heappop(heap)
    return total


def cpus() -> tuple[int, ...]:
    """The CPUs this process may run on (empty where affinity is not supported)."""
    if not hasattr(os, "sched_getaffinity"):
        return ()
    return tuple(sorted(os.sched_getaffinity(0)))


def pin(cpu: int | None) -> None:
    """Keep this process on ``cpu`` (no-op for ``None``)."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


@contextmanager
def pinned_to(cpu: int | None):
    """Keep this process on ``cpu`` inside the block; restore its CPUs afterwards."""
    allowed = cpus()
    pin(cpu)
    try:
        yield
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)


class HostSpeed:
    """Scales host seconds by the host's speed, measured next to the work.

    Each vCPU of the shared host changes speed by up to 1.7x within a
    fraction of a second, independently of the other, for the program
    and the reference alike.  A *tick* times one :func:`reference_work`
    run on each of ``on_cpus`` in turn (pinned there, then put back; the
    mean is the tick) with garbage collection paused.  Ticks cut host
    time into segments; a segment's work is rescaled by the ticks that
    open and close it::

        scaled_seconds = host_seconds * REFERENCE_S / mean(tick_before, tick_after)

    so a time reads as it would on a host running the reference at its
    nominal speed.  The ticks' own time belongs to no segment.  Callers
    tick between pieces of work, and inside long ones with
    :meth:`maybe_tick` (at most every ``every`` seconds), then ask for
    :meth:`scaled` or :meth:`host` seconds of any interval that closed
    segments cover.  Workloads pin their processes so that a tick
    measures the CPU their work ran on.  The program never runs the
    reference, so any change to its speed moves scaled figures one for one.
    """

    def __init__(self, on_cpus=(None,), every: float | None = None) -> None:
        self.on_cpus = tuple(on_cpus) or (None,)
        self.every = every
        self.samples: list[float] = []
        self._segments: list[tuple[float, float, float]] = []  # start, end, scale
        self._open: tuple[float, float] | None = None  # start, tick that opened it
        self._due = math.inf

    def tick(self) -> float:
        """Close the open segment, time the reference, open the next segment."""
        closed = time.perf_counter()
        allowed = cpus()
        enabled = gc.isenabled()
        gc.disable()
        try:
            per_cpu = []
            for cpu in self.on_cpus:
                pin(cpu)
                started = time.perf_counter()
                reference_work()
                per_cpu.append(time.perf_counter() - started)
        finally:
            if allowed and self.on_cpus != (None,):
                os.sched_setaffinity(0, allowed)
            if enabled:
                gc.enable()
        seconds = sum(per_cpu) / len(per_cpu)
        opened = time.perf_counter()
        if self._open is not None:
            start, before = self._open
            self._segments.append((start, closed, REFERENCE_S / ((before + seconds) / 2.0)))
        self._open = (opened, seconds)
        if self.every is not None:
            self._due = opened + self.every
        self.samples.append(seconds)
        return seconds

    def maybe_tick(self) -> None:
        """Tick if ``every`` seconds have passed since the last tick."""
        if time.perf_counter() >= self._due:
            self.tick()

    def _overlaps(self, start: float, end: float):
        for low, high, scale in self._segments:
            if high > start and low < end:
                yield min(high, end) - max(low, start), scale

    def scaled(self, start: float, end: float) -> float:
        """Scaled seconds of the work done between host instants ``start`` and ``end``."""
        return sum(seconds * scale for seconds, scale in self._overlaps(start, end))

    def host(self, start: float, end: float) -> float:
        """Host seconds of the work done between ``start`` and ``end``, ticks excluded."""
        return sum(seconds for seconds, _scale in self._overlaps(start, end))

    def note(self) -> str:
        return (
            f"reference on CPUs {self.on_cpus}: median {1e3 * median(self.samples):.2f} ms, "
            f"min {1e3 * min(self.samples):.2f}, max {1e3 * max(self.samples):.2f} "
            f"(nominal {1e3 * REFERENCE_S:g} ms, n={len(self.samples)})"
        )


class Budget:
    """Wall-clock budget of the measured part of one run."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def left(self) -> float:
        return self.seconds - self.elapsed
