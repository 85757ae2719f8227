"""Outside-in layer tracing: wrap the program's public functions, never edit them.

:func:`install` replaces functions and methods of the ``repro`` modules
(and, for the daemon, the asyncio loop's callback and select calls) with
wrappers that record one *span* per call into a :class:`Recorder`.  The
wrappers only read the clock around the original call, so simulated
results stay bit-identical; :meth:`Patcher.restore` puts every original
back.

Spans are kept in memory as four flat arrays (layer, start, end, parent)
and reduced once, at the end, by :func:`self_times`: a span's *self time*
is its duration minus the durations of its direct children, so the self
times of all spans add up to the time covered by top-level spans, and
nothing is counted twice.  The engine's self time therefore holds only
heap handling and dispatch: every callback it fires is wrapped (through
``SimulationEngine.schedule``/``schedule_many``) in a span named after
the callback, e.g. ``driver.arrival`` or ``driver.complete``.

Counters record work without timing it (``sed.invalidations``,
``estimation.set``, ``validation.calls`` ...), where a span per call
would cost more than the work it measures.
"""

from __future__ import annotations

import asyncio
import collections.abc
import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

_clock = time.perf_counter


def self_times(layers, starts, ends, parents, layer_count: int):
    """Per-layer ``(count, total_s, self_s)`` arrays from raw span arrays.

    ``parents[i]`` is the index of span ``i``'s enclosing span, ``-1`` for
    a top-level span.  Self time is duration minus the summed durations
    of the direct children.

    >>> counts, totals, selfs = self_times([0, 1], [0.0, 1.0], [10.0, 4.0], [-1, 0], 2)
    >>> list(counts), list(totals), list(selfs)
    ([1, 1], [10.0, 3.0], [7.0, 3.0])
    """
    layers = np.asarray(layers, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    durations = ends - starts
    child = np.zeros(len(durations))
    nested = parents >= 0
    np.add.at(child, parents[nested], durations[nested])
    own = durations - child
    counts = np.bincount(layers, minlength=layer_count)
    totals = np.bincount(layers, weights=durations, minlength=layer_count)
    selfs = np.bincount(layers, weights=own, minlength=layer_count)
    return counts, totals, selfs


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.layer_ids: dict[str, int] = {}
        self.layer_names: list[str] = []
        self.layers = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.counters: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        self.marks: dict[str, float] = {}
        self.pid = os.getpid()

    def reset(self) -> None:
        """Drop every span and counter (in place: wrappers hold these objects)."""
        for spans in (self.layers, self.starts, self.ends, self.parents):
            del spans[:]
        self.stack[:] = [-1]
        self.counters.clear()
        self.maxima.clear()
        self.marks.clear()
        self.pid = os.getpid()

    def layer(self, name: str) -> int:
        index = self.layer_ids.get(name)
        if index is None:
            index = self.layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return index

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def summary(self, since: float = float("-inf"), until: float = float("inf")) -> dict:
        """Per-layer counts and times of the spans that started in ``[since, until]``.

        ``attributed_s`` is the time covered by top-level spans, i.e. the
        sum of every layer's self time.
        """
        starts = np.frombuffer(self.starts, dtype=np.float64) if self.starts else np.zeros(0)
        keep = (starts >= since) & (starts <= until)
        layers = np.frombuffer(self.layers, dtype=np.int64)[keep] if self.layers else np.zeros(0, np.int64)
        ends = np.frombuffer(self.ends, dtype=np.float64)[keep] if self.ends else np.zeros(0)
        parents = np.frombuffer(self.parents, dtype=np.int64) if self.parents else np.zeros(0, np.int64)
        # Re-index parents into the kept subset; a parent outside the window
        # makes its child top-level there.
        position = np.full(len(starts), -1, dtype=np.int64)
        position[keep] = np.arange(int(keep.sum()))
        kept_parents = parents[keep]
        kept_parents = np.where(kept_parents >= 0, position[np.maximum(kept_parents, 0)], -1)
        counts, totals, selfs = self_times(
            layers, starts[keep], ends, kept_parents, len(self.layer_names)
        )
        top = kept_parents < 0
        attributed = float((ends[top] - starts[keep][top]).sum())
        return {
            "layers": {
                name: {
                    "count": int(counts[i]),
                    "total_s": float(totals[i]),
                    "self_s": float(selfs[i]),
                }
                for i, name in enumerate(self.layer_names)
                if counts[i]
            },
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "attributed_s": attributed,
        }


def merge_summaries(summaries) -> dict:
    """Sum several per-process summaries (the sweep's workers)."""
    merged = {"layers": {}, "counters": collections.Counter(), "maxima": {}, "attributed_s": 0.0}
    for summary in summaries:
        for name, row in summary["layers"].items():
            into = merged["layers"].setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
        merged["counters"].update(summary["counters"])
        for key, value in summary["maxima"].items():
            merged["maxima"][key] = max(value, merged["maxima"].get(key, value))
        merged["attributed_s"] += summary["attributed_s"]
    merged["counters"] = dict(merged["counters"])
    return merged


# -- wrappers -------------------------------------------------------------------------


def span(recorder: Recorder, layer: str, function, after=None, *, wraps: bool = True):
    """``function`` wrapped in a span; ``after(result, args, kwargs)`` may count the result."""
    index = recorder.layer(layer)
    layers, starts, ends, parents = (
        recorder.layers,
        recorder.starts,
        recorder.ends,
        recorder.parents,
    )

    def wrapper(*args, **kwargs):
        stack = recorder.stack
        position = len(starts)
        layers.append(index)
        parents.append(stack[-1])
        starts.append(0.0)
        ends.append(0.0)
        stack.append(position)
        starts[position] = _clock()
        try:
            result = function(*args, **kwargs)
        finally:
            ends[position] = _clock()
            stack.pop()
        if after is not None:
            after(result, args, kwargs)
        return result

    if wraps:
        wrapper = functools.wraps(function)(wrapper)
    else:
        wrapper.__wrapped__ = function
    return wrapper


def counted(recorder: Recorder, key: str, function):
    """``function`` wrapped in a call counter (no timing)."""
    counters = recorder.counters

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return function(*args, **kwargs)

    return wrapper


class _TracedCoroutine(collections.abc.Coroutine):
    """A coroutine whose every resumption is one span.

    A coroutine runs synchronously between two suspensions, so timing
    each ``send``/``throw`` keeps spans properly nested even though many
    coroutines interleave on one event loop; time spent suspended is not
    counted.
    """

    __slots__ = ("_coroutine", "_step")

    def __init__(self, coroutine, step) -> None:
        self._coroutine = coroutine
        self._step = step

    def send(self, value):
        return self._step(self._coroutine.send, value)

    def throw(self, *args):
        return self._step(self._coroutine.throw, *args)

    def close(self):
        return self._coroutine.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def async_span(recorder: Recorder, layer: str, function):
    """An ``async def`` function whose coroutine is timed step by step."""
    step = span(recorder, layer, lambda resume, *args: resume(*args))

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return _TracedCoroutine(function(*args, **kwargs), step)

    return wrapper


class Patcher:
    """Applies attribute replacements and restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original_function)``.

        Class-level ``classmethod`` descriptors are unwrapped and
        re-wrapped, so ``make`` always receives a plain function.
        """
        if isinstance(owner, type):
            defined = next(k for k in owner.__mro__ if name in k.__dict__)
            raw = defined.__dict__[name]
            saved = raw if defined is owner else _INHERITED
        else:
            raw = saved = getattr(owner, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, name, saved))
        setattr(owner, name, replacement)

    def replace_everywhere(self, function, make) -> None:
        """Replace every ``repro`` module global that *is* ``function``.

        Helpers imported by name (``from x import f``) are looked up in
        the importing module, so each of those references is patched.
        """
        replacement = make(function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._saved.append((module, attribute, value))
                    setattr(module, attribute, replacement)

    def restore(self) -> None:
        for owner, name, raw in reversed(self._saved):
            if raw is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self._saved.clear()


#: Marks a patched attribute that the class inherited (restored by deleting it).
_INHERITED = object()


# -- the layer map ---------------------------------------------------------------------

#: Engine callbacks, by the qualified name of the function they run.
CALLBACK_LAYERS = {
    "MiddlewareSimulation._handle_arrival": "driver.arrival",
    "ServeState._arrive": "driver.arrival",
    "MiddlewareSimulation._complete_task": "driver.complete",
    "MiddlewareSimulation.fail_node": "timeline.fault",
    "MiddlewareSimulation.recover_node": "timeline.fault",
    "ProvisioningPlanner.start.<locals>._periodic": "planner",
    "ProvisioningPlanner._power_on.<locals>.<lambda>": "planner",
}


def callback_layer(callback) -> str:
    """The layer a scheduled callback's time belongs to."""
    target = callback.func if isinstance(callback, functools.partial) else callback
    target = getattr(target, "__func__", target)
    target = getattr(target, "__wrapped__", target)
    return CALLBACK_LAYERS.get(getattr(target, "__qualname__", ""), "engine.callback")


def install(recorder: Recorder, *, event_loop: bool = False) -> Patcher:
    """Wrap every layer boundary of the program; returns the undo handle.

    ``event_loop=True`` also times the asyncio loop's callbacks and its
    ``select`` (idle) calls — the daemon's process only.
    """
    import repro.lab.compat as compat
    import repro.lab.session as lab_session
    import repro.runner.executor as executor
    import repro.runner.store as store
    import repro.serve.service as service
    import repro.serve.state as serve_state
    import repro.util.validation as validation
    import repro.workload.traces as traces
    import repro.core.policies  # noqa: F401  (registers every policy subclass)
    from repro.core.provisioning import ProvisioningPlanner
    from repro.core.scoring import ServerScore
    from repro.infrastructure.energy import EnergyAccountant, SegmentEnergyLog
    from repro.infrastructure.node import Node
    from repro.lab.components import PlatformSource
    from repro.middleware.agents import Agent, MasterAgent
    from repro.middleware.driver import MiddlewareSimulation
    from repro.middleware.estimation import EstimationVector
    from repro.middleware.plugin_scheduler import PluginScheduler
    from repro.middleware.ranking import ResidentRanking
    from repro.middleware.sed import ServerDaemon
    from repro.runner.spec import ScenarioSpec
    from repro.serve.admission import AdmissionController
    from repro.serve.protocol import HttpRequest, SubmitRequest
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.queueing import NodeQueue

    rec = recorder
    patch = Patcher()

    def timed(owner, name, layer, after=None):
        patch.replace(owner, name, lambda f: span(rec, layer, f, after))

    # simulation.engine: the run loop, with every fired callback a child span.
    def engine_run(run):
        @functools.wraps(run)
        def wrapper(self, *args, **kwargs):
            before = self.processed_events
            try:
                return run(self, *args, **kwargs)
            finally:
                rec.count("engine.steps", self.processed_events - before)

        return span(rec, "engine", wrapper)

    patch.replace(SimulationEngine, "run", engine_run)

    def traced_callback(callback):
        return span(rec, callback_layer(callback), callback, wraps=False)

    def engine_schedule(schedule):
        @functools.wraps(schedule)
        def wrapper(self, time, callback, **kwargs):
            return schedule(self, time, traced_callback(callback), **kwargs)

        return wrapper

    patch.replace(SimulationEngine, "schedule", engine_schedule)

    def engine_schedule_many(schedule_many):
        @functools.wraps(schedule_many)
        def wrapper(self, time, callback, items, **kwargs):
            return schedule_many(self, time, traced_callback(callback), items, **kwargs)

        return wrapper

    patch.replace(SimulationEngine, "schedule_many", engine_schedule_many)

    # middleware.driver: task lifecycle and faults.
    timed(MiddlewareSimulation, "_start_task", "driver.start")
    timed(MiddlewareSimulation, "run", "driver.run")

    def after_fail(displaced, args, kwargs):
        rec.count("driver.fail_node")
        if kwargs.get("requeue", True):
            rec.count("driver.requeued", displaced)

    timed(MiddlewareSimulation, "fail_node", "driver.fail_node", after_fail)

    # middleware.agents / .ranking: elections and their candidate lists.
    timed(MasterAgent, "submit", "election", lambda *_: rec.count("election.submits"))

    def after_collect(candidates, args, kwargs):
        if isinstance(args[0], MasterAgent):
            rec.count("election.candidates", len(candidates))

    timed(Agent, "collect_candidates", "election", after_collect)

    def after_candidates(candidates, args, kwargs):
        if candidates is not None:
            rec.count("election.candidates", len(candidates))

    timed(ResidentRanking, "candidates", "election", after_candidates)

    def ranking_refresh(refresh):
        @functools.wraps(refresh)
        def wrapper(self, request):
            rec.count("ranking.dirty", len(self.dirty_servers))
            return refresh(self, request)

        return span(rec, "ranking", wrapper)

    patch.replace(ResidentRanking, "refresh", ranking_refresh)

    # middleware.sed / .estimation
    timed(ServerDaemon, "estimate", "sed.estimate")
    patch.replace(
        ServerDaemon, "invalidate_estimation", lambda f: counted(rec, "sed.invalidations", f)
    )
    patch.replace(EstimationVector, "set", lambda f: counted(rec, "estimation.set", f))
    for helper in ("ensure_positive", "ensure_non_negative", "ensure_in_range"):
        patch.replace_everywhere(
            getattr(validation, helper), lambda f: counted(rec, "validation.calls", f)
        )

    # core.policies / core.scoring
    for policy_class in {PluginScheduler, *_subclasses(PluginScheduler)}:
        if "sort" in policy_class.__dict__:
            timed(policy_class, "sort", "policy")
        if "aggregate" in policy_class.__dict__:
            timed(policy_class, "aggregate", "policy.aggregate")
    timed(ServerScore, "from_vector", "scoring")

    # simulation.queueing
    def after_enqueue(_result, args, kwargs):
        rec.maximum("queue.depth", args[0].pending_count)

    timed(NodeQueue, "enqueue", "queue", after_enqueue)
    for name in ("pop_next", "mark_running", "mark_completed", "forget_running", "drain_pending"):
        timed(NodeQueue, name, "queue")

    # infrastructure.node / .energy
    for name in ("acquire_core", "release_core"):
        timed(Node, name, "node.core")
    for name in ("fail", "repair", "power_off", "begin_boot", "complete_boot"):
        timed(Node, name, "node")
    timed(EnergyAccountant, "_on_power_change", "energy")
    timed(EnergyAccountant, "sync", "energy")
    patch.replace(SegmentEnergyLog, "add_segment", lambda f: counted(rec, "energy.segments", f))

    # core.provisioning
    timed(ProvisioningPlanner, "check", "planner", lambda *_: rec.count("planner.checks"))

    # lab.session, workload.traces
    def after_session(result, args, kwargs):
        final = result.metrics.get("final_candidates")
        if final is not None:
            rec.maximum("planner.candidates_final", final)

    timed(lab_session.LabSession, "run", "lab.session", after_session)
    timed(PlatformSource, "build_platform", "lab.platform")
    timed(lab_session, "build_hierarchy", "lab.hierarchy")
    timed(serve_state, "build_hierarchy", "lab.hierarchy")

    def after_load(tasks, args, kwargs):
        rec.count("trace.rows", len(tasks))

    timed(traces, "load_trace", "trace.load", after_load)
    timed(traces.TraceWorkload, "generate", "trace.load")

    # serve.protocol / .admission / .state / .service
    timed(HttpRequest, "json", "protocol.decode")
    timed(SubmitRequest, "from_json", "protocol.decode")
    timed(service, "render_response", "protocol.render")
    patch.replace(service, "read_request", lambda f: async_span(rec, "protocol.read", f))

    admitted_at = collections.deque()

    def after_admit(decision, args, kwargs):
        if decision.admitted:
            admitted_at.append(_clock())
        else:
            rec.count("admission.refused")

    timed(AdmissionController, "admit", "admission", after_admit)

    def place_batch(function):
        @functools.wraps(function)
        def wrapper(self, tasks):
            now = _clock()
            for _ in range(min(len(tasks), len(admitted_at))):
                rec.count("batch.wait_s", now - admitted_at.popleft())
            rec.count("batch.tasks", len(tasks))
            return function(self, tasks)

        return span(rec, "place_batch", wrapper)

    patch.replace(serve_state.ServeState, "place_batch", place_batch)
    for name in ("_serve_connection", "_dispatch", "_handle_submit", "_batch_loop"):
        patch.replace(
            service.PlacementService, name, lambda f: async_span(rec, "service", f)
        )
    timed(service.PlacementService, "_flush", "service")

    def service_start(start):
        @functools.wraps(start)
        async def wrapper(self):
            await start(self)
            rec.marks["region_start"] = _clock()

        return wrapper

    patch.replace(service.PlacementService, "start", service_start)

    def service_stop(request_shutdown):
        @functools.wraps(request_shutdown)
        def wrapper(self):
            rec.marks.setdefault("region_end", _clock())
            return request_shutdown(self)

        return wrapper

    patch.replace(service.PlacementService, "request_shutdown", service_stop)

    # runner.spec / .executor / .store, lab.compat
    timed(ScenarioSpec, "content_hash", "spec.hash")
    timed(ScenarioSpec, "replace", "spec.build")
    timed(executor, "wait", "executor.pool_wait")
    timed(compat, "session_for_spec", "executor.session_for_spec")
    timed(store.ShardedResultStore, "put", "store.put")

    def after_get(result, args, kwargs):
        rec.count("store.lookups")
        if result is not None:
            rec.count("store.hits")

    timed(store.ShardedResultStore, "get", "store.get", after_get)
    timed(store.ShardedResultStore, "load", "store.load")
    timed(store, "_read_store_file", "store.load")

    if event_loop:
        import selectors

        timed(asyncio.events.Handle, "_run", "asyncio.loop")
        timed(selectors.DefaultSelector, "select", "idle")

    return patch


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- worker processes of the sweep ------------------------------------------------------

#: The recorder, dump directory and running totals that forked sweep
#: workers inherit (pickled pool work must be a module-level function).
_WORKER: dict = {"recorder": None, "directory": None, "execute": None, "totals": None}


def traced_execute_scenario(spec):
    """Pool-worker entry: run one scenario and dump this worker's layer totals.

    Forked workers inherit the parent's patched modules and recorder; the
    first call in a worker drops the parent's spans.  Each scenario's spans
    are folded into the worker's totals, which are rewritten after every
    scenario because pool workers exit without running any cleanup.
    """
    recorder: Recorder = _WORKER["recorder"]
    if recorder.pid != os.getpid():
        recorder.reset()
        _WORKER["totals"] = None
    result = span(recorder, "executor.run", _WORKER["execute"])(spec)
    summaries = [recorder.summary()]
    if _WORKER["totals"] is not None:
        summaries.append(_WORKER["totals"])
    _WORKER["totals"] = merge_summaries(summaries)
    recorder.reset()
    path = Path(_WORKER["directory"]) / f"worker-{os.getpid()}.json"
    path.write_text(json.dumps(_WORKER["totals"]))
    return result


def trace_pool_workers(recorder: Recorder, directory: Path, patch: Patcher) -> None:
    """Route the sweep's pool work through :func:`traced_execute_scenario`."""
    import repro.runner.executor as executor

    _WORKER.update(recorder=recorder, directory=str(directory), execute=executor.execute_scenario)
    patch.replace(executor, "execute_scenario", lambda f: traced_execute_scenario)


def worker_summaries(directory: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("worker-*.json"))]
