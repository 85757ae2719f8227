"""Minimal discrete-event simulation engine.

The engine keeps a priority queue of timestamped callbacks.  Everything in
the reproduction — request arrivals, task completions, node boots, the
Master Agent's periodic 10-minute status checks — is expressed as an event
scheduled on this engine, which keeps the middleware and scheduler code
free of any time-keeping logic.

Events at the same timestamp fire in FIFO order of scheduling, with an
optional integer ``priority`` to break ties deterministically (lower fires
first).  Determinism matters: the experiments must be exactly repeatable
for a given seed.

Heap entries are deliberately lean: one ``__slots__`` object per event
that is simultaneously the heap entry *and* the cancellation handle, and
callbacks take their arguments from an ``args`` tuple bound at scheduling
time — callers on hot paths (one arrival + one completion per task) can
schedule bound methods instead of allocating a closure per task.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Sequence

from repro.util.validation import ensure_non_negative

EventCallback = Callable[..., None]


class ScheduledEvent:
    """One pending event: heap entry and cancellation handle in one object.

    Ordered by ``(time, priority, sequence)``; ``sequence`` is unique, so
    the ordering is total and FIFO among equal ``(time, priority)``.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "args",
        "label",
        "cancelled",
        "_engine",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: EventCallback,
        args: Sequence,
        label: str,
        engine: "SimulationEngine | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self._engine = engine

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    @property
    def event_count(self) -> int:
        """How many logical events this heap entry carries (1 unless batched)."""
        return 1

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            self._engine = None
            engine._on_cancel(self)

    def _fire(self) -> int:
        """Invoke the callback(s); returns the number of logical events fired."""
        self.callback(*self.args)
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = " cancelled" if self.cancelled else ""
        return f"ScheduledEvent(t={self.time}, {self.label!r}{state})"


class BatchedEvent(ScheduledEvent):
    """Several same-instant logical events folded into one heap entry.

    A burst of arrivals at one timestamp shares a single heap push/pop;
    the callback fires once per item, in submission order, and each item
    counts as one logical event towards ``processed_events`` and
    ``pending_events``.  The batch fires atomically: cancelling it after
    the first item has fired has no effect.
    """

    __slots__ = ("items",)

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: EventCallback,
        items: tuple,
        label: str,
        engine: "SimulationEngine | None" = None,
    ) -> None:
        super().__init__(time, priority, sequence, callback, (), label, engine)
        self.items = items

    @property
    def event_count(self) -> int:
        return len(self.items)

    def _fire(self) -> int:
        callback = self.callback
        for item in self.items:
            callback(item)
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = " cancelled" if self.cancelled else ""
        return f"BatchedEvent(t={self.time}, n={len(self.items)}, {self.label!r}{state})"


class SimulationEngine:
    """Event-driven simulation clock.

    Example
    -------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(5.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [5.0]
    """

    def __init__(self, *, start_time: float = 0.0) -> None:
        ensure_non_negative(start_time, "start_time")
        self._now = start_time
        self._heap: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._pending = 0

    # -- clock -----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (s)."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live events still queued.

        Cancelled events stop counting the moment they are cancelled (they
        stay in the heap as tombstones until popped, but they are no longer
        backlog); each item of a batched entry counts individually, so the
        figure is the true number of callbacks still to fire.
        """
        return self._pending

    def _on_cancel(self, entry: ScheduledEvent) -> None:
        """Bookkeeping hook called by a live event when it is cancelled."""
        self._pending -= entry.event_count

    @property
    def processed_events(self) -> int:
        """Number of events fired so far."""
        return self._processed

    # -- scheduling ---------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: EventCallback,
        *,
        args: Sequence = (),
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire at absolute simulated ``time``.

        ``time`` must not be in the past.  Returns the event itself, whose
        :meth:`~ScheduledEvent.cancel` method removes it.
        """
        self._check_time(time)
        entry = ScheduledEvent(
            time, priority, next(self._sequence), callback, args, label, self
        )
        heapq.heappush(self._heap, entry)
        self._pending += 1
        return entry

    def schedule_many(
        self,
        time: float,
        callback: EventCallback,
        items: Sequence,
        *,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(item)`` for every item, as one heap entry.

        All items fire at the same ``time`` with the same ``priority``, in
        the order given — exactly as if each had been scheduled
        individually, back to back — but a burst of any size costs a single
        heap push/pop.  Each item still counts as one logical event for
        :attr:`pending_events` and :attr:`processed_events`, so metrics are
        identical to the unbatched formulation.
        """
        self._check_time(time)
        if not items:
            raise ValueError("schedule_many requires at least one item")
        entry = BatchedEvent(
            time, priority, next(self._sequence), callback, tuple(items), label, self
        )
        heapq.heappush(self._heap, entry)
        self._pending += entry.event_count
        return entry

    def _check_time(self, time: float) -> None:
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise ValueError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )

    def schedule_in(
        self,
        delay: float,
        callback: EventCallback,
        *,
        args: Sequence = (),
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        ensure_non_negative(delay, "delay")
        return self.schedule(
            self._now + delay, callback, args=args, priority=priority, label=label
        )

    # -- execution -------------------------------------------------------------------
    def step(self) -> int:
        """Fire the next pending heap entry.

        Returns the number of logical events fired (0 when none remain,
        ``len(items)`` for a batched entry) — truthy exactly when an event
        fired, so existing ``while engine.step():`` loops keep working.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.cancelled:
                continue
            self._now = entry.time
            entry._engine = None  # late cancels must not decrement again
            count = entry.event_count
            self._pending -= count
            fired = entry._fire()
            self._processed += fired
            return fired
        return 0

    def run(self, *, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the event queue is empty.

        ``until`` stops the clock once the next event would fire strictly
        after that time (the clock is advanced to ``until``).  ``max_events``
        bounds the number of callbacks fired, as a safety valve against
        runaway self-rescheduling (a batched entry fires atomically, so the
        bound may be overshot by the tail of one batch).
        """
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                return
            entry = self._heap[0]
            if entry.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and entry.time > until:
                self._now = max(self._now, until)
                return
            fired += self.step()
        if until is not None:
            self._now = max(self._now, until)

    def clear(self) -> None:
        """Drop every pending event unfired, releasing its callback."""
        for entry in self._heap:
            entry._engine = None
        self._heap.clear()
        self._pending = 0

    def peek_next_time(self) -> float | None:
        """Firing time of the next live event, or ``None`` if the queue is empty."""
        while self._heap:
            entry = self._heap[0]
            if entry.cancelled:
                heapq.heappop(self._heap)
                continue
            return entry.time
        return None
