"""FCFS resources for the DES kernel.

:class:`Resource` models a unit (or pool) that a task must hold while
using it.  The timed SSD replay holds one per plane (array busy: sense
or program plus the data transfer), one per chip die port on multi-plane
devices and one per channel bus (both held only while data moves), and,
for an open-loop replay with a host queue depth, one counted pool of
host queue slots.

A request is granted at once when a unit is free: the grant event is
already triggered and sits on the engine's ready queue, so the waiter
resumes later in the same instant, in calendar order.  Otherwise the
requester queues, and :meth:`Resource.release` hands the unit straight
to the oldest waiter.

Each resource keeps the accounting the queueing reports need: grant
count, total time spent waiting in its queue, and the busy-time
integral (``in_use`` integrated over simulated time), from which
:meth:`Resource.utilization` derives the fraction-of-time-busy number
the saturation studies plot.
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Engine, Event, SimulationError


class Resource:
    """A counted resource with first-come-first-served queueing."""

    __slots__ = (
        "engine",
        "capacity",
        "in_use",
        "_waiters",
        "grants",
        "wait_us",
        "busy_us",
        "_last_change",
    )

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[tuple[Event, float]] = deque()
        #: grants handed out (immediate or after queueing).
        self.grants = 0
        #: total time grants spent queued before being served.
        self.wait_us = 0.0
        #: integral of ``in_use`` over time (see :meth:`utilization`).
        self.busy_us = 0.0
        self._last_change = engine.now

    def request(self) -> Event:
        """An event that triggers when the resource is granted.

        On an immediate grant the returned event is already triggered.
        """
        engine = self.engine
        event = Event(engine)
        in_use = self.in_use
        if in_use < self.capacity:
            now = engine.now
            if in_use:
                self.busy_us += in_use * (now - self._last_change)
            self._last_change = now
            self.in_use = in_use + 1
            self.grants += 1
            # What ``event.succeed()`` does, without the call.
            event.triggered = True
            engine._ready.append(event)
        else:
            self._waiters.append((event, engine.now))
        return event

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        in_use = self.in_use
        if in_use <= 0:
            raise SimulationError("release without a matching request")
        if self._waiters:
            # Hand the unit straight over: in_use stays constant, so the
            # busy integral continues uninterrupted.
            event, enqueued = self._waiters.popleft()
            self.wait_us += self.engine.now - enqueued
            self.grants += 1
            event.succeed()
        else:
            now = self.engine.now
            self.busy_us += in_use * (now - self._last_change)
            self._last_change = now
            self.in_use = in_use - 1

    @property
    def queue_length(self) -> int:
        """Processes waiting for the resource."""
        return len(self._waiters)

    def utilization(self, now: float | None = None) -> float:
        """Fraction of capacity-time spent busy up to ``now``.

        Defaults to the engine's current clock; returns 0.0 before any
        time has passed.
        """
        if now is None:
            now = self.engine.now
        if now <= 0.0:
            return 0.0
        busy = self.busy_us
        if self.in_use:
            busy += self.in_use * (now - self._last_change)
        return busy / (self.capacity * now)
