"""A small discrete-event simulation kernel.

Provides the familiar process-interaction style (generators yielding
events) plus plain callbacks on events — the subset of simpy the SSD
front end needs, self-contained because the evaluation environment has
no network access for dependencies.

Ordering contract
-----------------
Every scheduled event is one calendar entry, and entries dispatch in
``(time, sequence)`` order: by due time, and among entries due at the
same instant in the order they were scheduled.  Dispatching an entry
runs the event's callbacks, in the order they were added; a callback
added while the event is being dispatched never fires.  The timed
replays pin their response times with exact equality, so this order is
part of the kernel's interface, not an implementation detail.

Two queues implement it:

* a binary heap of ``(time, sequence, event)`` for entries due later
  than the clock at which they were scheduled, and
* a FIFO *ready queue* for entries due at the current instant: a
  :meth:`Event.succeed`, a process start or completion, an immediate
  resource grant, or a timeout whose computed due time equals the clock
  (a zero delay, or one so small that ``now + delay == now`` in floating
  point).

The clock advances only when the ready queue is empty.  It moves to the
heap's earliest time, and every heap entry due then moves onto the
ready queue in sequence order.  Those entries were scheduled at an
earlier clock, so they precede everything scheduled during the new
instant, which queues behind them.  The result is the order of a single
``(time, sequence)`` heap, with most entries paying a deque append and
pop instead of a heap push and pop.

Example
-------
>>> engine = Engine()
>>> log = []
>>> def worker(name, delay):
...     yield engine.timeout(delay)
...     log.append((engine.now, name))
>>> _ = engine.process(worker("a", 5.0))
>>> _ = engine.process(worker("b", 2.0))
>>> engine.run()
>>> log
[(2.0, 'b'), (5.0, 'a')]
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterator

from repro.errors import ReproError


class SimulationError(ReproError):
    """The simulation kernel was driven incorrectly."""


class Event:
    """A one-shot occurrence processes and callbacks can wait on."""

    __slots__ = ("engine", "callbacks", "triggered", "dispatched", "value")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        #: set once the calendar has delivered the event's callbacks; a
        #: callback added after this point will never fire (see
        #: :meth:`Engine.all_of`, which must treat such events as done).
        self.dispatched = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now; its callbacks run this instant."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self.engine._ready.append(self)
        return self


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        # Event's fields, set inline: timeouts are the kernel's most
        # frequently built event.
        self.engine = engine
        self.callbacks = []
        self.triggered = True
        self.dispatched = False
        self.value = value
        now = engine.now
        due = now + delay
        if due == now:
            engine._ready.append(self)
        else:
            engine._sequence += 1
            heappush(engine._heap, (due, engine._sequence, self))


class Process(Event):
    """A running generator; itself an event that triggers on completion."""

    __slots__ = ("generator",)

    def __init__(self, engine: "Engine", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(engine)
        self.generator = generator
        # The first resume is a calendar entry of its own at this
        # instant, delivered by a bare triggered event.
        start = Event(engine)
        start.triggered = True
        start.callbacks.append(self._resume)
        engine._ready.append(start)

    def _resume(self, event: Event) -> None:
        try:
            target = self.generator.send(event.value)
        except StopIteration as stop:
            if not self.triggered:
                self.triggered = True
                self.value = stop.value
                self.engine._ready.append(self)
            return
        if not isinstance(target, Event):
            raise SimulationError(f"process yielded {type(target).__name__}, expected an Event")
        target.callbacks.append(self._resume)


class Engine:
    """Event calendar + clock (see the module docstring for the order)."""

    __slots__ = ("now", "_heap", "_ready", "_sequence")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: triggered events due at ``now``, in dispatch order.
        self._ready: deque[Event] = deque()
        self._sequence = 0

    # -- scheduling -----------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A bare event to be succeeded manually."""
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a process from a generator of events."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> Event:
        """An event that triggers once every given event has triggered.

        The fan-in join: a task that forked several sub-tasks resumes
        when its last one completes.  Events that already ran to
        delivery count as done immediately; an empty list yields an
        event that triggers right away.
        """
        result = self.event()
        pending = sum(1 for event in events if not event.dispatched)
        if pending == 0:
            return result.succeed()

        def one_done(_: Event) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                result.succeed()

        for event in events:
            if not event.dispatched:
                event.callbacks.append(one_done)
        return result

    # -- execution --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Dispatch events until the calendar drains or ``until`` is reached.

        Entries due at ``until`` itself are dispatched; the clock ends at
        ``until`` when the calendar drains earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is before the clock ({self.now})")
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        while True:
            while ready:
                event = popleft()
                event.dispatched = True
                # Swap in a fresh list, so a callback added from here on
                # lands there and never fires.
                callbacks = event.callbacks
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
            if not heap:
                break
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                return
            self.now = time
            append(heappop(heap)[2])
            while heap and heap[0][0] == time:
                append(heappop(heap)[2])
        if until is not None:
            self.now = until

    def peek(self) -> float | None:
        """Time of the next calendar entry, or None if idle."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else None

    def __iter__(self) -> Iterator[float]:
        """Step-wise execution: yields the clock after each instant."""
        while True:
            time = self.peek()
            if time is None:
                return
            self.run(until=time)
            yield self.now
