"""Tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Resource


class TestTimeouts:
    def test_timeouts_fire_in_order(self):
        engine = Engine()
        log = []

        def worker(name, delay):
            yield engine.timeout(delay)
            log.append((engine.now, name))

        engine.process(worker("late", 5.0))
        engine.process(worker("early", 2.0))
        engine.run()
        assert log == [(2.0, "early"), (5.0, "late")]

    def test_zero_delay(self):
        engine = Engine()
        log = []

        def worker():
            yield engine.timeout(0.0)
            log.append(engine.now)

        engine.process(worker())
        engine.run()
        assert log == [0.0]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    def test_sequential_timeouts_accumulate(self):
        engine = Engine()
        times = []

        def worker():
            for _ in range(3):
                yield engine.timeout(1.5)
                times.append(engine.now)

        engine.process(worker())
        engine.run()
        assert times == [1.5, 3.0, 4.5]


class TestEvents:
    def test_manual_event_wakes_waiter(self):
        engine = Engine()
        gate = engine.event()
        log = []

        def waiter():
            value = yield gate
            log.append((engine.now, value))

        def signaller():
            yield engine.timeout(3.0)
            gate.succeed("go")

        engine.process(waiter())
        engine.process(signaller())
        engine.run()
        assert log == [(3.0, "go")]

    def test_double_succeed_rejected(self):
        engine = Engine()
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_process_is_awaitable_event(self):
        engine = Engine()
        log = []

        def child():
            yield engine.timeout(2.0)
            return 42

        def parent():
            value = yield engine.process(child())
            log.append((engine.now, value))

        engine.process(parent())
        engine.run()
        assert log == [(2.0, 42)]

    def test_yielding_non_event_rejected(self):
        engine = Engine()

        def bad():
            yield 5

        engine.process(bad())
        with pytest.raises(SimulationError):
            engine.run()


class TestRunControl:
    def test_run_until_stops_clock(self):
        engine = Engine()

        def worker():
            yield engine.timeout(10.0)

        engine.process(worker())
        engine.run(until=4.0)
        assert engine.now == 4.0
        assert engine.peek() == pytest.approx(10.0)
        engine.run()
        assert engine.now == 10.0

    def test_peek_empty(self):
        assert Engine().peek() is None

    def test_many_processes_interleave(self):
        engine = Engine()
        log = []

        def worker(name, period, count):
            for _ in range(count):
                yield engine.timeout(period)
                log.append(name)

        engine.process(worker("a", 2.0, 3))
        engine.process(worker("b", 3.0, 2))
        engine.run()
        # at t=6 both fire; b's timeout was scheduled first (at t=3) so
        # the FIFO tie-break runs it first
        assert log == ["a", "b", "a", "b", "a"]


class TestAllOf:
    def test_waits_for_every_event(self):
        engine = Engine()
        log = []

        def worker(delay):
            yield engine.timeout(delay)

        def joiner():
            jobs = [engine.process(worker(d)) for d in (5.0, 2.0, 9.0)]
            yield engine.all_of(jobs)
            log.append(engine.now)

        engine.process(joiner())
        engine.run()
        assert log == [9.0]

    def test_empty_list_triggers_immediately(self):
        engine = Engine()
        log = []

        def joiner():
            yield engine.all_of([])
            log.append(engine.now)

        engine.process(joiner())
        engine.run()
        assert log == [0.0]

    def test_already_dispatched_events_count_as_done(self):
        engine = Engine()
        log = []

        def instant():
            return
            yield  # pragma: no cover — makes this a generator

        early = engine.process(instant())  # completes at t=0

        def joiner():
            yield engine.timeout(3.0)
            # ``early`` ran to delivery long ago; all_of must not hang.
            yield engine.all_of([early, engine.process(instant())])
            log.append(engine.now)

        engine.process(joiner())
        engine.run()
        assert log == [3.0]

    def test_single_event_passthrough(self):
        engine = Engine()
        log = []

        def worker():
            yield engine.timeout(4.0)

        def joiner():
            yield engine.all_of([engine.process(worker())])
            log.append(engine.now)

        engine.process(joiner())
        engine.run()
        assert log == [4.0]


class TestCalendarOrder:
    """The ``(time, sequence)`` order, as the ready queue must keep it."""

    def test_earlier_scheduled_heap_entry_precedes_this_instants_entries(self):
        engine = Engine()
        log = []

        def first():
            yield engine.timeout(5.0)
            log.append("first")
            yield engine.timeout(0.0)  # scheduled at t=5
            log.append("first+0")

        def second():
            yield engine.timeout(5.0)  # scheduled at t=0, due at t=5
            log.append("second")

        engine.process(first())
        engine.process(second())
        engine.run()
        assert log == ["first", "second", "first+0"]

    def test_delay_absorbed_by_a_large_clock_queues_fifo(self):
        engine = Engine()
        big = 2.0**53
        log = []

        def late(name, delay):
            yield engine.timeout(delay)
            log.append((engine.now, name))

        def driver():
            yield engine.timeout(big)
            assert big + 0.5 == big
            # due == now: queued FIFO, so it fires before the zero
            # delay scheduled after it (a heap entry would fire after).
            engine.process(late("half", 0.5))
            engine.process(late("zero", 0.0))
            engine.process(late("two", 2.0))

        # A heap entry due at 2**53, scheduled before the clock got there.
        engine.process(late("heap", big))
        engine.process(driver())
        engine.run()
        assert log == [(big, "heap"), (big, "half"), (big, "zero"), (big + 2.0, "two")]

    def test_peek_sees_pending_ready_entries(self):
        engine = Engine()
        engine.timeout(7.0)
        assert engine.peek() == 7.0

        def instant():
            return
            yield  # pragma: no cover — makes this a generator

        engine.process(instant())  # its start entry is due now
        assert engine.peek() == 0.0
        engine.run(until=3.0)
        assert engine.now == 3.0
        assert engine.peek() == 7.0
        engine.event().succeed()
        assert engine.peek() == 3.0

    def test_run_until_dispatches_ready_entries_due_now(self):
        engine = Engine()
        engine.run(until=3.0)
        fired = []
        event = engine.event()
        event.callbacks.append(lambda e: fired.append(engine.now))
        event.succeed()
        engine.run(until=3.0)
        assert fired == [3.0]
        assert event.dispatched
        assert engine.peek() is None

    def test_run_until_in_the_past_rejected(self):
        engine = Engine()
        engine.run(until=3.0)
        with pytest.raises(SimulationError):
            engine.run(until=2.0)

    def test_iteration_yields_each_instant_once(self):
        engine = Engine()

        def worker():
            yield engine.timeout(0.0)
            yield engine.timeout(1.0)
            engine.event().succeed()
            yield engine.timeout(0.0)
            yield engine.timeout(1.0)

        engine.process(worker())
        assert list(engine) == [0.0, 1.0, 2.0]

    def test_callback_added_during_dispatch_never_fires(self):
        engine = Engine()
        fired = []
        for count in (1, 2):
            event = engine.event()

            def add_late(e, count=count):
                fired.append(("first", count))
                e.callbacks.append(lambda _: fired.append(("late", count)))

            event.callbacks.append(add_late)
            if count == 2:
                event.callbacks.append(lambda _: fired.append(("second", 2)))
            event.succeed()
        engine.run()
        assert fired == [("first", 1), ("first", 2), ("second", 2)]


class ReferenceEngine(Engine):
    """Oracle: the textbook calendar, one heap keyed by ``(time, sequence)``.

    Every entry, including those the kernel would put on its ready
    queue, is pushed on the heap at the clock; dispatch copies the
    callback list first.  Events, processes and resources are the
    kernel's own, so only the calendar differs.
    """

    class _HeapQueue:
        def __init__(self, engine):
            self.engine = engine

        def append(self, event):
            engine = self.engine
            engine._sequence += 1
            heapq.heappush(engine._heap, (engine.now, engine._sequence, event))

    def __init__(self):
        super().__init__()
        self._ready = self._HeapQueue(self)

    def run(self, until=None):
        assert until is None
        while self._heap:
            self.now, _, event = heapq.heappop(self._heap)
            event.dispatched = True
            for callback in list(event.callbacks):
                callback(event)
            event.callbacks.clear()


DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
STEP = st.one_of(
    st.tuples(st.just("wait"), DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("fork"), st.lists(st.tuples(st.integers(0, 1), DELAYS), max_size=3)),
)
SCRIPT = st.lists(
    st.tuples(st.sampled_from([0.0, 2.0**53]), st.lists(STEP, max_size=6)),
    min_size=1,
    max_size=6,
)


def _play(engine, capacities, script):
    """Run a random script; returns the ``(now, name)`` log and the
    resources' accounting."""
    resources = [Resource(engine, capacity) for capacity in capacities]
    log = []

    def hold(name, index, delay):
        yield resources[index].request()
        log.append((engine.now, f"{name} granted"))
        yield engine.timeout(delay)
        resources[index].release()
        log.append((engine.now, f"{name} released"))

    def worker(number, offset, steps):
        yield engine.timeout(offset)
        for position, step in enumerate(steps):
            name = f"w{number}.{position}"
            if step[0] == "wait":
                yield engine.timeout(step[1])
            elif step[0] == "hold":
                yield from hold(name, step[1], step[2])
            elif step[0] == "succeed":
                yield engine.event().succeed()
            else:
                children = [
                    engine.process(hold(f"{name}.{i}", index, delay))
                    for i, (index, delay) in enumerate(step[1])
                ]
                yield engine.all_of(children)
            log.append((engine.now, f"{name} {step[0]}"))

    for number, (offset, steps) in enumerate(script):
        engine.process(worker(number, offset, steps))
    engine.run()
    accounts = [(r.grants, r.wait_us, r.busy_us, r.in_use) for r in resources]
    return log, accounts, engine.now


@settings(max_examples=200, deadline=None)
@given(script=SCRIPT, capacities=st.tuples(st.integers(1, 2), st.integers(1, 2)))
def test_calendar_matches_reference_heap(script, capacities):
    assert _play(Engine(), capacities, script) == _play(ReferenceEngine(), capacities, script)
