"""Tests for FCFS resources."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Resource


class TestResource:
    def test_grant_when_free(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        grants = []

        def worker():
            yield resource.request()
            grants.append(engine.now)
            resource.release()

        engine.process(worker())
        engine.run()
        assert grants == [0.0]

    def test_serializes_contenders(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        log = []

        def worker(name, hold):
            yield resource.request()
            start = engine.now
            yield engine.timeout(hold)
            resource.release()
            log.append((name, start, engine.now))

        engine.process(worker("a", 5.0))
        engine.process(worker("b", 3.0))
        engine.run()
        assert log == [("a", 0.0, 5.0), ("b", 5.0, 8.0)]

    def test_capacity_two_overlaps(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        log = []

        def worker(name):
            yield resource.request()
            yield engine.timeout(4.0)
            resource.release()
            log.append((name, engine.now))

        for name in ("a", "b", "c"):
            engine.process(worker(name))
        engine.run()
        assert log == [("a", 4.0), ("b", 4.0), ("c", 8.0)]

    def test_queue_length(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def holder():
            yield resource.request()
            yield engine.timeout(10.0)
            resource.release()

        def waiter():
            yield resource.request()
            resource.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run(until=5.0)
        assert resource.queue_length == 1
        engine.run()
        assert resource.queue_length == 0

    def test_release_without_request_rejected(self):
        engine = Engine()
        resource = Resource(engine)
        with pytest.raises(SimulationError):
            resource.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)


class TestAccounting:
    def test_busy_integral_and_utilization(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def worker():
            yield resource.request()
            yield engine.timeout(4.0)
            resource.release()
            yield engine.timeout(6.0)  # idle tail

        engine.process(worker())
        engine.run()
        assert resource.busy_us == pytest.approx(4.0)
        assert resource.utilization(10.0) == pytest.approx(0.4)

    def test_wait_time_accrues_only_when_queued(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def worker(hold):
            yield resource.request()
            yield engine.timeout(hold)
            resource.release()

        engine.process(worker(5.0))
        engine.process(worker(3.0))
        engine.run()
        assert resource.grants == 2
        assert resource.wait_us == pytest.approx(5.0)  # second waited 5

    def test_handoff_keeps_busy_continuous(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def worker(hold):
            yield resource.request()
            yield engine.timeout(hold)
            resource.release()

        engine.process(worker(5.0))
        engine.process(worker(3.0))
        engine.run()
        # Busy from 0 to 8 without a gap at the handoff instant.
        assert resource.busy_us == pytest.approx(8.0)
        assert resource.utilization(8.0) == pytest.approx(1.0)

    def test_utilization_counts_inflight_holders(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)

        def holder():
            yield resource.request()
            yield engine.timeout(10.0)
            resource.release()

        engine.process(holder())
        engine.run(until=5.0)
        # One of two units held for the whole window so far.
        assert resource.utilization() == pytest.approx(0.5)

    def test_utilization_zero_before_time_passes(self):
        engine = Engine()
        assert Resource(engine).utilization() == 0.0


class TestMixedGrants:
    """A capacity-2 resource with two immediate and two queued grants.

    A holds [0, 4) and B [0, 6) at once.  C asks at 1 and gets A's unit
    at 4; D asks at 2 and gets B's unit at 6 (B's timeout was scheduled
    first, so B releases before C does at the same instant).
    """

    def _run(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        grants = {}
        triggered = {}

        def worker(name, arrive, hold):
            yield engine.timeout(arrive)
            request = resource.request()
            triggered[name] = request.triggered
            yield request
            grants[name] = engine.now
            yield engine.timeout(hold)
            resource.release()

        plan = (("A", 0.0, 4.0), ("B", 0.0, 6.0), ("C", 1.0, 2.0), ("D", 2.0, 1.0))
        for name, arrive, hold in plan:
            engine.process(worker(name, arrive, hold))
        engine.run()
        return engine, resource, grants, triggered

    def test_grant_times(self):
        _, _, grants, _ = self._run()
        assert grants == {"A": 0.0, "B": 0.0, "C": 4.0, "D": 6.0}

    def test_accounting_matches_hand_computed_values(self):
        engine, resource, _, _ = self._run()
        assert engine.now == 7.0
        assert resource.grants == 4
        # C waited 4 - 1, D waited 6 - 2.
        assert resource.wait_us == 7.0
        # Two units busy over [0, 6), one over [6, 7).
        assert resource.busy_us == 2 * 6.0 + 1 * 1.0
        assert resource.in_use == 0
        assert resource.utilization() == 13.0 / 14.0
        assert resource.utilization(10.0) == 13.0 / 20.0

    def test_immediate_grants_return_triggered_events(self):
        _, _, _, triggered = self._run()
        assert triggered == {"A": True, "B": True, "C": False, "D": False}

    def test_queued_grant_triggers_on_release(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        held = resource.request()
        queued = resource.request()
        assert held.triggered
        assert not queued.triggered
        assert resource.queue_length == 1
        resource.release()
        assert queued.triggered
        assert resource.queue_length == 0
        engine.run()
        assert held.dispatched and queued.dispatched
