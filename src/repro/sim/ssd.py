"""The host-facing SSD: byte requests in, latencies out.

Splits each byte-addressed trace request into logical page operations
against an FTL, accounts service time, and aggregates the quantities
the paper's figures report (total read latency, total write latency,
erased block count).

Replay modes
------------
``sequential`` (default)
    Requests are serviced back-to-back in trace order; per-request
    latency is the sum of its page operations.  The paper's "latency
    (sec)" axes are exactly such sums.
``timed``
    Requests arrive at their trace timestamps and queue for the device
    through the DES kernel; response time = queueing + service.  Closer
    to a real device under load; provided for studies beyond the paper.

Timed-mode device model
-----------------------
One overlay serves every topology ``(num_chips, num_channels,
planes_per_chip)``.  The FTL services each request synchronously at
dispatch, in arrival order, so FTL state evolves deterministically and
independently of timing.  The device op log then reports which
(chip, plane) units the request busied and for how long, split into
array time and bus-transfer time.  Each touched unit is one visit: the
visit holds its plane for transfer + array time, and during the
transfer it also holds the channel bus and, on multi-plane devices,
the chip's shared die I/O port.  Requests that touch different chips
or planes therefore proceed in parallel, sibling planes overlap their
array times, and transfers serialize through the die and the bus.
With one plane per chip the plane resource *is* the chip and there is
no separate port; a single-chip, single-channel device is the same
overlay with one plane and one bus.  A request that logs no device
work (a RAM-map TRIM) completes at dispatch.

Device work is conserved: the op-log array and transfer times of a
timed replay sum to ``read_us + write_us + trim_us`` plus the
reliability stack's ``refresh_us``.  Refresh relocations run inside
host operations and queue on the device like any other work, but they
are deliberately not billed to host latency (see
``ReliabilityHost._maybe_refresh``).  The one other excess is a fused
multi-plane erase, which logs its shared array time once per sibling
plane but bills it once.

The arrival process is an :class:`~repro.sim.arrival.ArrivalSpec`: an
*open* loop walks the trace timestamps (``scale`` divides the gaps,
``queue_depth`` bounds the submission queue), while a *closed* loop
keeps a fixed population of ``queue_depth`` requests outstanding and
admits the next one on each completion — the fio-style saturation
driver whose ``throughput_kiops`` at QD = N is the QD-sweep metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator, Protocol

from repro.errors import ConfigError
from repro.sim.arrival import ArrivalSpec
from repro.sim.engine import Engine, Event, Timeout
from repro.sim.resources import Resource
from repro.traces.record import IORequest, OpType, Trace


class FtlProtocol(Protocol):
    """What the SSD needs from an FTL (BaseFTL and FastFTL both comply)."""

    name: str
    num_lpns: int

    def host_read(self, lpn: int) -> float: ...
    def host_write(self, lpn: int, nbytes: int | None = None) -> float: ...
    def trim(self, lpn: int) -> float: ...


@dataclass
class RunResult:
    """Aggregates of one trace replay (units: microseconds)."""

    ftl_name: str
    trace_name: str
    num_requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    #: sum of host-visible read service time.
    read_us: float = 0.0
    #: sum of host-visible write service time (including GC stalls).
    write_us: float = 0.0
    #: GC time (also folded into write_us stalls' accounting upstream).
    gc_us: float = 0.0
    erase_count: int = 0
    gc_copied_pages: int = 0
    write_amplification: float = 1.0
    #: mean per-page service times, for sanity checks.
    mean_read_page_us: float = 0.0
    mean_write_page_us: float = 0.0
    #: TRIM/discard requests and their host-visible service time (zero
    #: for RAM-map FTLs; DFTL pays translation traffic to invalidate).
    trim_requests: int = 0
    trim_us: float = 0.0
    #: response times from timed mode (empty in sequential mode).
    response_times_us: list[float] = field(default_factory=list)
    #: timed-mode response times split by request class.
    read_response_times_us: list[float] = field(default_factory=list)
    write_response_times_us: list[float] = field(default_factory=list)
    trim_response_times_us: list[float] = field(default_factory=list)
    #: per-tenant aggregates (multi-tenant scenarios only; keyed by
    #: tenant name).  Requests and summed service time fill in both
    #: replay modes; response times only in timed mode.
    tenant_requests: dict[str, int] = field(default_factory=dict)
    tenant_service_us: dict[str, float] = field(default_factory=dict)
    tenant_response_times_us: dict[str, list[float]] = field(default_factory=dict)
    #: simulated makespan of a timed replay (0.0 in sequential mode);
    #: ``num_requests / simulated_us`` is the replay's throughput.
    simulated_us: float = 0.0
    #: strategy-specific counters snapshot.
    extra: dict[str, float] = field(default_factory=dict)

    def response_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of the timed-mode response times (us).

        Empty dict in sequential mode (no queueing, so per-request
        latency is just service time and the percentiles would repeat
        ``mean_read_page_us``-style information).  Linear interpolation
        between order statistics, matching ``numpy.percentile``'s
        default method.
        """
        return _percentiles(self.response_times_us)

    def class_response_percentiles(self) -> dict[str, dict[str, float]]:
        """Timed-mode response percentiles per request class.

        ``{"read": {...}, "write": {...}}`` with the same keys as
        :meth:`response_percentiles`; classes with no requests are
        omitted, and the dict is empty in sequential mode.
        """
        out: dict[str, dict[str, float]] = {}
        for name, times in (
            ("read", self.read_response_times_us),
            ("write", self.write_response_times_us),
            ("trim", self.trim_response_times_us),
        ):
            if times:
                out[name] = _percentiles(times)
        return out

    def tenant_response_percentiles(self) -> dict[str, dict[str, float]]:
        """Timed-mode response percentiles per tenant.

        ``{"db": {"p50_us": ...}, ...}`` for multi-tenant replays;
        empty in sequential mode or single-tenant scenarios.
        """
        return {
            name: _percentiles(times)
            for name, times in self.tenant_response_times_us.items()
            if times
        }

    @property
    def throughput_kiops(self) -> float:
        """Timed-mode throughput in thousands of requests per second."""
        if self.simulated_us <= 0.0:
            return 0.0
        return self.num_requests / self.simulated_us * 1e3

    @property
    def read_seconds(self) -> float:
        """Total read latency in seconds (the paper's Fig. 13/14 axis)."""
        return self.read_us / 1e6

    @property
    def write_seconds(self) -> float:
        """Total write latency in seconds (the paper's Fig. 16/17 axis)."""
        return self.write_us / 1e6

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.ftl_name:>12} on {self.trace_name}: "
            f"read {self.read_seconds:.2f} s, write {self.write_seconds:.2f} s, "
            f"erases {self.erase_count}, WAF {self.write_amplification:.2f}"
        )


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _percentiles(times: list[float]) -> dict[str, float]:
    """p50/p95/p99 dict of a response-time list (empty list -> {})."""
    if not times:
        return {}
    ordered = sorted(times)
    return {
        "p50_us": _quantile(ordered, 0.50),
        "p95_us": _quantile(ordered, 0.95),
        "p99_us": _quantile(ordered, 0.99),
    }


#: The timed overlay's per-request entry point: ``(request, arrival_us,
#: then)`` starts the request this instant and returns its completion
#: event; ``then`` runs just before completion.
Dispatch = Callable[[IORequest, float, Callable[[], None] | None], Event]


class _PlaneVisit(Event):
    """One request's visit to one plane, as a callback state machine.

    The visit is the event that triggers when it is done.  Its steps are
    ``start -> plane granted -> [die port granted] -> bus granted ->
    transfer timeout -> array timeout -> done``; each arrow waits for
    one calendar entry.  The die port (multi-plane devices only) and the
    bus are held for the transfer, the plane for transfer plus array
    time; a zero transfer skips port and bus, a zero array time skips
    its timeout.
    """

    __slots__ = ("plane", "port", "bus", "transfer_us", "array_us")

    def __init__(
        self,
        engine: Engine,
        plane: Resource,
        port: Resource | None,
        bus: Resource,
        transfer_us: float,
        array_us: float,
    ) -> None:
        super().__init__(engine)
        self.plane = plane
        self.port = port
        self.bus = bus
        self.transfer_us = transfer_us
        self.array_us = array_us
        start = Event(engine)
        start.callbacks.append(self._start)
        start.succeed()

    def _start(self, _: Event) -> None:
        self.plane.request().callbacks.append(self._plane_granted)

    def _plane_granted(self, _: Event) -> None:
        if self.transfer_us > 0.0:
            port = self.port
            if port is not None:
                port.request().callbacks.append(self._port_granted)
            else:
                self.bus.request().callbacks.append(self._bus_granted)
        else:
            self._array()

    def _port_granted(self, _: Event) -> None:
        self.bus.request().callbacks.append(self._bus_granted)

    def _bus_granted(self, _: Event) -> None:
        Timeout(self.engine, self.transfer_us).callbacks.append(self._transferred)

    def _transferred(self, _: Event) -> None:
        self.bus.release()
        port = self.port
        if port is not None:
            port.release()
        self._array()

    def _array(self) -> None:
        if self.array_us > 0.0:
            Timeout(self.engine, self.array_us).callbacks.append(self._done)
        else:
            self._done(self)

    def _done(self, _: Event) -> None:
        self.plane.release()
        self.succeed()


class SSD:
    """Byte-addressed front end over an FTL."""

    def __init__(self, ftl: FtlProtocol, page_size: int) -> None:
        if page_size <= 0:
            raise ConfigError(f"page_size must be positive, got {page_size}")
        self.ftl = ftl
        self.page_size = page_size
        self.capacity_bytes = ftl.num_lpns * page_size
        #: hoisted for the per-request loop in :meth:`service`.
        self._num_lpns = ftl.num_lpns
        #: active tenant partitions ((start, end, name) per tenant),
        #: set for the duration of a multi-tenant replay.
        self._tenant_ranges: tuple[tuple[int, int, str], ...] = ()

    # ------------------------------------------------------------------
    # Single-request service
    # ------------------------------------------------------------------

    def service(self, request: IORequest) -> float:
        """Service one request; returns its latency in microseconds.

        The page range is computed and clamped to the logical capacity
        once per request (the old per-LPN bounds check re-read
        ``ftl.num_lpns`` every iteration of the hot loop).
        """
        page_size = self.page_size
        first = request.offset // page_size
        last = (request.offset + request.size - 1) // page_size
        max_lpn = self._num_lpns - 1
        if last > max_lpn:
            last = max_lpn
        latency = 0.0
        if request.is_read:
            host_read = self.ftl.host_read
            for lpn in range(first, last + 1):
                latency += host_read(lpn)
        elif request.op is OpType.TRIM:
            trim = self.ftl.trim
            for lpn in range(first, last + 1):
                latency += trim(lpn)
        else:
            host_write = self.ftl.host_write
            size = request.size
            for lpn in range(first, last + 1):
                latency += host_write(lpn, nbytes=size)
        return latency

    # ------------------------------------------------------------------
    # Whole-trace replay
    # ------------------------------------------------------------------

    def warm_fill(self, fraction: float = 1.0, chunk_pages: int = 64) -> None:
        """Pre-fill the device sequentially, simulating an aged drive.

        Filled data presents as large (cold-classified) writes, so PPB
        starts from the same "everything is icy-cold" state an aged
        device would be in.  Timing of the fill is not accounted.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0,1], got {fraction}")
        limit = int(self.ftl.num_lpns * fraction)
        nbytes = chunk_pages * self.page_size
        host_write = self.ftl.host_write
        for lpn in range(limit):
            host_write(lpn, nbytes=nbytes)
        self._reset_stats()

    def precondition(self, trace: Trace) -> None:
        """Replay a trace purely for its device-state side effects.

        Used by the scenario engine's steady-state preconditioning
        phases: the requests fragment the blocks, exercise GC and age
        the wear state exactly as a measured replay would, but none of
        it is accounted — stats reset afterwards, like a warm fill.
        """
        service = self.service
        for request in trace.requests:
            service(request)
        self._reset_stats()

    def _reset_stats(self) -> None:
        """Zero the FTL's accounting (after warm fill)."""
        stats = getattr(self.ftl, "stats", None)
        if stats is None:
            return
        fresh = type(stats)()
        self.ftl.stats = fresh
        device = getattr(self.ftl, "device", None)
        if device is not None:
            for chip in device.chips:
                chip.stats = type(chip.stats)()

    def replay(
        self,
        trace: Trace,
        mode: str = "sequential",
        tenants: tuple[tuple[str, int, int], ...] = (),
        arrival: ArrivalSpec | None = None,
    ) -> RunResult:
        """Replay a trace; returns aggregated :class:`RunResult`.

        ``arrival`` (timed mode) is the arrival discipline — open-loop
        trace timestamps or a closed fixed-QD population (see
        :class:`~repro.sim.arrival.ArrivalSpec`; default: open loop at
        the trace's own pace, unbounded queue).  The arrival process is
        ignored by sequential replays.

        ``tenants`` — ``(name, start_byte, size_bytes)`` LBA partitions
        — turns on per-tenant accounting: each request is attributed to
        the partition containing its offset, filling the result's
        ``tenant_*`` aggregates.
        """
        if arrival is None:
            arrival = ArrivalSpec()
        self._tenant_ranges = tuple(
            (start, start + size, name) for name, start, size in tenants
        )
        try:
            if mode == "sequential":
                return self._replay_sequential(trace)
            if mode == "timed":
                return self._replay_timed(trace, arrival)
        finally:
            self._tenant_ranges = ()
        raise ConfigError(f"unknown replay mode {mode!r}")

    def _tenant_of(self, offset: int) -> str | None:
        """Name of the tenant partition containing ``offset`` (few
        tenants, so a linear scan beats a bisect's overhead)."""
        for start, end, name in self._tenant_ranges:
            if start <= offset < end:
                return name
        return None

    def _account_tenant(
        self, result: RunResult, request: IORequest, latency: float
    ) -> str | None:
        name = self._tenant_of(request.offset)
        if name is None:
            return None
        result.tenant_requests[name] = result.tenant_requests.get(name, 0) + 1
        result.tenant_service_us[name] = (
            result.tenant_service_us.get(name, 0.0) + latency
        )
        return name

    def _base_result(self, trace: Trace) -> RunResult:
        return RunResult(ftl_name=self.ftl.name, trace_name=trace.name)

    def _replay_sequential(self, trace: Trace) -> RunResult:
        result = self._base_result(trace)
        service = self.service
        tenanted = bool(self._tenant_ranges)
        num_requests = read_requests = write_requests = trim_requests = 0
        read_us = write_us = trim_us = 0.0
        for request in trace.requests:
            latency = service(request)
            num_requests += 1
            if request.is_read:
                read_requests += 1
                read_us += latency
            elif request.op is OpType.TRIM:
                trim_requests += 1
                trim_us += latency
            else:
                write_requests += 1
                write_us += latency
            if tenanted:
                self._account_tenant(result, request, latency)
        result.num_requests = num_requests
        result.read_requests = read_requests
        result.write_requests = write_requests
        result.trim_requests = trim_requests
        result.read_us = read_us
        result.write_us = write_us
        result.trim_us = trim_us
        self._finalize(result)
        return result

    def _timed_topology(self) -> tuple[int, int, int]:
        """(num_chips, num_channels, planes_per_chip) of the FTL's device.

        Raises :class:`ConfigError` for an FTL with no NAND device: the
        timed overlay schedules the device's op log, so there is nothing
        to time without one.
        """
        spec = getattr(getattr(self.ftl, "device", None), "spec", None)
        if spec is None:
            raise ConfigError(
                f"timed replay needs an FTL backed by a NAND device; "
                f"{self.ftl.name!r} has none"
            )
        return spec.num_chips, spec.num_channels, spec.planes_per_chip

    def _timed_source(
        self,
        engine: Engine,
        trace: Trace,
        arrival_scale: float,
        slots: Resource | None,
        dispatch: Dispatch,
    ) -> Generator[Event, None, None]:
        """The open-loop arrival process of the timed overlay.

        Walks the trace at its (scaled) timestamps, waits for a host
        queue slot when one is configured, and hands each request — with
        its arrival time, captured *before* any admission wait — to
        ``dispatch``, the overlay's per-request state machine.
        """
        previous = 0.0
        for request in trace:
            gap = max(0.0, request.timestamp_us - previous)
            previous = request.timestamp_us
            if arrival_scale != 1.0:
                gap /= arrival_scale
            if gap:
                yield engine.timeout(gap)
            arrival = engine.now
            if slots is not None:
                yield slots.request()
            dispatch(request, arrival, None)

    def _closed_admit(
        self,
        engine: Engine,
        trace: Trace,
        queue_depth: int,
        dispatch: Dispatch,
    ) -> None:
        """Seed a closed-loop population of ``queue_depth`` requests.

        Trace timestamps are ignored: each request's completion admits
        the next one, so exactly ``queue_depth`` requests stay in flight
        until the trace drains.  Response time = completion - admission
        (there is no separate queueing wait — a slot *is* admission).
        """
        iterator: Iterator[IORequest] = iter(trace)

        def admit_next() -> None:
            successor = next(iterator, None)
            if successor is not None:
                dispatch(successor, engine.now, admit_next)

        for _ in range(queue_depth):
            request = next(iterator, None)
            if request is None:
                break
            dispatch(request, engine.now, admit_next)

    def _drive(
        self,
        engine: Engine,
        trace: Trace,
        arrival: ArrivalSpec,
        slots: Resource | None,
        dispatch: Dispatch,
    ) -> None:
        """Start the configured arrival process and run it to completion."""
        if arrival.is_closed:
            self._closed_admit(engine, trace, arrival.queue_depth, dispatch)
        else:
            engine.process(self._timed_source(engine, trace, arrival.scale, slots, dispatch))
        engine.run()

    def _account_timed(
        self, result: RunResult, request: IORequest, latency: float, response_us: float
    ) -> None:
        """Fold one completed timed request into the aggregates."""
        result.response_times_us.append(response_us)
        result.num_requests += 1
        if request.is_read:
            result.read_requests += 1
            result.read_us += latency
            result.read_response_times_us.append(response_us)
        elif request.op is OpType.TRIM:
            result.trim_requests += 1
            result.trim_us += latency
            result.trim_response_times_us.append(response_us)
        else:
            result.write_requests += 1
            result.write_us += latency
            result.write_response_times_us.append(response_us)
        if self._tenant_ranges:
            name = self._account_tenant(result, request, latency)
            if name is not None:
                result.tenant_response_times_us.setdefault(name, []).append(
                    response_us
                )

    def _service_profiled_planes(
        self, request: IORequest, planes_per_chip: int
    ) -> tuple[float, dict[int, list[float]]]:
        """Service a request with the device op log armed.

        Returns ``(latency, per_unit)`` where ``per_unit`` maps each
        touched unit — flat index ``chip * planes_per_chip + plane`` —
        to its ``[transfer_us, array_us]`` totals for this request.
        GC/merge/refresh work the request triggered is included: it is
        the synchronous stall a real device would impose.  Fused
        multi-plane commands report one segment per plane sharing the
        array time, so each plane is held for the real (overlapped)
        duration.
        """
        device = self.ftl.device
        device.begin_oplog()
        latency = self.service(request)
        ops = device.end_oplog()
        per_unit: dict[int, list[float]] = {}
        for chip, plane, array_us, transfer_us in ops:
            unit = chip * planes_per_chip + plane
            totals = per_unit.get(unit)
            if totals is None:
                per_unit[unit] = [transfer_us, array_us]
            else:
                totals[0] += transfer_us
                totals[1] += array_us
        return latency, per_unit

    def _replay_timed(self, trace: Trace, arrival: ArrivalSpec) -> RunResult:
        """The timed replay engine (every topology; see the module
        docstring for the device model).

        A visit holds its plane for transfer + array time, while the
        channel bus — and on multi-plane devices the chip's die port —
        are held only during the transfer.  With one plane per chip the
        port could never be contended (the plane already serializes the
        chip), so it is not modeled.  A request completes when its last
        visit does.
        """
        num_chips, num_channels, planes_per_chip = self._timed_topology()
        result = self._base_result(trace)
        engine = Engine()
        channel_of = self.ftl.device.geometry.channel_of_chip
        units = [Resource(engine) for _ in range(num_chips * planes_per_chip)]
        ports = [Resource(engine) for _ in range(num_chips)] if planes_per_chip > 1 else []
        buses = [Resource(engine) for _ in range(num_channels)]
        chip_of_unit = [unit // planes_per_chip for unit in range(len(units))]
        unit_bus = [buses[channel_of(chip)] for chip in chip_of_unit]
        unit_port: list[Resource | None] = (
            [ports[chip] for chip in chip_of_unit] if ports else [None] * len(units)
        )
        slots = (
            Resource(engine, capacity=arrival.queue_depth)
            if arrival.queue_depth and not arrival.is_closed
            else None
        )

        def dispatch(
            request: IORequest, arrival_us: float, then: Callable[[], None] | None
        ) -> Event:
            """Start one request this instant; returns its completion event.

            The request is a callback state machine: a start entry
            services it and fans out one :class:`_PlaneVisit` per touched
            plane, the last visit to finish queues a join entry, and the
            join entry releases the host queue slot, accounts the
            response, runs ``then`` (the closed loop's next admission)
            and completes the request.
            """
            done = Event(engine)
            latency = 0.0
            pending = 0

            def serve(started: Event) -> None:
                nonlocal latency, pending
                latency, per_unit = self._service_profiled_planes(request, planes_per_chip)
                if not per_unit:
                    finish(started)
                    return
                pending = len(per_unit)
                for unit, (transfer_us, array_us) in per_unit.items():
                    _PlaneVisit(
                        engine, units[unit], unit_port[unit], unit_bus[unit], transfer_us, array_us
                    ).callbacks.append(visit_done)

            def visit_done(_: Event) -> None:
                nonlocal pending
                pending -= 1
                if pending == 0:
                    joined = Event(engine)
                    joined.callbacks.append(finish)
                    joined.succeed()

            def finish(_: Event) -> None:
                if slots is not None:
                    slots.release()
                self._account_timed(result, request, latency, engine.now - arrival_us)
                if then is not None:
                    then()
                done.succeed()

            start = Event(engine)
            start.callbacks.append(serve)
            start.succeed()
            return done

        self._drive(engine, trace, arrival, slots, dispatch)
        makespan = engine.now
        result.simulated_us = makespan
        self._finalize(result)  # rebuilds result.extra from the FTL stats
        extra = result.extra
        if makespan > 0.0 and len(units) > 1:
            # Multi-plane devices report planes plus the die-port wait;
            # single-plane ones report their units as chips.
            level = "plane" if ports else "chip"
            unit_utils = [unit.utilization(makespan) for unit in units]
            extra[f"timed.{level}_util_mean"] = sum(unit_utils) / len(unit_utils)
            extra[f"timed.{level}_util_max"] = max(unit_utils)
            extra["timed.bus_util_max"] = max(bus.utilization(makespan) for bus in buses)
            extra[f"timed.{level}_wait_us"] = sum(unit.wait_us for unit in units)
            if ports:
                extra["timed.chip_wait_us"] = sum(port.wait_us for port in ports)
            extra["timed.bus_wait_us"] = sum(bus.wait_us for bus in buses)
        if slots is not None:
            extra["timed.admission_wait_us"] = slots.wait_us
        return result

    def _finalize(self, result: RunResult) -> None:
        stats = getattr(self.ftl, "stats", None)
        if stats is None:
            return
        result.gc_us = stats.gc_us
        result.erase_count = stats.erase_count
        result.gc_copied_pages = stats.gc_copied_pages
        result.write_amplification = stats.write_amplification
        result.mean_read_page_us = stats.mean_read_us
        result.mean_write_page_us = stats.mean_write_us
        result.extra = dict(stats.extra)
        reliability = getattr(self.ftl, "reliability", None)
        if reliability is not None:
            result.extra.update(reliability.result_extras())
