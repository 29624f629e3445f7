"""Outside-in instrumentation of the simulator's public calls.

Nothing under ``src/repro`` is edited: the benchmark swaps class and
module attributes for timing wrappers for the duration of one run and
puts the originals back afterwards.  Wrappers go in before the FTL is
constructed, because FTLs and the SSD hoist bound methods.

:class:`Tracer` keeps aggregates in memory: per span name the call
count and inclusive time, per layer the self time (a span's duration
minus its child spans).  Every span belongs to one layer, named after
the ``src/repro`` package it measures, so the layers' self times plus
the ``other`` remainder add up to the traced wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.core.freqtable import AccessFrequencyTable
from repro.core.lru import TwoLevelLRU
from repro.nand.device import NandDevice
from repro.reliability.manager import ReliabilityManager
from repro.reliability.refresh import RefreshPolicy
from repro.scenario.report import summarize_result
from repro.scenario.run import build_trace, execute_scenario
from repro.sim import replay as replay_module
from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.sim.ssd import SSD
from repro.traces.record import Trace

clock = time.perf_counter

LAYERS = ("traces", "scenario", "ftl", "core", "nand", "reliability", "sim")

#: Construction spans, summed into ``scenario.build_s``.
BUILD_SPANS = (
    "NandDevice.__init__",
    "ReliabilityManager.__init__",
    "RefreshPolicy.__init__",
    "make_ftl",
    "SSD.__init__",
)
FTL_OPS = ("host_read", "host_write", "trim")
CORE_OPS = {
    AccessFrequencyTable: ("level_of", "count_of", "on_write", "on_read", "drop"),
    TwoLevelLRU: ("level_of", "on_write", "on_hot_write", "on_read", "drop"),
}
NAND_OPS = (
    "read_ppn",
    "program_ppn",
    "copy_page",
    "erase_pbn",
    "program_multi_ppn",
    "erase_multi_pbn",
    "note_retry",
    "note_recovery",
    "begin_oplog",
    "end_oplog",
)
RELIABILITY_OPS = {
    ReliabilityManager: (
        "on_host_read",
        "consume_recovery_us",
        "advance_us",
        "note_program",
        "note_erase",
        "note_refresh",
        "age_all",
        "reset_stats",
    ),
    RefreshPolicy: ("is_check_due", "due_blocks"),
}
ENGINE_EVENTS = ("timeout", "event", "process")

_MISSING = object()


@contextmanager
def patched(patches: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each patch; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class ReplayProbe:
    """The untraced run's only instrumentation.

    Times ``SSD.replay``, which splits set-up from replay, and can record
    each read request's service time.  A sequential replay services
    requests back to back, so there a request's response time is its
    service time.
    """

    def __init__(self) -> None:
        self.replay_start = 0.0
        self.replay_s = 0.0
        self.read_service_us: list[float] = []

    def timed_replay(self, replay: Callable) -> Callable:
        def timed(ssd: SSD, *args: Any, **kwargs: Any) -> Any:
            start = clock()
            self.replay_start = start
            try:
                return replay(ssd, *args, **kwargs)
            finally:
                self.replay_s += clock() - start

        return timed

    def recorded_service(self, service: Callable) -> Callable:
        reads = self.read_service_us

        def recorded(ssd: SSD, request: Any) -> float:
            latency = service(ssd, request)
            if request.is_read:
                reads.append(latency)
            return latency

        return recorded


class Tracer:
    """Span aggregates of one traced workload run."""

    def __init__(self) -> None:
        self.layer_self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.span_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.oplog_segments = 0
        self.immediate_grants = 0
        # Child time accumulated by each open span; the base entry
        # collects the top-level spans.
        self._children = [0.0]

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records one span."""
        children = self._children
        layer_self_s = self.layer_self_s
        span_s = self.span_s
        calls = self.calls

        def traced(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                children[-1] += elapsed
                layer_self_s[layer] += elapsed - child
                span_s[name] += elapsed
                calls[name] += 1

        return traced

    def _method(self, layer: str, owner: type, attr: str) -> tuple[type, str, Callable]:
        return owner, attr, self.span(layer, f"{owner.__name__}.{attr}", getattr(owner, attr))

    def patches(
        self, ftl_class: type, replay: Callable, service: Callable
    ) -> list[tuple[Any, str, Any]]:
        """Every wrapper of the traced run; ``replay`` and ``service`` are
        the (possibly probed) ``SSD`` methods to wrap."""
        method = self._method
        patches = [
            method("traces", Trace, "fit_to"),
            method("scenario", NandDevice, "__init__"),
            method("scenario", ReliabilityManager, "__init__"),
            method("scenario", RefreshPolicy, "__init__"),
            method("scenario", SSD, "__init__"),
            (
                replay_module,
                "make_ftl",
                self.span("scenario", "make_ftl", replay_module.make_ftl),
            ),
            method("ftl", SSD, "warm_fill"),
            (SSD, "replay", self.span("sim", "SSD.replay", replay)),
            (SSD, "service", self.span("sim", "SSD.service", service)),
            method("sim", Engine, "run"),
            method("sim", Engine, "all_of"),
            method("sim", Resource, "release"),
        ]
        patches += [method("ftl", ftl_class, op) for op in FTL_OPS]
        patches += [method("core", cls, op) for cls, ops in CORE_OPS.items() for op in ops]
        patches += [method("nand", NandDevice, op) for op in NAND_OPS if op != "end_oplog"]
        patches += [
            method("reliability", cls, op) for cls, ops in RELIABILITY_OPS.items() for op in ops
        ]
        patches += [method("sim", Engine, op) for op in ENGINE_EVENTS]

        end_oplog = self.span("nand", "NandDevice.end_oplog", NandDevice.end_oplog)

        def counted_end_oplog(device: NandDevice) -> Any:
            ops = end_oplog(device)
            self.oplog_segments += len(ops)
            return ops

        request = self.span("sim", "Resource.request", Resource.request)

        def counted_request(resource: Resource) -> Any:
            event = request(resource)
            if event.triggered:
                self.immediate_grants += 1
            return event

        patches += [
            (NandDevice, "end_oplog", counted_end_oplog),
            (Resource, "request", counted_request),
        ]
        return patches

    def pipeline(self) -> tuple[Callable, Callable, Callable]:
        """Traced stand-ins for the three calls of a workload run."""
        return (
            self.span("traces", "build_trace", build_trace),
            self.span("scenario", "execute_scenario", execute_scenario),
            self.span("scenario", "summarize_result", summarize_result),
        )

    def calls_of(self, owner: type, ops: tuple[str, ...]) -> int:
        return sum(self.calls.get(f"{owner.__name__}.{op}", 0) for op in ops)
