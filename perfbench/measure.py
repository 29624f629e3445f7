"""Measurement loop, correctness checks and metric aggregation.

Imported by ``run.py`` once the simulator sources are on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import resource
import statistics
from dataclasses import dataclass, field
from typing import Generator

import numpy
from catalog import END_TO_END, PER_LAYER, Workload
from spans import (
    BUILD_SPANS,
    CORE_OPS,
    ENGINE_EVENTS,
    FTL_OPS,
    NAND_OPS,
    RELIABILITY_OPS,
    ReplayProbe,
    Tracer,
    clock,
    patched,
)

from repro.errors import ReproError
from repro.nand.device import NandDevice
from repro.scenario.report import summarize_result
from repro.scenario.run import build_trace, execute_scenario
from repro.sim.engine import Engine
from repro.sim.replay import FTL_CLASSES
from repro.sim.resources import Resource
from repro.sim.ssd import SSD

#: Relative tolerance of the time-conservation checks.
REL_TOL = 1e-9

#: Host times are reported at a reference host speed.  The speed of a
#: shared machine drifts by up to 2x within minutes, so raw times of runs
#: made minutes apart differ by more than any useful bound.  A fixed
#: pure-Python calibration loop, which slows down with the host, runs
#: between workload runs; each run's host times are scaled by
#: ``CALIBRATION_REF_S`` over the mean loop time just before and just
#: after it, so they read as seconds on a host that runs the loop in
#: 70 ms.
CALIBRATION_REF_S = 0.070

#: Per-layer metrics that are host times, scaled like the end-to-end ones.
HOST_TIME_UNITS = ("s", "us/event")


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def bump(self, amount: float) -> float:
        self.value += amount
        return self.value


class _Event:
    __slots__ = ("value", "callbacks")

    def __init__(self, value: float) -> None:
        self.value = value
        self.callbacks: list[int] = []


def _worker(table: dict[int, _Counter]) -> Generator[float, int, None]:
    total = 0.0
    while True:
        key = yield total
        counter = table.get(key)
        if counter is None:
            counter = table[key] = _Counter()
        total += counter.bump(key * 0.5)


def calibration_s() -> float:
    """Time of a fixed loop of the simulator's kind of work: a generator
    driven by ``send``, dict lookups, method calls, float arithmetic and
    short-lived event objects on a heap.  The cyclic garbage collector is
    off, so the time does not depend on what else is on the heap."""
    gc.disable()
    try:
        start = clock()
        worker = _worker({})
        next(worker)
        heap: list[tuple[float, int, _Event]] = []
        for i in range(40_000):
            event = _Event(worker.send((i * 2654435761) & 8191))
            event.callbacks.append(i)
            heapq.heappush(heap, (event.value, i, event))
            if len(heap) > 64:
                heapq.heappop(heap)
        return clock() - start
    finally:
        gc.enable()


@dataclass
class Sample:
    """One workload run; host times are raw, ``speed`` scales them to the
    reference host speed."""

    seed: int
    traced: bool
    wall_s: float
    setup_s: float
    replay_s: float
    pages: int
    sim: dict[str, float]
    digest: str
    speed: float = 1.0
    layers: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def sim_metrics(spec, result, read_service_us: list[float]) -> dict[str, float]:
    """The simulated end-to-end statistics of one run."""
    if spec.mode == "timed":
        read_p99_us = result.class_response_percentiles()["read"]["p99_us"]
        kiops = result.throughput_kiops
    else:
        read_p99_us = float(numpy.percentile(read_service_us, 99))
        kiops = result.num_requests / (result.read_us + result.write_us + result.trim_us) * 1e3
    return {
        "sim_read_us_per_page": result.mean_read_page_us,
        "sim_write_amp": result.write_amplification,
        "sim_erases": float(result.erase_count),
        "sim_read_p99_us": read_p99_us,
        "sim_kiops": kiops,
    }


def check_run(spec, num_requests: int, result) -> list[str]:
    """Correctness checks of one run; returns the failures."""
    failures = []
    ftl = result.ftl
    try:
        ftl.check_invariants()
    except (AssertionError, ReproError) as exc:
        failures.append(f"ftl invariants: {exc}")
    if result.num_requests != num_requests:
        failures.append(f"replayed {result.num_requests} of {num_requests} requests")
    if spec.mode == "timed" and len(result.response_times_us) != result.num_requests:
        failures.append(
            f"{len(result.response_times_us)} response times for {result.num_requests} requests"
        )
    stats = ftl.stats
    if not _close(result.read_us, stats.host_read_us):
        failures.append(f"read_us {result.read_us!r} != host_read_us {stats.host_read_us!r}")
    # Host-visible write time is program time plus the GC stalls the
    # writes triggered, so it lies between program time and program
    # time plus all GC time.
    low = stats.host_write_us * (1.0 - REL_TOL)
    high = (stats.host_write_us + stats.gc_us) * (1.0 + REL_TOL)
    if not low <= result.write_us <= high:
        failures.append(
            f"write_us {result.write_us!r} outside [host_write_us, host_write_us + gc_us]"
            f" = [{stats.host_write_us!r}, {stats.host_write_us + stats.gc_us!r}]"
        )
    return failures


def sim_digest(sim: dict[str, float]) -> str:
    text = ";".join(f"{name}={float(value).hex()}" for name, value in sorted(sim.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def page_ops(result) -> int:
    """Host, GC-copy and translation page operations of the replay."""
    stats = result.ftl.stats
    extra = stats.extra
    return int(
        stats.host_read_pages
        + stats.host_write_pages
        + stats.gc_copied_pages
        + extra.get("trans.reads", 0.0)
        + extra.get("trans.writes", 0.0)
    )


def layer_metrics(tracer, ftl_class, result, wall_s: float, num_requests: int) -> dict:
    """Per-layer metrics of one traced run."""
    span_s = tracer.span_s
    calls_of = tracer.calls_of
    stats = result.ftl.stats
    extra = stats.extra
    timed = result.extra
    events = calls_of(Engine, ENGINE_EVENTS)
    resource_requests = calls_of(Resource, ("request",))
    overlay_s = span_s["SSD.replay"] - span_s["SSD.service"]
    cmt_lookups = extra.get("cmt.hits", 0.0) + extra.get("cmt.misses", 0.0)
    manager = getattr(result.ftl, "reliability", None)
    rel = manager.stats if manager is not None else None
    metrics = {
        "traces.generate_s": span_s["build_trace"],
        "traces.fit_s": span_s["Trace.fit_to"],
        "traces.requests": num_requests,
        "scenario.build_s": sum(span_s[name] for name in BUILD_SPANS),
        "scenario.report_s": span_s["summarize_result"],
        "ftl.warm_fill_s": span_s["SSD.warm_fill"],
        "ftl.calls": calls_of(ftl_class, FTL_OPS),
        "ftl.gc_copied_pages": stats.gc_copied_pages,
        "ftl.erases": stats.erase_count,
        "ftl.cmt_hit_ratio": extra.get("cmt.hits", 0.0) / cmt_lookups if cmt_lookups else 1.0,
        "ftl.trans_reads_per_host_read": (
            extra.get("trans.reads", 0.0) / stats.host_read_pages if stats.host_read_pages else 0.0
        ),
        "core.calls": sum(calls_of(cls, ops) for cls, ops in CORE_OPS.items()),
        "nand.calls": calls_of(NandDevice, NAND_OPS),
        "nand.oplog_segments_per_request": tracer.oplog_segments / num_requests,
        "reliability.calls": sum(calls_of(cls, ops) for cls, ops in RELIABILITY_OPS.items()),
        "reliability.retries_per_read": rel.mean_retries_per_read if rel else 0.0,
        "reliability.uncorrectable_reads": rel.uncorrectable_reads if rel else 0,
        "reliability.refresh_blocks": rel.refresh_runs if rel else 0,
        "reliability.injected_faults": rel.extra.get("injected.reads", 0.0) if rel else 0.0,
        "sim.overlay_s": overlay_s,
        "sim.events_per_request": events / num_requests,
        "sim.resource_requests_per_request": resource_requests / num_requests,
        "sim.immediate_grant_ratio": (
            tracer.immediate_grants / resource_requests if resource_requests else 0.0
        ),
        "sim.host_us_per_event": overlay_s * 1e6 / events if events else 0.0,
        "sim.wait_us": sum(
            timed.get(f"timed.{unit}_wait_us", 0.0) for unit in ("plane", "chip", "bus")
        ),
        "sim.admission_wait_us": timed.get("timed.admission_wait_us", 0.0),
        "sim.util_mean": timed.get("timed.plane_util_mean", timed.get("timed.chip_util_mean", 0.0)),
        "other.self_s": wall_s - sum(tracer.layer_self_s.values()),
        "traced.wall_s": wall_s,
    }
    for layer, self_s in tracer.layer_self_s.items():
        metrics[f"{layer}.self_s"] = self_s
    return metrics


def run_once(workload: Workload, seed: int, traced: bool) -> Sample:
    """One workload run, untraced (end-to-end) or traced (per layer)."""
    spec = workload.build(seed)
    probe = ReplayProbe()
    replay = probe.timed_replay(SSD.replay)
    service = SSD.service
    if spec.mode == "sequential":
        service = probe.recorded_service(service)
    ftl_class = FTL_CLASSES[spec.ftl]
    tracer = Tracer() if traced else None
    if tracer is not None:
        patches = tracer.patches(ftl_class, replay, service)
        build, execute, summarize = tracer.pipeline()
    else:
        patches = [(SSD, "replay", replay)]
        if service is not SSD.service:
            patches.append((SSD, "service", service))
        build, execute, summarize = build_trace, execute_scenario, summarize_result
    with patched(patches):
        start = clock()
        trace = build(spec)
        result = execute(spec, trace)
        summarize(spec, result)
        wall_s = clock() - start
    sim = sim_metrics(spec, result, probe.read_service_us)
    sample = Sample(
        seed=seed,
        traced=traced,
        wall_s=wall_s,
        setup_s=probe.replay_start - start,
        replay_s=probe.replay_s,
        pages=page_ops(result),
        sim=sim,
        digest=sim_digest(sim),
        failures=check_run(spec, len(trace), result),
    )
    if tracer is not None:
        sample.layers = layer_metrics(tracer, ftl_class, result, wall_s, len(trace))
        negative = [
            name
            for name, value in sample.layers.items()
            if name.endswith("self_s") and value < -REL_TOL * wall_s
        ]
        if negative:
            sample.failures.append(f"negative self time in {negative}: spans double-counted")
    return sample


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Medians of the untraced runs' scaled host times; means over the
    run's traces of the simulated statistics (each is fixed per trace)."""
    untraced = [s for s in samples if not s.traced]
    values = {
        "wall_s": statistics.median(s.wall_s * s.speed for s in untraced),
        "setup_s": statistics.median(s.setup_s * s.speed for s in untraced),
        "replay_s": statistics.median(s.replay_s * s.speed for s in untraced),
        "pages_per_host_s": statistics.median(s.pages / (s.replay_s * s.speed) for s in untraced),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_seed = {s.seed: s.sim for s in untraced}
    for name in untraced[0].sim:
        # Summed in seed order, so the mean is bit-identical across runs.
        values[name] = statistics.fmean(per_seed[seed][name] for seed in sorted(per_seed))
    return {m.name: values[m.name] for m in END_TO_END}


def per_layer(samples: list[Sample]) -> dict[str, float]:
    """Per-layer metrics of the traced run with the median scaled wall
    time (its self times add up to its wall time), and the cost of
    tracing."""
    traced = [s for s in samples if s.traced]
    median_wall = statistics.median_low(s.wall_s * s.speed for s in traced)
    run = next(s for s in traced if s.wall_s * s.speed == median_wall)
    values = {}
    for metric in PER_LAYER:
        name = metric.name
        if name == "traced.overhead_ratio":
            untraced_wall = statistics.median(s.wall_s * s.speed for s in samples if not s.traced)
            values[name] = median_wall / untraced_wall
        elif metric.unit in HOST_TIME_UNITS:
            values[name] = run.layers[name] * run.speed
        else:
            values[name] = run.layers[name]
    return values


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for ``seconds`` and return the result object:
    end-to-end metrics, or per-layer metrics with ``trace``."""
    seeds = workload.seeds(seed)
    if trace:
        # Untraced and traced runs alternate on the run's first trace.
        plan = ((seeds[0], index % 2 == 1) for index in itertools.count())
        minimum = 2
    else:
        # Cycle through the traces; at least one repeats, so the digest
        # check always has a reference.
        plan = ((seeds[index % len(seeds)], False) for index in itertools.count())
        minimum = len(seeds) + 1
    calibration_s()  # warm-up: the first call runs slow
    calibrations = [calibration_s()]
    deadline = clock() + seconds
    samples: list[Sample] = []
    reference: dict[int, str] = {}
    while len(samples) < minimum or clock() < deadline:
        run_seed, traced = next(plan)
        sample = run_once(workload, run_seed, traced)
        gc.collect()
        calibrations.append(calibration_s())
        sample.speed = 2 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])
        expected = reference.setdefault(run_seed, sample.digest)
        if sample.digest != expected:
            sample.failures.append(f"sim digest {sample.digest} != {expected} of seed {run_seed}")
        samples.append(sample)
        status = "ok" if not sample.failures else "FAILED: " + "; ".join(sample.failures)
        print(
            f"{workload.name} seed={run_seed} traced={int(traced)} speed={sample.speed:.3f} "
            f"raw wall_s={sample.wall_s:.4f} setup_s={sample.setup_s:.4f} "
            f"replay_s={sample.replay_s:.4f} sim={sample.digest} {status}",
            flush=True,
        )
    values = per_layer(samples) if trace else end_to_end(samples)
    units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
    failed = sum(1 for s in samples if s.failures)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
