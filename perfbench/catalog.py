"""What the repo benchmark runs and what it reports.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --manifest > BENCHMARK.json``).  Its schema
has no field for the layer map, so the map lives here: every per-layer
metric names the end-to-end metric it should move and the workloads on
which it should move it.

Host metrics measure the simulator (what a user waits for); ``sim_*``
metrics describe the modelled SSD.  The model is not validated against
hardware, so no accuracy figure is reported: the ``sim_*`` values pin
behaviour, and a change meant only to speed up the simulator must leave
them bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ftl.transmap import MappingConfig
from repro.nand.spec import sim_spec
from repro.reliability.faults import FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.reliability.retention import SECONDS_PER_HOUR
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec


@dataclass(frozen=True)
class Workload:
    """One named scenario of the benchmark, built from a seed.

    Host time and the simulated statistics both depend on the trace, so
    one run replays ``seeds_per_run`` traces and reports medians (host
    time) and means (simulated statistics) instead of one trace's luck.
    Each workload replays as many traces as fit in one run.
    """

    name: str
    why: str
    build: Callable[[int], ScenarioSpec]
    seeds_per_run: int

    def seeds(self, seed: int) -> list[int]:
        """The trace seeds of one run: disjoint for distinct ``seed``."""
        return [seed * self.seeds_per_run + offset for offset in range(self.seeds_per_run)]


def _paper_ppb(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        workload="web-sql",
        num_requests=28_000,
        seed=seed,
        ftl="ppb",
        device=sim_spec(blocks_per_chip=160),
    )


def _qd64_closed(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        workload="web-sql",
        num_requests=28_000,
        seed=seed,
        ftl="conventional",
        device=sim_spec(blocks_per_chip=40, num_chips=4, num_channels=2, planes_per_chip=2),
        mode="timed",
        arrival=ArrivalSpec(mode="closed", queue_depth=64),
    )


def _dftl_faults_open(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        workload="media-server",
        num_requests=12_000,
        seed=seed,
        ftl="dftl",
        mapping=MappingConfig(cache_ratio=0.05, entries_per_page=512),
        device=sim_spec(blocks_per_chip=40, num_chips=4, num_channels=2),
        reliability=ReliabilityConfig(
            disturb_coeff=8.0,
            refresh_disturb_reads=2_000,
            state_skew=2.0,
            randomizer=0.5,
            refresh_triage="holds",
        ),
        refresh=True,
        retention_age_s=24.0 * SECONDS_PER_HOUR,
        faults=FaultSpec(rate=0.005, burst=4, target="mixed"),
        mode="timed",
        arrival=ArrivalSpec(queue_depth=32, scale=2.0),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-ppb",
            "The paper's PPB FTL and read-latency axis, sequential on one chip: trace, "
            "warm fill and PPB tables; bypasses the DES and reliability layers",
            _paper_ppb,
            seeds_per_run=8,
        ),
        Workload(
            "qd64-closed",
            "Closed loop at 64 outstanding on 4 chips x 2 planes: the DES overlay "
            "dominates replay, on the multi-plane engine path",
            _qd64_closed,
            seeds_per_run=8,
        ),
        Workload(
            "dftl-faults-open",
            "Read-heavy media server on a 5% DFTL cache with faults, refresh and "
            "retention, open loop: FTL, reliability and GC dominate",
            _dftl_faults_open,
            seeds_per_run=6,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    """One reported metric; ``bound`` is set on end-to-end metrics only,
    ``moves`` (the layer map entry) on per-layer metrics only."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


END_TO_END: tuple[Metric, ...] = (
    # Host times are seconds at the reference host speed (see
    # measure.CALIBRATION_REF_S).  Their bounds sit just under the 0.25
    # cap, which set-up time keeps as the largest bound.  wall_s: one
    # workload run, build_trace through summarize_result.
    Metric("wall_s", "s", "lower", bound=0.24),
    # Everything before SSD.replay: trace generation and fit, device,
    # FTL and SSD construction, warm fill, retention pre-ageing.
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("replay_s", "s", "lower", bound=0.24),
    # Host, GC-copy and translation page operations per replay second.
    Metric("pages_per_host_s", "pages/s", "higher", bound=0.24),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("sim_read_us_per_page", "sim_us", "lower", bound=0.2),
    Metric("sim_write_amp", "ratio", "lower", bound=0.2),
    Metric("sim_erases", "count", "lower", bound=0.2),
    # Timed workloads: read response p99 and requests per simulated
    # second.  A sequential replay services requests back to back, so
    # there a response is its service time and the makespan is the
    # summed service time.  The p99 of a saturated queue moves most from
    # trace to trace, hence its wider bound.
    Metric("sim_read_p99_us", "sim_us", "lower", bound=0.24),
    Metric("sim_kiops", "sim_kIOPS", "higher", bound=0.2),
)

_ALL = "all three workloads"
_PPB = "paper-ppb"
_TIMED = "qd64-closed and dftl-faults-open"
_DFTL = "dftl-faults-open"

PER_LAYER: tuple[Metric, ...] = (
    Metric("traces.generate_s", "s", "lower", moves=f"setup_s, wall_s on {_PPB}, qd64-closed"),
    Metric("traces.fit_s", "s", "lower", moves=f"setup_s, wall_s on {_ALL}"),
    Metric("traces.requests", "count", "higher", moves="none (workload size)"),
    Metric("traces.self_s", "s", "lower", moves=f"setup_s, wall_s on {_ALL}"),
    Metric("scenario.build_s", "s", "lower", moves=f"setup_s, wall_s on {_ALL}"),
    Metric("scenario.report_s", "s", "lower", moves=f"wall_s on {_ALL}"),
    Metric("scenario.self_s", "s", "lower", moves=f"setup_s, wall_s on {_ALL}"),
    Metric("ftl.warm_fill_s", "s", "lower", moves=f"setup_s on {_ALL}"),
    Metric("ftl.calls", "count", "lower", moves=f"replay_s on {_DFTL}, then {_PPB}"),
    Metric("ftl.self_s", "s", "lower", moves=f"replay_s on {_DFTL}, then {_PPB}"),
    Metric("ftl.gc_copied_pages", "count", "lower", moves=f"replay_s on {_DFTL}, then {_PPB}"),
    Metric("ftl.erases", "count", "lower", moves=f"replay_s on {_DFTL}, then {_PPB}"),
    Metric("ftl.cmt_hit_ratio", "ratio", "higher", moves=f"replay_s on {_DFTL}"),
    Metric("ftl.trans_reads_per_host_read", "ratio", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("core.calls", "count", "lower", moves=f"replay_s, setup_s on {_PPB}"),
    Metric("core.self_s", "s", "lower", moves=f"replay_s, setup_s on {_PPB}"),
    Metric("nand.calls", "count", "lower", moves=f"replay_s on {_ALL}"),
    Metric("nand.self_s", "s", "lower", moves=f"replay_s on {_ALL}"),
    Metric("nand.oplog_segments_per_request", "count/req", "lower", moves=f"replay_s on {_TIMED}"),
    Metric("reliability.calls", "count", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("reliability.self_s", "s", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("reliability.retries_per_read", "ratio", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("reliability.uncorrectable_reads", "count", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("reliability.refresh_blocks", "count", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("reliability.injected_faults", "count", "lower", moves=f"replay_s on {_DFTL}"),
    Metric("sim.overlay_s", "s", "lower", moves=f"replay_s on {_TIMED}"),
    Metric("sim.self_s", "s", "lower", moves=f"replay_s on {_TIMED}"),
    Metric("sim.events_per_request", "count/req", "lower", moves=f"replay_s on {_TIMED}"),
    Metric(
        "sim.resource_requests_per_request", "count/req", "lower", moves=f"replay_s on {_TIMED}"
    ),
    Metric("sim.immediate_grant_ratio", "ratio", "higher", moves=f"replay_s on {_TIMED}"),
    Metric("sim.host_us_per_event", "us/event", "lower", moves=f"replay_s on {_TIMED}"),
    Metric("sim.wait_us", "sim_us", "lower", moves=f"sim_read_p99_us, sim_kiops on {_TIMED}"),
    Metric("sim.admission_wait_us", "sim_us", "lower", moves=f"sim_read_p99_us on {_DFTL}"),
    Metric("sim.util_mean", "ratio", "higher", moves=f"sim_kiops on {_TIMED}"),
    Metric("other.self_s", "s", "lower", moves=f"wall_s on {_ALL}"),
    Metric("traced.wall_s", "s", "lower", moves="none (traced run)"),
    Metric("traced.overhead_ratio", "ratio", "lower", moves="none (cost of tracing)"),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
