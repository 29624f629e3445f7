"""Conservation of device work under the timed overlay.

Every op-log segment the device reports during a timed replay is work
some request was billed for, except refresh relocations, which queue
on the device but are deliberately kept out of host latency.  So on
every topology:

    sum(array_us + transfer_us) == read_us + write_us + trim_us + refresh_us

The one deliberate excess is a fused multi-plane erase: every sibling
plane logs the shared erase time, while the host is billed it once.

On multi-unit devices the unit resources' busy time accounts for the
same logged work, plus the time a visit holds its unit while queued
for the channel bus (and, on multi-plane devices, for the die port).
"""

import pytest

from repro.ftl.conventional import ConventionalFTL
from repro.ftl.transmap.config import MappingConfig
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec, tiny_spec
from repro.reliability.faults import FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.run import run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec
from repro.sim.ssd import SSD
from repro.traces.record import IORequest, OpType, Trace

REL = 1e-9

TOPOLOGIES = {
    "1x1x1": sim_spec(blocks_per_chip=64),
    "4x2x1": sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2),
    "4x2x2": sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2, planes_per_chip=2),
}

ARRIVALS = {
    "open": ArrivalSpec(queue_depth=32, scale=8.0),
    "closed": ArrivalSpec(mode="closed", queue_depth=16),
}

#: DFTL on a small mapping cache with faults, retention and refresh:
#: translation traffic, retries, recoveries and refresh relocations
#: all flow through the op log.
FAULTED = ScenarioSpec(
    workload="media-server",
    num_requests=1500,
    ftl="dftl",
    mapping=MappingConfig(cache_ratio=0.05, entries_per_page=512),
    device=TOPOLOGIES["4x2x1"],
    reliability=ReliabilityConfig(
        disturb_coeff=8.0,
        refresh_disturb_reads=500,
        state_skew=2.0,
        randomizer=0.5,
        refresh_triage="holds",
    ),
    refresh=True,
    retention_age_s=24 * 3600.0,
    faults=FaultSpec(rate=0.005, burst=4, target="mixed"),
    mode="timed",
    arrival=ArrivalSpec(queue_depth=32, scale=2.0),
)


def _log_work(monkeypatch):
    """Sum every op-log segment's array + transfer time into the
    returned one-element list."""
    logged = [0.0]
    end_oplog = NandDevice.end_oplog

    def summing_end_oplog(device):
        ops = end_oplog(device)
        for _chip, _plane, array_us, transfer_us in ops:
            logged[0] += array_us + transfer_us
        return ops

    monkeypatch.setattr(NandDevice, "end_oplog", summing_end_oplog)
    return logged


def _replay_logging_work(monkeypatch, spec):
    """Run ``spec``; returns (result, summed op-log array + transfer)."""
    logged = _log_work(monkeypatch)
    return run_scenario(spec), logged[0]


def _billed_plus_refresh(result, ftl):
    reliability = ftl.reliability
    refresh_us = reliability.stats.refresh_us if reliability is not None else 0.0
    return result.read_us + result.write_us + result.trim_us + refresh_us


def _check_unit_busy_time(result, device, logged):
    units = device.num_chips * device.planes_per_chip
    if units == 1:
        assert not any(key.startswith("timed.") and "util" in key for key in result.extra)
        return
    extra = result.extra
    if device.planes_per_chip > 1:
        util_mean = extra["timed.plane_util_mean"]
        # A plane visit holds its plane while it queues for the die port.
        held_waits = extra["timed.chip_wait_us"] + extra["timed.bus_wait_us"]
    else:
        util_mean = extra["timed.chip_util_mean"]
        held_waits = extra["timed.bus_wait_us"]
    busy_us = util_mean * units * result.simulated_us
    assert busy_us == pytest.approx(logged + held_waits, rel=REL)


@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_oplog_work_equals_billed_time(monkeypatch, topology, arrival):
    spec = ScenarioSpec(
        workload="web-sql",
        num_requests=1200,
        device=TOPOLOGIES[topology],
        mode="timed",
        arrival=ARRIVALS[arrival],
    )
    result, logged = _replay_logging_work(monkeypatch, spec)
    assert logged > 0.0
    assert logged == pytest.approx(_billed_plus_refresh(result, result.ftl), rel=REL)
    _check_unit_busy_time(result, spec.device, logged)


def test_refresh_work_is_logged_but_not_billed(monkeypatch):
    result, logged = _replay_logging_work(monkeypatch, FAULTED)
    refresh_us = result.ftl.reliability.stats.refresh_us
    assert refresh_us > 0.0
    assert result.extra["faults.injected_reads"] > 0
    assert logged == pytest.approx(_billed_plus_refresh(result, result.ftl), rel=REL)
    # Leaving refresh out breaks the law by exactly the refresh work.
    billed = result.read_us + result.write_us + result.trim_us
    assert logged - billed == pytest.approx(refresh_us, rel=REL)
    _check_unit_busy_time(result, FAULTED.device, logged)


def test_fused_erases_log_every_sibling_plane(monkeypatch):
    # Sequential overwrite churn leaves fully invalid blocks on every
    # plane, so GC victims take sibling-plane riders.
    spec = tiny_spec(num_chips=2, planes_per_chip=2)
    ftl = ConventionalFTL(NandDevice(spec))
    ssd = SSD(ftl, spec.page_size)
    trace = Trace(
        [
            IORequest(OpType.WRITE, lpn * spec.page_size, spec.page_size, 0.0)
            for _ in range(4)
            for lpn in range(ftl.num_lpns)
        ]
    )
    logged = _log_work(monkeypatch)
    result = ssd.replay(trace, mode="timed", arrival=ArrivalSpec(queue_depth=8))
    riders = ftl.stats.extra["gc.fused_erases"]
    assert riders > 0
    sibling_us = riders * ftl.device.latency.erase_us()
    assert logged[0] == pytest.approx(_billed_plus_refresh(result, ftl) + sibling_us, rel=REL)
    _check_unit_busy_time(result, spec, logged[0])
