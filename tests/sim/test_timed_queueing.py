"""The timed overlay: concurrency, knobs, invariants.

These tests pin the claims of the DES device model:

* chip parallelism buys real throughput and latency under load (the
  paper-style acceptance check);
* p95 response time is monotonically non-increasing in the number of
  channels at a fixed workload (more buses never hurt);
* the timing overlay never changes *what* the FTL does — sequential
  and timed replays of one spec produce identical FTL aggregates;
* the host-queue bound and the arrival-intensity scale behave as an
  admission throttle and an open-loop load knob respectively.
"""

import pytest

from repro.bench.memo import ReplayRunner
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec

#: One shared memoizing runner: specs repeat across tests, replays don't.
_RUNNER = ReplayRunner()

#: the saturating open-loop arrival most tests here drive with.
_DRIVEN = ArrivalSpec(scale=24.0)


def _run(**changes):
    base = dict(
        workload="web-sql",
        num_requests=1200,
        seed=42,
        mode="timed",
        arrival=_DRIVEN,
    )
    base.update(changes)
    return _RUNNER.run(ScenarioSpec(**base))


def _device(num_chips, num_channels, total_blocks=64):
    return sim_spec(
        blocks_per_chip=total_blocks // num_chips,
        num_chips=num_chips,
        num_channels=num_channels,
    )


class TestChipParallelism:
    """num_chips/num_channels finally buy concurrency in timed mode."""

    def test_multichip_raises_throughput_and_lowers_p95(self):
        single = _run(device=_device(1, 1))
        multi = _run(device=_device(4, 2))
        # Same trace, saturating open-loop load: four chips must finish
        # measurably sooner and respond measurably faster.
        assert multi.simulated_us < 0.8 * single.simulated_us
        assert multi.throughput_kiops > 1.2 * single.throughput_kiops
        single_p95 = single.response_percentiles()["p95_us"]
        multi_p95 = multi.response_percentiles()["p95_us"]
        assert multi_p95 < 0.8 * single_p95

    def test_p95_monotone_nonincreasing_in_channels(self):
        """More buses never make the fixed workload slower."""
        results = [_run(device=_device(4, chans)) for chans in (1, 2, 4)]
        p95s = [r.response_percentiles()["p95_us"] for r in results]
        makespans = [r.simulated_us for r in results]
        slack = 1.0 + 1e-9  # float-tie tolerance only
        assert p95s[1] <= p95s[0] * slack
        assert p95s[2] <= p95s[1] * slack
        assert makespans[1] <= makespans[0] * slack
        assert makespans[2] <= makespans[1] * slack

    def test_utilization_extras_reported_for_multichip(self):
        result = _run(device=_device(4, 2))
        extra = result.extra
        for key in (
            "timed.chip_util_mean",
            "timed.chip_util_max",
            "timed.bus_util_max",
        ):
            assert 0.0 < extra[key] <= 1.0
        assert extra["timed.chip_util_mean"] <= extra["timed.chip_util_max"]

    def test_singlechip_timed_has_no_overlay_extras(self):
        result = _run(device=_device(1, 1))
        assert not any(key.startswith("timed.") for key in result.extra)


class TestOverlayInvariants:
    """Timing overlays concurrency; the FTL's work is untouched."""

    @pytest.mark.parametrize("ftl", ["conventional", "fast", "ppb"])
    def test_timed_and_sequential_do_identical_ftl_work(self, ftl):
        device = _device(4, 2)
        timed = _run(device=device, ftl=ftl)
        sequential = _RUNNER.run(
            ScenarioSpec(
                workload="web-sql",
                num_requests=1200,
                seed=42,
                device=device,
                ftl=ftl,
            )
        )
        assert timed.ftl.stats.snapshot() == sequential.ftl.stats.snapshot()
        # RunResult sums accumulate in completion order under the
        # overlay, so they match to float-association only.
        assert timed.read_us == pytest.approx(sequential.read_us, rel=1e-12)
        assert timed.write_us == pytest.approx(sequential.write_us, rel=1e-12)
        assert timed.erase_count == sequential.erase_count

    def test_response_classes_partition_the_responses(self):
        result = _run(device=_device(4, 2))
        assert len(result.read_response_times_us) == result.read_requests
        assert len(result.write_response_times_us) == result.write_requests
        assert (
            len(result.read_response_times_us)
            + len(result.write_response_times_us)
            == len(result.response_times_us)
        )
        per_class = result.class_response_percentiles()
        assert set(per_class) == {"read", "write"}
        for values in per_class.values():
            assert values["p50_us"] <= values["p95_us"] <= values["p99_us"]


class TestHostKnobs:
    def test_bounded_queue_applies_backpressure(self):
        open_loop = _run(device=_device(4, 2))
        bounded = _run(device=_device(4, 2), arrival=ArrivalSpec(scale=24.0, queue_depth=4))
        # A 4-deep host queue stalls the arrival source, stretching the
        # replay; the admission wait is reported.
        assert bounded.simulated_us >= open_loop.simulated_us
        assert bounded.extra["timed.admission_wait_us"] > 0.0

    def test_arrival_scale_compresses_the_replay(self):
        relaxed = _run(device=_device(4, 2), arrival=ArrivalSpec())
        driven = _run(device=_device(4, 2), arrival=ArrivalSpec(scale=64.0))
        assert driven.simulated_us < relaxed.simulated_us
        assert driven.throughput_kiops > relaxed.throughput_kiops
        driven_p95 = driven.response_percentiles()["p95_us"]
        relaxed_p95 = relaxed.response_percentiles()["p95_us"]
        assert driven_p95 > relaxed_p95  # saturation costs latency

    def test_knobs_also_drive_the_serialized_single_chip_path(self):
        relaxed = _run(device=_device(1, 1), arrival=ArrivalSpec())
        driven = _run(device=_device(1, 1), arrival=ArrivalSpec(scale=64.0))
        assert driven.simulated_us < relaxed.simulated_us
        bounded = _run(device=_device(1, 1), arrival=ArrivalSpec(scale=24.0, queue_depth=2))
        assert bounded.simulated_us >= driven.simulated_us

    def test_replay_validates_knobs(self):
        # The replay's knobs are an ArrivalSpec, validated at construction.
        with pytest.raises(ConfigError, match=r"arrival\.queue_depth"):
            ArrivalSpec(queue_depth=-1)
        with pytest.raises(ConfigError, match=r"arrival\.scale"):
            ArrivalSpec(scale=0.0)


class TestClosedLoop:
    """The closed arrival discipline: a fixed QD population."""

    def test_throughput_monotone_nondecreasing_in_qd(self):
        """The QD-saturation acceptance check: deeper populations never
        lower throughput, and going 1 -> 16 must raise it (reads overlap
        across chips even though the single append point serializes the
        writes — lifting *that* is what multi-plane slots are for)."""
        kiops = [
            _run(
                device=_device(4, 2),
                arrival=ArrivalSpec(mode="closed", queue_depth=qd),
            ).throughput_kiops
            for qd in (1, 4, 16)
        ]
        slack = 1.0 - 1e-9
        assert kiops[1] >= kiops[0] * slack
        assert kiops[2] >= kiops[1] * slack
        assert kiops[2] > 1.05 * kiops[0]

    def test_population_is_bounded_by_qd(self):
        """At QD=1 the closed loop serializes: responses are pure
        service times and the makespan is their sum."""
        result = _run(
            device=_device(4, 2), arrival=ArrivalSpec(mode="closed", queue_depth=1)
        )
        assert result.num_requests == 1200
        assert result.simulated_us == pytest.approx(
            sum(result.response_times_us), rel=1e-9
        )

    def test_closed_loop_does_identical_ftl_work(self):
        """The arrival discipline never changes *what* the FTL does."""
        closed = _run(
            device=_device(4, 2), arrival=ArrivalSpec(mode="closed", queue_depth=8)
        )
        open_loop = _run(device=_device(4, 2))
        assert closed.ftl.stats.snapshot() == open_loop.ftl.stats.snapshot()

    def test_closed_loop_drives_the_serialized_path_too(self):
        result = _run(
            device=_device(1, 1), arrival=ArrivalSpec(mode="closed", queue_depth=4)
        )
        assert result.num_requests == 1200
        assert result.throughput_kiops > 0.0

    def test_closed_requires_timed_mode(self):
        with pytest.raises(ConfigError, match="timed"):
            ScenarioSpec(
                mode="sequential", arrival=ArrivalSpec(mode="closed", queue_depth=4)
            )


class TestPlaneParallelism:
    """planes_per_chip buys intra-chip concurrency in timed mode."""

    def _planes_device(self, planes, total_blocks=128):
        # Roomy enough that 4 planes x 4 chips of append points do not
        # starve the free pool (each open slot pins one block).
        return sim_spec(
            blocks_per_chip=total_blocks // 4,
            num_chips=4,
            num_channels=2,
            planes_per_chip=planes,
        )

    def test_planes_raise_closed_loop_throughput(self):
        """The tentpole acceptance check: at a saturating QD, multi-
        plane devices must push measurably more KIOPS than single-plane."""
        kiops = {
            planes: _run(
                device=self._planes_device(planes),
                arrival=ArrivalSpec(mode="closed", queue_depth=32),
            ).throughput_kiops
            for planes in (1, 2, 4)
        }
        assert kiops[2] > 1.1 * kiops[1]
        assert kiops[4] > kiops[2]

    @pytest.mark.parametrize("ftl", ["conventional", "fast", "ppb", "dftl"])
    def test_every_ftl_runs_closed_loop_on_planes(self, ftl):
        result = _run(
            device=self._planes_device(2),
            ftl=ftl,
            arrival=ArrivalSpec(mode="closed", queue_depth=8),
        )
        assert result.num_requests == 1200
        assert result.throughput_kiops > 0.0

    def test_plane_overlay_does_identical_ftl_work(self):
        """Planes overlay timing; *what* the FTL does is untouched."""
        device = self._planes_device(2)
        timed = _run(device=device)
        sequential = _RUNNER.run(
            ScenarioSpec(
                workload="web-sql", num_requests=1200, seed=42, device=device
            )
        )
        assert timed.ftl.stats.snapshot() == sequential.ftl.stats.snapshot()

    def test_plane_utilization_extras_reported(self):
        result = _run(
            device=self._planes_device(2),
            arrival=ArrivalSpec(mode="closed", queue_depth=16),
        )
        extra = result.extra
        assert 0.0 < extra["timed.plane_util_mean"] <= 1.0
        assert extra["timed.plane_util_mean"] <= extra["timed.plane_util_max"] <= 1.0

    def test_single_plane_has_no_plane_extras(self):
        result = _run(device=_device(4, 2))
        assert not any(key.startswith("timed.plane") for key in result.extra)
