"""Tests for the SSD front end (request splitting, replay modes)."""

import pytest

from repro.errors import ConfigError
from repro.ftl.conventional import ConventionalFTL
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec
from repro.sim.ssd import SSD
from repro.traces.record import IORequest, OpType, Trace


@pytest.fixture
def ssd() -> SSD:
    spec = tiny_spec()
    return SSD(ConventionalFTL(NandDevice(spec)), spec.page_size)


class TestRequestSplitting:
    def test_single_page_write(self, ssd):
        latency = ssd.service(IORequest(OpType.WRITE, 0, 512))
        assert latency > 0
        assert ssd.ftl.stats.host_write_pages == 1

    def test_multi_page_write(self, ssd):
        page = ssd.page_size
        ssd.service(IORequest(OpType.WRITE, 0, 3 * page))
        assert ssd.ftl.stats.host_write_pages == 3

    def test_unaligned_request_touches_extra_page(self, ssd):
        page = ssd.page_size
        ssd.service(IORequest(OpType.WRITE, page // 2, page))
        assert ssd.ftl.stats.host_write_pages == 2

    def test_read_after_write(self, ssd):
        page = ssd.page_size
        ssd.service(IORequest(OpType.WRITE, 0, 2 * page))
        latency = ssd.service(IORequest(OpType.READ, 0, 2 * page))
        assert latency > 0
        assert ssd.ftl.stats.host_read_pages == 2

    def test_request_beyond_capacity_clipped(self, ssd):
        end = ssd.capacity_bytes
        ssd.service(IORequest(OpType.WRITE, end - ssd.page_size, 4 * ssd.page_size))
        assert ssd.ftl.stats.host_write_pages == 1


class TestSequentialReplay:
    def _trace(self, page):
        return Trace(
            [
                IORequest(OpType.WRITE, 0, 2 * page, 0.0),
                IORequest(OpType.READ, 0, page, 100.0),
                IORequest(OpType.WRITE, 4 * page, page, 200.0),
            ],
            name="mini",
        )

    def test_aggregates(self, ssd):
        result = ssd.replay(self._trace(ssd.page_size))
        assert result.num_requests == 3
        assert result.read_requests == 1
        assert result.write_requests == 2
        assert result.read_us > 0
        assert result.write_us > 0

    def test_summary_text(self, ssd):
        result = ssd.replay(self._trace(ssd.page_size))
        assert "conventional" in result.summary()

    def test_unknown_mode_rejected(self, ssd):
        with pytest.raises(ConfigError):
            ssd.replay(self._trace(ssd.page_size), mode="warp")


class TestTimedReplay:
    def test_response_times_include_queueing(self, ssd):
        page = ssd.page_size
        # Two writes arriving simultaneously: the second queues.
        trace = Trace(
            [
                IORequest(OpType.WRITE, 0, page, 0.0),
                IORequest(OpType.WRITE, page, page, 0.0),
            ]
        )
        result = ssd.replay(trace, mode="timed")
        assert len(result.response_times_us) == 2
        assert result.response_times_us[1] > result.response_times_us[0]

    def test_spread_arrivals_do_not_queue(self, ssd):
        page = ssd.page_size
        trace = Trace(
            [
                IORequest(OpType.WRITE, 0, page, 0.0),
                IORequest(OpType.WRITE, page, page, 1e9),
            ]
        )
        result = ssd.replay(trace, mode="timed")
        assert result.response_times_us[0] == pytest.approx(
            result.response_times_us[1], rel=0.01
        )

    def test_ftl_without_device_rejected_up_front(self):
        class BareFTL:
            name = "bare"
            num_lpns = 8
            serviced = 0

            def host_write(self, lpn, nbytes=None):
                self.serviced += 1
                return 1.0

        ftl = BareFTL()
        ssd = SSD(ftl, page_size=512)
        trace = Trace([IORequest(OpType.WRITE, 0, 512, 0.0)])
        with pytest.raises(ConfigError, match="NAND device"):
            ssd.replay(trace, mode="timed")
        assert ftl.serviced == 0
        # Sequential replays only need the FTL's latencies.
        assert ssd.replay(trace).write_us == 1.0


class TestWarmFill:
    def test_fill_maps_everything_and_resets_stats(self, ssd):
        ssd.warm_fill(1.0)
        assert ssd.ftl.map.mapped_count == ssd.ftl.num_lpns
        assert ssd.ftl.stats.host_write_pages == 0  # stats reset
        assert ssd.ftl.device.stats.programs == 0

    def test_partial_fill(self, ssd):
        ssd.warm_fill(0.5)
        assert ssd.ftl.map.mapped_count == ssd.ftl.num_lpns // 2

    def test_bad_fraction_rejected(self, ssd):
        with pytest.raises(ConfigError):
            ssd.warm_fill(1.5)


class TestResponsePercentiles:
    def test_sequential_mode_has_no_percentiles(self, ssd):
        page = ssd.page_size
        trace = Trace([IORequest(OpType.WRITE, 0, page)])
        result = ssd.replay(trace, mode="sequential")
        assert result.response_percentiles() == {}

    def test_timed_mode_reports_percentiles(self, ssd):
        page = ssd.page_size
        trace = Trace(
            [IORequest(OpType.WRITE, i * page, page, 0.0) for i in range(8)]
        )
        result = ssd.replay(trace, mode="timed")
        percentiles = result.response_percentiles()
        assert set(percentiles) == {"p50_us", "p95_us", "p99_us"}
        ordered = sorted(result.response_times_us)
        assert percentiles["p50_us"] >= ordered[0]
        assert percentiles["p99_us"] <= ordered[-1]
        assert (
            percentiles["p50_us"] <= percentiles["p95_us"] <= percentiles["p99_us"]
        )

    def test_quantile_interpolation_matches_numpy_linear(self):
        import numpy as np

        from repro.sim.ssd import RunResult

        times = [5.0, 1.0, 9.0, 3.0, 7.0]
        result = RunResult(ftl_name="x", trace_name="y", response_times_us=times)
        percentiles = result.response_percentiles()
        assert percentiles["p50_us"] == pytest.approx(np.percentile(times, 50))
        assert percentiles["p95_us"] == pytest.approx(np.percentile(times, 95))
        assert percentiles["p99_us"] == pytest.approx(np.percentile(times, 99))

    def test_single_sample(self):
        from repro.sim.ssd import RunResult

        result = RunResult(ftl_name="x", trace_name="y", response_times_us=[4.2])
        assert result.response_percentiles() == {
            "p50_us": 4.2,
            "p95_us": 4.2,
            "p99_us": 4.2,
        }
