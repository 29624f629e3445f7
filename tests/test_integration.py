"""Cross-module integration tests: whole-stack behaviour checks.

These are the paper's qualitative results at miniature scale:

* PPB beats the conventional FTL on reads for skewed workloads;
* PPB gains nothing on a symmetric (uniform-latency) device;
* PPB gains nothing on an unskewed workload;
* write (program) latency is unchanged;
* all of it deterministic for fixed seeds.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import compare
from repro.bench.memo import ReplayRunner
from repro.core.config import PPBConfig
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec

#: miniature scale so the whole module runs in seconds.
MICRO = ScenarioSpec(num_requests=12_000, device=sim_spec(blocks_per_chip=128))


@pytest.fixture(scope="module")
def runner() -> ReplayRunner:
    return ReplayRunner()


def _read_gain(conv, ppb) -> float:
    conv_read = conv.stats.host_read_us
    return (conv_read - ppb.stats.host_read_us) / conv_read


class TestPaperHeadline:
    def test_ppb_improves_reads_on_web_workload(self, runner):
        conv, ppb = compare(runner, MICRO, "web-sql", speed_ratio=4.0)
        assert ppb.stats.host_read_us < conv.stats.host_read_us

    def test_ppb_improves_reads_on_media_workload(self, runner):
        conv, ppb = compare(runner, MICRO, "media-server", speed_ratio=4.0)
        assert ppb.stats.host_read_us < conv.stats.host_read_us

    def test_write_latency_essentially_unchanged(self, runner):
        conv, ppb = compare(runner, MICRO, "web-sql", speed_ratio=4.0)
        conv_write = conv.stats.host_write_us
        delta = abs(ppb.stats.host_write_us - conv_write) / conv_write
        assert delta < 0.005

    def test_erases_not_excessive(self, runner):
        conv, ppb = compare(runner, MICRO, "web-sql", speed_ratio=4.0)
        assert ppb.stats.erase_count <= conv.stats.erase_count * 1.5

    def test_gain_grows_with_speed_ratio(self, runner):
        gains = [
            _read_gain(*compare(runner, MICRO, "web-sql", speed_ratio=ratio))
            for ratio in (2.0, 5.0)
        ]
        assert gains[1] > gains[0]


class TestNullControls:
    def test_no_gain_on_symmetric_device(self, runner):
        """On a uniform-latency device PPB has nothing to exploit."""
        conv, ppb = compare(runner, MICRO, "web-sql", speed_ratio=4.0, latency_profile="uniform")
        assert abs(_read_gain(conv, ppb)) < 0.01

    def test_little_gain_on_unskewed_workload(self, runner):
        conv, ppb = compare(runner, MICRO, "uniform", speed_ratio=4.0)
        # uniform traffic has no hot data to place; allow small noise
        assert _read_gain(conv, ppb) < 0.05


class TestDeterminism:
    def test_cells_are_reproducible(self):
        spec = MICRO.with_(device=MICRO.device.replace(speed_ratio=3.0))
        a = ReplayRunner().run(spec).ftl.stats
        b = ReplayRunner().run(spec).ftl.stats
        assert a.host_read_us == b.host_read_us
        assert a.host_write_us == b.host_write_us
        assert a.erase_count == b.erase_count

    def test_runner_caches(self, runner):
        spec = MICRO.with_(device=MICRO.device.replace(speed_ratio=4.0))
        first = runner.run(spec)
        second = runner.run(spec)
        assert first is second

    def test_trace_shared_across_ftls(self, runner):
        spec = MICRO.with_(device=MICRO.device.replace(speed_ratio=4.0))
        trace_a = runner.trace_for(spec)
        trace_b = runner.trace_for(spec.with_(ftl="ppb", ppb=PPBConfig()))
        assert trace_a is trace_b


class TestProfileSensitivity:
    @pytest.mark.parametrize("profile", ["linear", "geometric", "physical"])
    def test_ppb_wins_under_every_asymmetric_profile(self, runner, profile):
        conv, ppb = compare(runner, MICRO, "web-sql", speed_ratio=4.0, latency_profile=profile)
        assert ppb.stats.host_read_us < conv.stats.host_read_us
