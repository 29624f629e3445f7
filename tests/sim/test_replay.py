"""Tests for the FTL factory and replaying a prebuilt trace."""

import pytest

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.nand.spec import tiny_spec
from repro.scenario.run import execute_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.replay import make_ftl
from repro.nand.device import NandDevice
from repro.traces.workloads import UniformWorkload


@pytest.fixture(scope="module")
def small_trace():
    return UniformWorkload(
        num_requests=3000, footprint_bytes=64 * 2**20, request_bytes=2048
    ).generate()


class TestMakeFtl:
    def test_all_kinds(self):
        device = NandDevice(tiny_spec())
        assert make_ftl("conventional", device).name == "conventional"
        device = NandDevice(tiny_spec())
        assert make_ftl("fast", device).name == "fast"
        device = NandDevice(tiny_spec())
        assert make_ftl("ppb", device).name == "ppb"

    def test_ppb_config_passed_through(self):
        device = NandDevice(tiny_spec())
        ftl = make_ftl("ppb", device, PPBConfig(vb_split=4))
        assert ftl.config.vb_split == 4

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_ftl("bogus", NandDevice(tiny_spec()))


def _replay(trace, ftl="conventional", warm_fill_fraction=0.9):
    spec = ScenarioSpec(device=tiny_spec(), ftl=ftl, warm_fill_fraction=warm_fill_fraction)
    return execute_scenario(spec, trace)


class TestReplayTrace:
    """A prebuilt trace replayed through the scenario engine."""

    @pytest.mark.parametrize("kind", ["conventional", "fast", "ppb"])
    def test_end_to_end(self, small_trace, kind):
        result = _replay(small_trace, kind)
        assert result.num_requests == len(small_trace)
        assert result.read_us >= 0
        assert result.write_us > 0

    def test_warm_fill_ages_device(self, small_trace):
        aged = _replay(small_trace, warm_fill_fraction=0.9)
        fresh = _replay(small_trace, warm_fill_fraction=0.0)
        # the aged device has to garbage collect more
        assert aged.erase_count >= fresh.erase_count

    def test_deterministic(self, small_trace):
        a = _replay(small_trace, "ppb")
        b = _replay(small_trace, "ppb")
        assert a.read_us == b.read_us
        assert a.write_us == b.write_us
        assert a.erase_count == b.erase_count
