"""ScenarioSpec: validation, canonicalization, hashing, trace keys."""

import dataclasses

import pytest

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec


class TestValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.workload == "web-sql"
        assert spec.ftl == "conventional"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            ScenarioSpec(workload="nope")

    def test_unknown_ftl_rejected(self):
        with pytest.raises(ConfigError, match="unknown FTL"):
            ScenarioSpec(ftl="bogus")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            ScenarioSpec(mode="warp")

    def test_reread_requires_reliability(self):
        with pytest.raises(ConfigError, match="reread_age_s requires"):
            ScenarioSpec(reread_age_s=100.0)
        # fine with the stack attached
        ScenarioSpec(reread_age_s=100.0, reliability=ReliabilityConfig())

    def test_negative_ages_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(retention_age_s=-1.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(reread_age_s=-1.0, reliability=ReliabilityConfig())

    def test_footprint_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(footprint_fraction=0.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(footprint_fraction=1.5)

    def test_num_requests_positive(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(num_requests=0)


class TestCanonicalization:
    def test_workload_kwargs_dict_normalized_to_sorted_tuple(self):
        from_dict = ScenarioSpec(workload_kwargs={"b": 2.0, "a": 1.0})
        from_tuple = ScenarioSpec(workload_kwargs=(("b", 2.0), ("a", 1.0)))
        assert from_dict.workload_kwargs == (("a", 1.0), ("b", 2.0))
        assert from_dict == from_tuple
        assert hash(from_dict) == hash(from_tuple)

    def test_spec_is_frozen_and_hashable(self):
        spec = ScenarioSpec(ppb=PPBConfig(), reliability=ReliabilityConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.ftl = "fast"
        assert spec == ScenarioSpec(ppb=PPBConfig(), reliability=ReliabilityConfig())
        assert len({spec, spec.with_(ftl="fast")}) == 2


class TestTraceKey:
    def test_key_ignores_ftl_timing_and_reliability(self):
        base = ScenarioSpec()
        variants = [
            base.with_(ftl="ppb", ppb=PPBConfig()),
            base.with_(reliability=ReliabilityConfig(), refresh=True),
            base.with_(device=base.device.replace(speed_ratio=5.0)),
            base.with_(retention_age_s=100.0, reliability=ReliabilityConfig()),
        ]
        for variant in variants:
            assert variant.trace_key() == base.trace_key()

    def test_key_tracks_workload_and_geometry(self):
        base = ScenarioSpec()
        assert base.with_(seed=7).trace_key() != base.trace_key()
        assert base.with_(num_requests=99).trace_key() != base.trace_key()
        bigger = base.with_(device=base.device.replace(blocks_per_chip=512))
        assert bigger.trace_key() != base.trace_key()  # footprint grows

    def test_trace_path_dominates(self):
        spec = ScenarioSpec(trace_path="/tmp/some.csv")
        assert spec.trace_key() == ("trace-file", "/tmp/some.csv")


class TestConvenience:
    def test_effective_warm_fill_defaults_to_footprint(self):
        assert ScenarioSpec().effective_warm_fill == 0.80
        assert ScenarioSpec(warm_fill_fraction=0.5).effective_warm_fill == 0.5

    def test_describe_mentions_the_load_bearing_knobs(self):
        spec = ScenarioSpec(
            ftl="ppb",
            device=sim_spec(speed_ratio=4.0),
            reliability=ReliabilityConfig(),
            refresh=True,
            reread_age_s=100.0,
        )
        text = spec.describe()
        for token in ("web-sql", "ppb", "4x", "+reliability", "+refresh", "reread"):
            assert token in text, text


class TestTimedKnobs:
    def test_defaults_are_open_loop(self):
        spec = ScenarioSpec()
        assert spec.arrival is None
        assert not spec.effective_arrival.is_closed
        assert spec.effective_arrival.queue_depth == 0
        assert spec.effective_arrival.scale == 1.0

    def test_negative_queue_depth_rejected(self):
        with pytest.raises(ConfigError, match="queue_depth"):
            ScenarioSpec(arrival=ArrivalSpec(queue_depth=-1))

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_non_positive_arrival_scale_rejected(self, value):
        with pytest.raises(ConfigError, match=r"arrival\.scale"):
            ScenarioSpec(arrival=ArrivalSpec(scale=value))

    def test_describe_shows_queueing_knobs_in_timed_mode(self):
        spec = ScenarioSpec(mode="timed", arrival=ArrivalSpec(queue_depth=64, scale=16.0))
        assert "timed(x16, qd=64)" in spec.describe()
        assert "timed" not in ScenarioSpec(arrival=ArrivalSpec(scale=16.0)).describe()
