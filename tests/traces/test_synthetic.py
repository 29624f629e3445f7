"""Tests for the samplers and the access-pattern algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.traces.synthetic import (
    PatternPhase,
    RandomPattern,
    ScrambledZipfian,
    SequentialPattern,
    SnakePattern,
    StridePattern,
    UniformSampler,
    ZipfianGenerator,
    choose_weighted,
    fnv1a_64,
    make_pattern,
    parse_phases,
)


class TestZipfian:
    def test_range(self):
        gen = ZipfianGenerator(100, 0.99, np.random.default_rng(0))
        samples = gen.sample(2000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_rank_zero_most_popular(self):
        gen = ZipfianGenerator(1000, 0.99, np.random.default_rng(0))
        samples = gen.sample(20000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[0] == counts.max()

    def test_skew_increases_with_theta(self):
        low = ZipfianGenerator(1000, 0.5, np.random.default_rng(1)).sample(10000)
        high = ZipfianGenerator(1000, 0.99, np.random.default_rng(1)).sample(10000)
        top_low = np.mean(low < 10)
        top_high = np.mean(high < 10)
        assert top_high > top_low

    def test_deterministic_for_seed(self):
        a = ZipfianGenerator(100, 0.9, np.random.default_rng(7)).sample(100)
        b = ZipfianGenerator(100, 0.9, np.random.default_rng(7)).sample(100)
        assert np.array_equal(a, b)

    def test_single_item(self):
        gen = ZipfianGenerator(1, 0.9, np.random.default_rng(0))
        assert all(gen.next() == 0 for _ in range(50))

    def test_two_items(self):
        gen = ZipfianGenerator(2, 0.9, np.random.default_rng(0))
        assert set(gen.sample(2000).tolist()) == {0, 1}

    def test_two_item_workload_replays(self):
        """A footprint small enough to leave a Zipf over two items."""
        from repro.nand.spec import sim_spec
        from repro.scenario.run import run_scenario
        from repro.scenario.spec import ScenarioSpec

        spec = ScenarioSpec(
            workload="media-server",
            num_requests=200,
            footprint_fraction=0.1,
            device=sim_spec(blocks_per_chip=48),
        )
        assert run_scenario(spec).num_requests == 200

    @pytest.mark.parametrize("bad", [0, -5])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ConfigError):
            ZipfianGenerator(bad)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(ConfigError):
            ZipfianGenerator(10, theta)


class TestScrambledZipfian:
    def test_range(self):
        gen = ScrambledZipfian(500, 0.99, np.random.default_rng(0))
        samples = gen.sample(5000)
        assert samples.min() >= 0
        assert samples.max() < 500

    def test_hot_items_not_clustered_at_low_indices(self):
        gen = ScrambledZipfian(1000, 0.99, np.random.default_rng(2))
        samples = gen.sample(20000)
        counts = np.bincount(samples, minlength=1000)
        hottest = int(np.argmax(counts))
        assert hottest > 10  # scrambling moved rank 0 away from index 0

    def test_still_skewed(self):
        gen = ScrambledZipfian(1000, 0.99, np.random.default_rng(3))
        samples = gen.sample(20000)
        counts = np.sort(np.bincount(samples, minlength=1000))[::-1]
        assert counts[:10].sum() > 0.2 * len(samples)


class TestUniformSampler:
    def test_range_and_spread(self):
        gen = UniformSampler(50, np.random.default_rng(0))
        samples = gen.sample(5000)
        assert samples.min() >= 0 and samples.max() < 50
        counts = np.bincount(samples, minlength=50)
        assert counts.min() > 0  # every slot hit eventually

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigError):
            UniformSampler(0)


class TestHelpers:
    @given(value=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=100)
    def test_fnv_is_deterministic_64bit(self, value):
        a = fnv1a_64(value)
        assert a == fnv1a_64(value)
        assert 0 <= a < 2**64

    def test_fnv_spreads_consecutive_inputs(self):
        hashes = {fnv1a_64(i) % 1000 for i in range(100)}
        assert len(hashes) > 80

    def test_choose_weighted_respects_weights(self):
        rng = np.random.default_rng(0)
        picks = [choose_weighted(rng, {"a": 0.9, "b": 0.1}) for _ in range(500)]
        assert picks.count("a") > picks.count("b")

    def test_choose_weighted_rejects_empty(self):
        with pytest.raises(ConfigError):
            choose_weighted(np.random.default_rng(0), {})

    def test_choose_weighted_rejects_negative(self):
        with pytest.raises(ConfigError):
            choose_weighted(np.random.default_rng(0), {"a": -1.0})


def walk(pattern, count):
    return [pattern.next() for _ in range(count)]


class TestPatterns:
    def test_sequential_wraps(self):
        assert walk(SequentialPattern(4), 6) == [0, 1, 2, 3, 0, 1]

    def test_snake_reverses_odd_rows(self):
        # rows of 3 over 9 slots: 0,1,2 then 5,4,3 then 6,7,8
        assert walk(SnakePattern(9, row=3), 9) == [0, 1, 2, 5, 4, 3, 6, 7, 8]

    def test_snake_short_last_row_clamps(self):
        # 7 slots, rows of 3: last (reversed) row is just 6
        assert walk(SnakePattern(7, row=3), 7) == [0, 1, 2, 5, 4, 3, 6]

    def test_stride_covers_all_slots(self):
        seen = walk(StridePattern(10, stride=3), 10)
        assert sorted(seen) == list(range(10))

    def test_stride_visits_every_strideth_slot_first(self):
        assert walk(StridePattern(12, stride=4), 3) == [0, 4, 8]

    @pytest.mark.parametrize("name", ["seq", "rand", "stride", "snake", "zipf"])
    def test_every_pattern_stays_in_range(self, name):
        pattern = make_pattern(name, 37, np.random.default_rng(0), row=5)
        assert all(0 <= slot < 37 for slot in walk(pattern, 200))

    def test_aliases_resolve(self):
        assert isinstance(make_pattern("sequential", 4, None), SequentialPattern)
        rng = np.random.default_rng(0)
        assert isinstance(make_pattern("random", 4, rng), RandomPattern)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError, match="unknown access pattern"):
            make_pattern("spiral", 10, None)

    @pytest.mark.parametrize("cls", [SequentialPattern, SnakePattern, StridePattern])
    def test_bad_n_rejected(self, cls):
        with pytest.raises(ConfigError):
            cls(0)


class TestPhaseGrammar:
    def test_single_phase(self):
        (phase,) = parse_phases("write:seq")
        assert phase == PatternPhase(op="write", pattern="seq")

    def test_full_program(self):
        phases = parse_phases("write:seq | read:snake@0-3 | mixed:zipf*2")
        assert [p.op for p in phases] == ["write", "read", "mixed"]
        assert phases[1].zones == (0, 3)
        assert phases[2].weight == 2.0

    def test_comma_separator_and_aliases(self):
        phases = parse_phases("w:seq, t:rand, rw:zipf")
        assert [p.op for p in phases] == ["write", "trim", "mixed"]

    def test_single_zone_shorthand(self):
        (phase,) = parse_phases("read:seq@2")
        assert phase.zones == (2, 2)

    def test_discard_alias(self):
        (phase,) = parse_phases("discard:rand")
        assert phase.op == "trim"

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("", "empty phase program"),
            ("write", "must be op:pattern"),
            ("fly:seq", "unknown op"),
            ("write:spiral", "unknown pattern"),
            ("write:seq*zero", "bad weight"),
            ("write:seq*-1", "weight must be > 0"),
            ("write:seq@x-y", "bad zone range"),
            ("write:seq@3-1", "bad zone range"),
        ],
    )
    def test_bad_programs_name_the_token(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            parse_phases(bad)
