"""Tests for the stateful reliability manager and its config."""

import pytest

from repro.errors import ConfigError
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec
from repro.reliability.manager import (
    ReliabilityConfig,
    ReliabilityManager,
    ReliabilityStats,
)


def make_manager(**config_overrides) -> ReliabilityManager:
    device = NandDevice(tiny_spec())
    return ReliabilityManager(device, ReliabilityConfig(**config_overrides))


class TestConfig:
    def test_null_preset_is_inert(self):
        cfg = ReliabilityConfig.null()
        assert cfg.base_rber == 0.0
        assert cfg.variation_profile == "uniform"

    def test_null_accepts_overrides(self):
        cfg = ReliabilityConfig.null(max_retries=3)
        assert cfg.max_retries == 3
        assert cfg.base_rber == 0.0

    def test_replace(self):
        cfg = ReliabilityConfig().replace(base_rber=1e-2)
        assert cfg.base_rber == 1e-2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rber": -1e-4},
            {"uncorrectable_penalty_us": -1.0},
            {"refresh_check_interval": 0},
            {"refresh_max_blocks_per_check": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            ReliabilityConfig(**kwargs)


class TestClockAndLifecycle:
    def test_clock_advances_in_seconds(self):
        manager = make_manager()
        manager.advance_us(2_500_000.0)
        assert manager.now_s == pytest.approx(2.5)

    def test_first_program_stamps_block(self):
        manager = make_manager()
        manager.advance_us(1_000_000.0)
        manager.note_program(3)
        manager.advance_us(9_000_000.0)
        assert manager.age_of(3) == pytest.approx(9.0)

    def test_later_programs_keep_oldest_stamp(self):
        manager = make_manager()
        manager.note_program(3)
        manager.advance_us(5_000_000.0)
        manager.note_program(3)
        assert manager.age_of(3) == pytest.approx(5.0)

    def test_erase_resets_age_and_counts_pe(self):
        manager = make_manager()
        manager.note_program(3)
        manager.advance_us(5_000_000.0)
        manager.note_erase(3)
        assert manager.age_of(3) == 0.0
        assert manager.pe_cycles_of(3) == 1
        manager.note_program(3)
        assert manager.age_of(3) == 0.0

    def test_unwritten_block_has_no_age(self):
        manager = make_manager()
        manager.advance_us(1e9)
        assert manager.age_of(0) == 0.0

    def test_age_all_pre_ages_only_stamped_blocks(self):
        manager = make_manager()
        manager.note_program(1)
        manager.age_all(3600.0)
        assert manager.age_of(1) == pytest.approx(3600.0)
        assert manager.age_of(2) == 0.0

    def test_age_all_rejects_negative(self):
        with pytest.raises(ConfigError):
            make_manager().age_all(-1.0)

    def test_reset_stats(self):
        manager = make_manager()
        manager.stats.retry_steps = 5
        manager.reset_stats()
        assert manager.stats == ReliabilityStats()


class TestRberComposition:
    def test_rber_composes_all_factors(self):
        manager = make_manager(base_rber=1e-4)
        manager.note_program(2)
        manager.advance_us(7_200_000_000.0)  # 2 hours
        manager.note_erase(5)  # unrelated block
        expected = (
            1e-4
            * manager.variation.multiplier(2, 3)
            * manager.retention.combined_factor(manager.age_of(2), 0)
        )
        assert manager.rber_of(2, 3) == pytest.approx(expected)

    def test_predicted_block_retries_uses_worst_page(self):
        manager = make_manager(base_rber=2e-3, variation_profile="uniform")
        manager.note_program(0)
        steps, uncorrectable = manager.predicted_block_retries(0)
        assert steps == 1
        assert not uncorrectable


class TestReadPenalty:
    def test_clean_read_costs_nothing(self):
        manager = make_manager(base_rber=0.0)
        assert manager.on_host_read(0) == 0.0
        assert manager.stats.checked_reads == 1
        assert manager.stats.retried_reads == 0

    def test_retry_penalty_prices_with_page_latency(self):
        # 4e-3 raw RBER against a 1e-3 limit and 2.0 gain = 2 retry steps.
        manager = make_manager(base_rber=4e-3, variation_profile="uniform")
        spec = manager.spec
        ppn = spec.pages_per_block + 5  # block 1, page 5
        extra = manager.on_host_read(ppn)
        assert extra == pytest.approx(manager.device.latency.retry_read_us(5, 2))
        assert manager.stats.retried_reads == 1
        assert manager.stats.retry_steps == 2
        assert manager.stats.uncorrectable_reads == 0

    def test_uncorrectable_read_pays_recovery_penalty(self):
        manager = make_manager(
            base_rber=1.0,
            variation_profile="uniform",
            max_retries=2,
            uncorrectable_penalty_us=5000.0,
        )
        extra = manager.on_host_read(0)
        assert extra == pytest.approx(
            manager.device.latency.retry_read_us(0, 2) + 5000.0
        )
        assert manager.stats.uncorrectable_reads == 1

    def test_zero_retry_budget_still_pays_uncorrectable_penalty(self):
        """steps == 0 with the uncorrectable flag set must not be free."""
        manager = make_manager(
            base_rber=1e-2,
            variation_profile="uniform",
            max_retries=0,
            uncorrectable_penalty_us=7000.0,
        )
        extra = manager.on_host_read(0)
        assert extra == pytest.approx(7000.0)
        assert manager.stats.uncorrectable_reads == 1
        assert manager.stats.retried_reads == 0

    def test_retries_cost_more_on_slow_pages(self):
        """The retry penalty inherits the paper's latency asymmetry."""
        manager = make_manager(base_rber=4e-3, variation_profile="uniform")
        slow = manager.on_host_read(0)  # page 0 = top layer
        fast = manager.on_host_read(manager.spec.pages_per_block - 1)
        assert slow > fast


class TestRefreshAccounting:
    def test_note_refresh_accumulates(self):
        manager = make_manager()
        manager.note_refresh(10, 1234.5)
        manager.note_refresh(6, 100.0)
        assert manager.stats.refresh_runs == 2
        assert manager.stats.refresh_copied_pages == 16
        assert manager.stats.refresh_us == pytest.approx(1334.5)

    def test_snapshot_has_key_counters(self):
        snap = make_manager().stats.snapshot()
        for key in ("retry_us", "uncorrectable_reads", "refresh_runs"):
            assert key in snap

    def test_describe_mentions_models(self):
        text = make_manager().describe()
        assert "VariationModel" in text
        assert "RetentionModel" in text
        assert "EccModel" in text


class TestSafeDeadline:
    def test_tiny_base_rber_never_overflows_the_deadline(self):
        """At base_rber 1e-7 the large-age bound exceeds the float range;
        the block is then safe forever, and no read ever retries."""
        from repro.nand.spec import sim_spec
        from repro.scenario.run import run_scenario
        from repro.scenario.spec import ScenarioSpec

        spec = ScenarioSpec(
            num_requests=500,
            device=sim_spec(blocks_per_chip=64),
            reliability=ReliabilityConfig(base_rber=1e-7),
        )
        stats = run_scenario(spec).ftl.reliability.stats
        assert stats.checked_reads > 0
        assert stats.mean_retries_per_read == 0.0
