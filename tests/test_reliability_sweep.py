"""Tests for the reliability benchmark scenario (smoke scale)."""

import pytest

from repro.bench.reliability import (
    ReliabilityPoint,
    ReliabilitySweepSpec,
    run_reliability_sweep,
)
from repro.bench.memo import ReplayRunner
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.spec import ScenarioSpec

#: One tiny sweep shared by the whole module (the expensive part).
SMOKE = ReliabilitySweepSpec(
    speed_ratios=(2.0,),
    ages_hours=(0.0, 720.0),
    base=ScenarioSpec(
        workload="web-sql",
        num_requests=1_500,
        device=sim_spec(blocks_per_chip=64),
        reliability=ReliabilityConfig(),
    ),
)


@pytest.fixture(scope="module")
def runner():
    return ReplayRunner()


@pytest.fixture(scope="module")
def report(runner):
    return run_reliability_sweep(SMOKE, runner)


class TestSweepReport:
    def test_one_row_per_point(self, report):
        assert len(report.rows) == len(SMOKE.speed_ratios) * len(SMOKE.ages_hours)

    def test_retention_inflates_read_latency(self, report):
        fresh = next(r for r in report.rows if r[1] == "0h")
        aged = next(r for r in report.rows if r[1] == "30d")
        assert float(aged[3]) > float(fresh[3])

    def test_refresh_recovers_latency(self, report):
        aged = next(r for r in report.rows if r[1] == "30d")
        no_refresh_us, with_refresh_us = float(aged[3]), float(aged[5])
        assert with_refresh_us < no_refresh_us

    def test_refresh_costs_erases(self, report):
        aged = next(r for r in report.rows if r[1] == "30d")
        assert aged[11] > 0  # extra erases: the lifetime half of the trade-off

    def test_shape_checks_pass(self, report):
        failed = [name for name, ok in report.checks if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_render_includes_matrix(self, report):
        text = report.render()
        assert "speed ratio x retention age" in text
        assert "30d" in text

    def test_baseline_replays_once_per_speed_ratio(self, runner, report):
        ratios, ages = len(SMOKE.speed_ratios), len(SMOKE.ages_hours)
        # one baseline per ratio, two stack variants per (ratio, age)
        assert runner.stats.misses == ratios * (1 + 2 * ages)
        assert runner.stats.hits == ratios * (ages - 1)


class TestSweepValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            ReliabilitySweepSpec(base=SMOKE.base.with_(workload="nope"))

    def test_base_must_carry_the_reliability_stack(self):
        with pytest.raises(ConfigError, match=r"base\.reliability"):
            ReliabilitySweepSpec(base=SMOKE.base.with_(reliability=None))

    def test_point_derived_metrics(self):
        point = ReliabilityPoint(
            speed_ratio=2.0,
            age_hours=720.0,
            base_read_us=100.0,
            aged_read_us=150.0,
            refresh_read_us=110.0,
            aged_retries_per_read=0.5,
            refresh_retries_per_read=0.1,
            uncorrectable_reads=0,
            refreshed_blocks=3,
            refresh_copied_pages=48,
            refresh_us=1e5,
            base_erases=10,
            refresh_erases=13,
        )
        assert point.retention_penalty == pytest.approx(0.5)
        assert point.recovered_fraction == pytest.approx(0.8)

    def test_recovered_fraction_clamps_without_penalty(self):
        point = ReliabilityPoint(
            speed_ratio=2.0,
            age_hours=0.0,
            base_read_us=100.0,
            aged_read_us=100.0,
            refresh_read_us=100.0,
            aged_retries_per_read=0.0,
            refresh_retries_per_read=0.0,
            uncorrectable_reads=0,
            refreshed_blocks=0,
            refresh_copied_pages=0,
            refresh_us=0.0,
            base_erases=10,
            refresh_erases=10,
        )
        assert point.recovered_fraction == 0.0
