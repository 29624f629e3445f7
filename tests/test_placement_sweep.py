"""Tests for the placement benchmark scenario (smoke scale)."""

import pytest

from repro.bench.memo import ReplayRunner
from repro.bench.placement import (
    PlacementPoint,
    PlacementSweepSpec,
    default_placement_reliability,
    run_placement_sweep,
)
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec

#: One tiny sweep shared by the whole module (the expensive part).
SMOKE = PlacementSweepSpec(
    speed_ratios=(2.0,),
    skews=(0.95,),
    weights=(0.0, 4.0),
    base=ScenarioSpec(
        workload="web-sql",
        num_requests=2_500,
        device=sim_spec(blocks_per_chip=64),
        reliability=default_placement_reliability(),
    ),
)

#: variants at one sweep point: conventional, fast, ppb per weight.
VARIANTS_PER_POINT = 2 + len(SMOKE.weights)


@pytest.fixture(scope="module")
def runner():
    return ReplayRunner()


@pytest.fixture(scope="module")
def report(runner):
    return run_placement_sweep(SMOKE, runner=runner)


class TestSweepReport:
    def test_one_row_per_variant(self, report):
        points = len(SMOKE.speed_ratios) * len(SMOKE.skews)
        assert len(report.rows) == points * VARIANTS_PER_POINT

    def test_shape_checks_pass(self, report):
        failed = [name for name, ok in report.checks if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_reliability_aware_cuts_aged_retry_cost(self, report):
        by_variant = {row[2]: row for row in report.rows}
        speed_only = by_variant["ppb"]
        weighted = by_variant["ppb w=4"]
        assert float(weighted[6]) <= float(speed_only[6])  # retries/rd
        assert int(weighted[11]) > 0                       # diverts

    def test_render_includes_frontier_matrix(self, report):
        text = report.render()
        assert "speed ratio x hotness skew" in text
        assert "ppb w=4" in text


class TestMemoization:
    def test_no_identical_replay_ran_twice(self, runner, report):
        # the memo absorbed the re-requested speed-oblivious baselines:
        # (len(weights) - 1) repeats x 2 FTLs x points
        points = len(SMOKE.speed_ratios) * len(SMOKE.skews)
        expected_saved = (len(SMOKE.weights) - 1) * 2 * points
        assert runner.stats.hits >= expected_saved
        # every executed replay is a distinct spec
        assert runner.stats.misses == points * VARIANTS_PER_POINT

    def test_rerun_is_fully_memoized(self, runner, report):
        misses_before = runner.stats.misses
        rerun = run_placement_sweep(SMOKE, runner=runner)
        assert runner.stats.misses == misses_before  # nothing re-ran
        assert rerun.rows == report.rows

    def test_trace_shared_across_variants(self, runner, report):
        # one trace per (workload, scale, skew, seed) — not per variant
        assert runner.stats.trace_builds == len(SMOKE.skews)


class TestReplayRunner:
    def test_spec_hashable_and_memoized(self):
        runner = ReplayRunner()
        spec = ScenarioSpec(
            num_requests=300, device=sim_spec(blocks_per_chip=64)
        )
        first = runner.run(spec)
        again = runner.run(spec)
        assert first is again
        assert runner.stats.hits == 1
        assert runner.stats.misses == 1

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="nope")


class TestSweepValidation:
    def test_unskewable_workload_rejected(self):
        with pytest.raises(ConfigError, match="skewable workload"):
            PlacementSweepSpec(base=SMOKE.base.with_(workload="uniform"))

    def test_base_must_carry_the_reliability_stack(self):
        with pytest.raises(ConfigError, match=r"base\.reliability"):
            PlacementSweepSpec(base=SMOKE.base.with_(reliability=None))

    def test_weights_must_include_zero(self):
        with pytest.raises(ConfigError):
            PlacementSweepSpec(weights=(1.0, 2.0))

    def test_skew_must_be_valid_zipf_theta(self):
        with pytest.raises(ConfigError):
            PlacementSweepSpec(skews=(1.2,))

    def test_point_derived_metrics(self):
        point = PlacementPoint(
            speed_ratio=2.0,
            skew=0.95,
            variant="ppb",
            weight=0.0,
            fresh_read_us=100.0,
            aged_read_us=150.0,
            aged_retries_per_read=0.5,
            aged_retry_us=1e5,
            uncorrectable=0,
            refreshed_blocks=3,
            refresh_copied_pages=48,
            refresh_us=1e5,
            erases=10,
            fast_read_fraction=0.6,
            reliability_diverts=0,
        )
        assert point.aged_penalty == pytest.approx(0.5)


class TestParallelSweep:
    """workers > 1 prefetches the grid; the report must be identical."""

    def test_parallel_sweep_matches_sequential(self, report):
        parallel_runner = ReplayRunner(workers=2)
        parallel = run_placement_sweep(SMOKE, runner=parallel_runner)
        # Same rows (every numeric cell is formatted from replay output,
        # so equality here means the replays were byte-identical) and
        # the same title (which renders the memo's ran/saved counters,
        # so the hit/miss accounting matches single-process execution).
        assert parallel.rows == report.rows
        assert parallel.title == report.title
        assert parallel.all_checks_pass == report.all_checks_pass
        # Every unique spec of the grid ran exactly once, in the pool.
        points = len(SMOKE.speed_ratios) * len(SMOKE.skews)
        assert parallel_runner.stats.misses == points * VARIANTS_PER_POINT
