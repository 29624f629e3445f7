"""Scenario execution: engine equivalence, memoization, worker pool reuse."""

import pytest

from repro.bench.memo import ReplayRunner
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.run import run_scenarios
from repro.scenario.spec import ScenarioSpec

#: one tiny scenario shared by the module (the expensive part).
SMOKE = ScenarioSpec(
    workload="uniform",
    num_requests=800,
    device=sim_spec(blocks_per_chip=64),
)


class TestEngineEquivalence:
    def test_runner_rejects_other_types(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="ScenarioSpec"):
            ReplayRunner().run("not a spec")


class TestMemoization:
    def test_identical_scenarios_never_replay_twice(self):
        runner = ReplayRunner()
        results = run_scenarios([SMOKE, SMOKE.with_(seed=43), SMOKE], runner)
        assert results[0] is results[2]
        assert runner.stats.misses == 2
        assert runner.stats.hits == 1

    def test_trace_shared_across_variants(self):
        runner = ReplayRunner()
        trace_a = runner.trace_for(SMOKE)
        trace_b = runner.trace_for(SMOKE.with_(ftl="fast"))
        assert trace_a is trace_b
        assert runner.stats.trace_builds == 1


class TestWorkerPoolReuse:
    def test_pool_survives_across_run_many_calls(self):
        """One CLI invocation, many sweeps, one worker spawn."""
        with ReplayRunner(workers=2) as runner:
            batch_one = [SMOKE.with_(seed=s) for s in (1, 2)]
            batch_two = [SMOKE.with_(seed=s) for s in (3, 4)]
            runner.run_many(batch_one)
            pool = runner._pool
            assert pool is not None
            runner.run_many(batch_two)
            assert runner._pool is pool  # reused, not respawned
            assert runner.stats.misses == 4
        assert runner._pool is None  # context exit released the workers

    def test_close_is_idempotent_and_memo_survives(self):
        runner = ReplayRunner(workers=2)
        runner.run_many([SMOKE.with_(seed=1), SMOKE.with_(seed=2)])
        runner.close()
        runner.close()
        assert runner.run(SMOKE.with_(seed=1)) is not None
        assert runner.stats.hits == 1

    def test_parallel_results_match_sequential(self):
        specs = [SMOKE.with_(seed=s) for s in (1, 2, 3)]
        sequential = ReplayRunner().run_many(specs)
        with ReplayRunner(workers=2) as runner:
            parallel = runner.run_many(specs)
        for seq, par in zip(sequential, parallel):
            assert seq.read_us == par.read_us
            assert seq.write_us == par.write_us
            assert seq.erase_count == par.erase_count

    def test_single_worker_never_spawns_a_pool(self):
        runner = ReplayRunner()
        runner.run_many([SMOKE.with_(seed=1), SMOKE.with_(seed=2)])
        assert runner._pool is None


class TestRelFtlsDerivation:
    def test_reliability_ftls_derived_from_hook_protocol(self):
        """The capability list tracks the mixin, not a hand-kept tuple."""
        from repro.ftl.reliability_hooks import ReliabilityHost
        from repro.sim.replay import FTL_CLASSES, RELIABILITY_FTLS

        expected = tuple(
            kind
            for kind, cls in FTL_CLASSES.items()
            if issubclass(cls, ReliabilityHost)
        )
        assert RELIABILITY_FTLS == expected
        # today every registered FTL hosts the stack
        assert set(RELIABILITY_FTLS) == set(FTL_CLASSES)

    def test_non_host_ftl_would_be_rejected(self, monkeypatch):
        """The make_ftl guard is reachable for mixin-less registrations."""
        import repro.sim.replay as replay_mod
        from repro.errors import ConfigError
        from repro.nand.device import NandDevice
        from repro.nand.spec import tiny_spec
        from repro.reliability.manager import ReliabilityManager

        class BareFtl:  # no ReliabilityHost mixin
            def __init__(self, device, **kwargs):
                pass

        monkeypatch.setitem(
            replay_mod.FTL_FACTORIES, "bare", lambda d, p, rel, ref, mapping: BareFtl(d)
        )
        device = NandDevice(tiny_spec())
        assert isinstance(replay_mod.make_ftl("bare", device), BareFtl)
        manager = ReliabilityManager(device, ReliabilityConfig())
        with pytest.raises(ConfigError, match="does not support the reliability"):
            replay_mod.make_ftl("bare", device, reliability=manager)
