"""Spec fuzzing: every constructible ScenarioSpec either fails with a
:class:`ConfigError` or runs to completion — it never crashes mid-replay.

The specs come from the round-trip strategies, clamped to a smoke-scale
budget (requests, blocks, tenant and preconditioning phases) so each
example replays in well under a second.
"""

import dataclasses

from hypothesis import example, given, settings

from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.run import run_scenario
from repro.scenario.spec import ScenarioSpec
from tests.scenario.test_roundtrip import scenarios

MAX_REQUESTS = 300
MAX_BLOCKS = 64


def _clamp(spec: ScenarioSpec) -> ScenarioSpec:
    def budget(entry):
        return dataclasses.replace(entry, num_requests=min(entry.num_requests, MAX_REQUESTS))

    return spec.with_(
        num_requests=min(spec.num_requests, MAX_REQUESTS),
        device=spec.device.replace(
            blocks_per_chip=min(spec.device.blocks_per_chip, MAX_BLOCKS)
        ),
        tenants=tuple(budget(t) for t in spec.tenants),
        precondition=tuple(budget(p) for p in spec.precondition),
    )


@settings(max_examples=40, deadline=None)
@given(spec=scenarios())
# A tiny base RBER once overflowed the refresh deadline mid-replay.
@example(
    spec=ScenarioSpec(
        num_requests=500,
        device=sim_spec(blocks_per_chip=64),
        reliability=ReliabilityConfig(base_rber=1e-7),
    )
)
# A two-item Zipf popularity once divided by zero in trace generation.
@example(
    spec=ScenarioSpec(
        workload="media-server",
        num_requests=200,
        footprint_fraction=0.1,
        device=sim_spec(blocks_per_chip=48),
    )
)
def test_spec_fails_cleanly_or_runs(spec):
    try:
        result = run_scenario(_clamp(spec))
    except ConfigError:
        return
    assert result.num_requests > 0
