#!/usr/bin/env python3
"""Exploring reliability-aware placement: pricing the fast pages' risk.

Pure-speed PPB parks the most frequently *read* data on the fast
bottom-layer pages — which the reliability subsystem shows are also the
most error-prone ones (field stress), and which read disturb then
hammers hardest.  This study walks the trade-off with numbers:

    speed class -> mean read latency gain (what PPB chases)
    speed class -> predicted RBER-at-horizon -> retry cost (what it risks)
    reliability_weight -> where read-hot data actually goes
    the frontier: fresh-read speed vs aged-read reliability

Run:  python examples/placement_study.py
"""

from repro.bench.placement import (
    PlacementSweepSpec,
    default_placement_reliability,
    run_placement_sweep,
)
from repro.core.placement import ReliabilityAwarePlacement
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig, ReliabilityManager
from repro.reliability.retention import SECONDS_PER_HOUR
from repro.scenario.spec import ScenarioSpec


def show_utility_decision() -> None:
    """One placement decision, dissected."""
    device = NandDevice(sim_spec(speed_ratio=2.0, blocks_per_chip=64))
    manager = ReliabilityManager(device, ReliabilityConfig(disturb_coeff=8.0))
    policy = ReliabilityAwarePlacement(
        manager,
        device.latency,
        weight=4.0,
        horizon_s=720 * SECONDS_PER_HOUR,
        horizon_reads=1_000,
    )
    print(policy.describe())
    gain = policy._mean_read_us[False] - policy._mean_read_us[True]
    print(f"speed gain of the fast class: {gain:.1f} us per read")
    # The decision is per-block: the lognormal process variation means
    # some blocks' fast halves are predicted to rot and some are not.
    blocks = sorted(
        range(device.spec.total_blocks),
        key=lambda pbn: float(manager.variation.block_multipliers[pbn]),
    )
    for label, pbn in (("best block", blocks[0]), ("worst block", blocks[-1])):
        mult = float(manager.variation.block_multipliers[pbn])
        cold = policy.prefer_fast(pbn, None, hot=False)
        hot = policy.prefer_fast(pbn, None, hot=True)
        print(
            f"{label} (rber x{mult:.2f}): cold data -> "
            f"{'fast' if cold else 'slow'} pages, iron-hot data -> "
            f"{'fast' if hot else 'slow'} pages"
        )


def show_frontier() -> None:
    """A small placement sweep (the CLI runs the full one)."""
    sweep = PlacementSweepSpec(
        speed_ratios=(2.0,),
        skews=(0.95,),
        weights=(0.0, 2.0, 8.0),
        base=ScenarioSpec(
            num_requests=4_000,
            device=sim_spec(blocks_per_chip=64),
            reliability=default_placement_reliability(),
        ),
    )
    print()
    print(run_placement_sweep(sweep).render())


def main() -> None:
    show_utility_decision()
    show_frontier()


if __name__ == "__main__":
    main()
