#!/usr/bin/env python3
"""Exploring the reliability subsystem: errors, retries, and refresh.

The same channel taper that makes bottom-layer pages *fast* (paper
Section 2.1) also concentrates field stress on them, and every cell
leaks charge over retention time — fastest right after programming
("early retention loss", Luo et al., arXiv:1807.05140).  This study
walks the causal chain with numbers:

    channel taper -> per-layer RBER multiplier
    retention age + P/E cycles -> instantaneous RBER
    RBER -> ECC read-retry steps -> extra read latency
    refresh policy -> retention clock reset -> latency recovered

Run:  python examples/reliability_study.py
"""

from repro.analysis.charts import ascii_bars
from repro.analysis.tables import ascii_table
from repro.bench.reliability import ReliabilitySweepSpec, run_reliability_sweep
from repro.nand.spec import sim_spec
from repro.reliability.ecc import EccModel
from repro.reliability.manager import ReliabilityConfig
from repro.reliability.retention import SECONDS_PER_HOUR, RetentionModel
from repro.reliability.variation import VariationModel
from repro.scenario.spec import ScenarioSpec


def show_layer_variation() -> None:
    spec = sim_spec(num_layers=8, pages_per_block=384)
    model = VariationModel(spec, block_sigma=0.0)
    print(model.describe())
    labels = {0: " (top, slow)", 7: " (bottom, fast)"}
    print(ascii_bars(
        [f"layer {layer}" + labels.get(layer, "") for layer in range(8)],
        [float(m) for m in model.layer_multipliers],
        width=40,
        title="relative RBER by gate-stack layer (field-stress power law)",
        unit="x",
    ))


def show_retention_curve() -> None:
    model = RetentionModel()
    print()
    print(model.describe())
    ages_h = [0, 1, 6, 24, 24 * 7, 24 * 30, 24 * 90]
    print(ascii_bars(
        [f"{h}h" if h < 24 else f"{h // 24}d" for h in ages_h],
        [model.retention_factor(h * SECONDS_PER_HOUR) for h in ages_h],
        width=40,
        title="retention RBER multiplier vs age (early loss then slow creep)",
        unit="x",
    ))


def show_retry_staircase() -> None:
    ecc = EccModel()
    print()
    print(ecc.describe())
    rows = []
    for rber in (5e-4, 1e-3, 2e-3, 8e-3, 6.4e-2, 5.0e-1):
        steps, uncorrectable = ecc.retries_needed(rber)
        rows.append([f"{rber:.1e}", steps, "yes" if uncorrectable else "no"])
    print(ascii_table(
        ["RBER", "retry steps", "uncorrectable"],
        rows,
        title="ECC read-retry staircase",
    ))


def show_sweep() -> None:
    print()
    report = run_reliability_sweep(ReliabilitySweepSpec(
        speed_ratios=(4.0,),
        ages_hours=(0.0, 24.0, 720.0),
        base=ScenarioSpec(
            num_requests=5_000,
            device=sim_spec(blocks_per_chip=96),
            reliability=ReliabilityConfig(),
        ),
    ))
    print(report.render())


if __name__ == "__main__":
    show_layer_variation()
    show_retention_curve()
    show_retry_staircase()
    show_sweep()
