"""Reproduction of "Boosting the Performance of 3D Charge Trap NAND
Flash with Asymmetric Feature Process Size Characteristic" (DAC 2017).

The package provides, from the bottom up:

* :mod:`repro.nand` — a 3D charge-trap NAND device model whose pages
  have layer-dependent (asymmetric) access latency;
* :mod:`repro.traces` — MSR-Cambridge-format trace parsing and seeded
  synthetic enterprise workloads (media server, web/SQL server);
* :mod:`repro.ftl` — the speed-oblivious baselines: a conventional
  page-mapping FTL and the FAST hybrid log-buffer FTL;
* :mod:`repro.core` — the paper's contribution: the Progressive
  Performance Boosting (PPB) strategy (four-level hotness, virtual
  blocks, hot/cold areas);
* :mod:`repro.sim` — a discrete-event simulation kernel and the SSD
  front end used for trace replay;
* :mod:`repro.scenario` — the declarative experiment layer: one frozen
  :class:`~repro.scenario.spec.ScenarioSpec` to configure, serialize
  (JSON/TOML), sweep (dotted field paths) and cache every run;
* :mod:`repro.bench` — the harness regenerating every table and figure
  of the paper's evaluation.

Quickstart::

    from repro import quick_comparison
    print(quick_comparison())

    from repro import ScenarioSpec, run_scenario
    result = run_scenario(ScenarioSpec(ftl="ppb", num_requests=4000))
"""

from repro.core.config import PPBConfig
from repro.core.ppb_ftl import PPBFTL
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.fast import FastFTL
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec, sim_spec, table1_spec, tiny_spec
from repro.scenario import (
    PreconditionPhase,
    ScenarioSpec,
    SweepAxis,
    TenantSpec,
    load_scenario_file,
    run_scenario,
    run_scenarios,
    sweep,
)
from repro.sim.ssd import SSD, RunResult
from repro.traces.record import IORequest, OpType, Trace
from repro.traces.workloads import (
    MediaServerWorkload,
    PatternSuiteWorkload,
    UniformWorkload,
    WebSqlWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "NandSpec",
    "NandDevice",
    "sim_spec",
    "table1_spec",
    "tiny_spec",
    "ConventionalFTL",
    "FastFTL",
    "PPBFTL",
    "PPBConfig",
    "SSD",
    "RunResult",
    "ScenarioSpec",
    "TenantSpec",
    "PreconditionPhase",
    "SweepAxis",
    "load_scenario_file",
    "run_scenario",
    "run_scenarios",
    "sweep",
    "IORequest",
    "OpType",
    "Trace",
    "MediaServerWorkload",
    "WebSqlWorkload",
    "UniformWorkload",
    "PatternSuiteWorkload",
    "quick_comparison",
    "__version__",
]


def quick_comparison(
    workload: str = "web-sql",
    num_requests: int = 30_000,
    speed_ratio: float = 4.0,
    seed: int = 42,
) -> str:
    """Small conventional-vs-PPB comparison; returns a printable report.

    This is the library's "hello world": it builds a scaled device,
    synthesizes an enterprise workload, replays it under both FTLs and
    reports the read enhancement the PPB strategy achieves.
    """
    from repro.bench.experiment import BenchScale, Cell, ExperimentRunner, SMOKE_SCALE

    runner = ExperimentRunner()
    cell = Cell(
        workload=workload,
        speed_ratio=speed_ratio,
        seed=seed,
        scale=BenchScale(
            name="quick",
            num_requests=num_requests,
            blocks_per_chip=SMOKE_SCALE.blocks_per_chip,
        ),
    )
    base, ppb = runner.compare(cell)
    gain = (base.read_us - ppb.read_us) / base.read_us if base.read_us else 0.0
    lines = [
        f"workload       {workload} ({num_requests} requests, seed {seed})",
        f"speed ratio    {speed_ratio:.0f}x (slowest vs fastest page)",
        f"conventional   read {base.read_seconds:.3f} s, erases {base.erase_count}",
        f"ppb            read {ppb.read_seconds:.3f} s, erases {ppb.erase_count}",
        f"read gain      {gain * 100:.2f}%",
        f"fast-half reads under PPB: {ppb.fast_read_fraction * 100:.1f}%",
    ]
    return "\n".join(lines)
