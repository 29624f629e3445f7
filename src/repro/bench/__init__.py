"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.memo` runs :class:`~repro.scenario.spec.ScenarioSpec`\\ s
and memoizes traces and results by spec, so replays shared between
figures or sweep points (e.g. Figs. 13 and 16 use the same runs) pay
once.  :mod:`repro.bench.figures` derives each paper artifact's specs
from a base spec (:data:`~repro.bench.figures.FULL` or
:data:`~repro.bench.figures.SMOKE`) and renders paper-style reports.
The sweep scenarios (:mod:`repro.bench.reliability`,
:mod:`repro.bench.placement`) run on the same runner so their baselines
never replay twice.
"""

from repro.bench.memo import ReplayRunner
from repro.bench.placement import PlacementSweepSpec, run_placement_sweep
from repro.bench.reliability import ReliabilitySweepSpec, run_reliability_sweep
from repro.bench.figures import (
    FULL,
    SMOKE,
    FigureReport,
    compare,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    table1,
)

__all__ = [
    "ReplayRunner",
    "PlacementSweepSpec",
    "run_placement_sweep",
    "ReliabilitySweepSpec",
    "run_reliability_sweep",
    "FULL",
    "SMOKE",
    "FigureReport",
    "compare",
    "table1",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure18",
]
