"""Batch rendering of every paper artifact (used by the CLI and to
produce EXPERIMENTS.md)."""

from __future__ import annotations

from typing import Iterable

from repro.bench.figures import FIGURES, FULL, FigureReport
from repro.bench.memo import ReplayRunner
from repro.scenario.spec import ScenarioSpec


def run_figures(
    ids: Iterable[str] | None = None,
    runner: ReplayRunner | None = None,
    base: ScenarioSpec = FULL,
) -> list[FigureReport]:
    """Run the requested figures (default: all) and return their reports."""
    runner = runner or ReplayRunner()
    selected = list(ids) if ids is not None else list(FIGURES)
    reports = []
    for figure_id in selected:
        if figure_id not in FIGURES:
            raise KeyError(
                f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}"
            )
        reports.append(FIGURES[figure_id](runner, base))
    return reports


def render_reports(reports: Iterable[FigureReport]) -> str:
    """Concatenate rendered reports with separators."""
    blocks = [report.render() for report in reports]
    return ("\n\n" + "=" * 72 + "\n\n").join(blocks)
