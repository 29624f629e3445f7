"""Golden figure reports: every paper figure at a tiny base spec.

``tests/golden/data/figures_tiny.txt`` was captured while the figure
drivers still ran through a separate cell layer in front of
:class:`~repro.bench.memo.ReplayRunner`.  These tests pin that the
drivers, now spec factories on the runner, render byte-identical
reports and share runs across figures the way the cell cache did.  At
this scale some shape checks print ``[FAIL]``; the golden pins the
text, not the verdicts.

Regenerate only when a change is *meant* to alter results::

    PYTHONPATH=src python -c "
    from repro.bench.memo import ReplayRunner
    from repro.bench.reporting import render_reports, run_figures
    from repro.nand.spec import sim_spec
    from repro.scenario.spec import ScenarioSpec
    base = ScenarioSpec(num_requests=2_000, device=sim_spec(blocks_per_chip=64))
    print(render_reports(run_figures(None, ReplayRunner(), base)))
    " > tests/golden/data/figures_tiny.txt
"""

import os

import pytest

from repro.bench.memo import ReplayRunner
from repro.bench.reporting import render_reports, run_figures
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "figures_tiny.txt")

TINY = ScenarioSpec(num_requests=2_000, device=sim_spec(blocks_per_chip=64))


@pytest.fixture(scope="module")
def all_figures():
    """Every figure driven once through one fresh runner."""
    runner = ReplayRunner()
    text = render_reports(run_figures(None, runner, TINY))
    return text, runner.stats


def test_figure_reports_are_byte_identical(all_figures):
    text, _ = all_figures
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read()
    assert text + "\n" == expected, "figure reports drifted from golden"


def test_figures_share_runs(all_figures):
    """Figs. 13/16, 14/17 and 18 share replays; the page-size study's
    16 KB points reuse the 5x sweep points.  20 distinct simulations
    over 4 traces (2 workloads x 2 device capacities in pages)."""
    _, stats = all_figures
    assert stats.misses == 20
    assert stats.trace_builds == 4
