"""Reliability scenario: the lifetime/latency trade-off sweep.

The paper's figures measure *latency only*; this scenario stresses the
same device model along the reliability axis opened by
:mod:`repro.reliability`.  One sweep runs a workload over the plane

    page access speed difference (the paper's 2x-5x knob)
        x retention age of the resident cold data (hours)

three times per point: the latency-only baseline, the reliability stack
without refresh, and the stack with the retention-aware refresh policy.
The report shows how retention (and the P/E cycling the replay itself
causes) inflates effective read latency through ECC read-retry steps,
and how much of that inflation the refresh policy buys back — plus what
refresh costs in background work and extra erases (lifetime).

Exposed as the ``reliability`` CLI subcommand and driven at smoke scale
by the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import ascii_matrix
from repro.analysis.tables import format_pct
from repro.bench.figures import FigureReport
from repro.bench.memo import ReplayRunner
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.reliability.retention import SECONDS_PER_HOUR
from repro.scenario.spec import ScenarioSpec

#: Default sweep axes: fresh, one day, one month, three months of
#: retention; both ends of the paper's speed-difference range.
DEFAULT_AGES_HOURS = (0.0, 24.0, 720.0, 2160.0)
DEFAULT_SPEED_RATIOS = (2.0, 4.0)


def _default_base() -> ScenarioSpec:
    """The scenario a default reliability sweep varies."""
    return ScenarioSpec(device=sim_spec(blocks_per_chip=96), reliability=ReliabilityConfig())


@dataclass(frozen=True)
class ReliabilitySweepSpec:
    """One reliability sweep: two axes over a base scenario.

    ``base`` fixes every knob the axes do not vary — workload, FTL,
    geometry, seed — and its ``reliability`` is the stack the aged and
    refreshed variants attach.  The sweep sets ``device.speed_ratio``,
    ``reliability``, ``refresh`` and ``retention_age_s`` per replay.
    """

    speed_ratios: tuple[float, ...] = DEFAULT_SPEED_RATIOS
    ages_hours: tuple[float, ...] = DEFAULT_AGES_HOURS
    base: ScenarioSpec = field(default_factory=_default_base)

    def __post_init__(self) -> None:
        if self.base.reliability is None:
            raise ConfigError(
                "base.reliability must be set: it is the stack the aged "
                "and refreshed variants attach"
            )


@dataclass
class ReliabilityPoint:
    """Measured outcome of one (speed ratio, retention age) sweep point."""

    speed_ratio: float
    age_hours: float
    #: mean host read service time per page (us) in the three modes.
    base_read_us: float
    aged_read_us: float
    refresh_read_us: float
    #: retry behavior without / with refresh.
    aged_retries_per_read: float
    refresh_retries_per_read: float
    uncorrectable_reads: int
    #: refresh work.
    refreshed_blocks: int
    refresh_copied_pages: int
    refresh_us: float
    #: lifetime cost: erases without reliability vs with refresh.
    base_erases: int
    refresh_erases: int

    @property
    def retention_penalty(self) -> float:
        """Relative read-latency inflation caused by retention errors."""
        if not self.base_read_us:
            return 0.0
        return (self.aged_read_us - self.base_read_us) / self.base_read_us

    @property
    def recovered_fraction(self) -> float:
        """Share of the retention penalty the refresh policy removed."""
        penalty = self.aged_read_us - self.base_read_us
        if penalty <= 0:
            return 0.0
        return min(1.0, (self.aged_read_us - self.refresh_read_us) / penalty)


def run_reliability_sweep(
    sweep: ReliabilitySweepSpec | None = None,
    runner: ReplayRunner | None = None,
) -> FigureReport:
    """Execute the sweep and package it as a figure-style report.

    Each point replays three variants (latency-only baseline, stack
    without refresh, stack with refresh); the baseline does not depend
    on retention age, so it is requested at every point and ``runner``'s
    memo serves every repeat after the first — pass a shared runner to
    extend that sharing across sweeps.  With ``runner.workers > 1`` the
    grid runs in the runner's process pool.
    """
    sweep = sweep or ReliabilitySweepSpec()
    runner = runner or ReplayRunner()
    grid: list[tuple[float, float]] = []
    requests: list[ScenarioSpec] = []
    for ratio in sweep.speed_ratios:
        stack = sweep.base.with_(device=sweep.base.device.replace(speed_ratio=ratio))
        baseline = stack.with_(reliability=None, refresh=False, retention_age_s=0.0)
        for age_hours in sweep.ages_hours:
            aged = stack.with_(refresh=False, retention_age_s=age_hours * SECONDS_PER_HOUR)
            grid.append((ratio, age_hours))
            requests += [baseline, aged, aged.with_(refresh=True)]
    results = runner.run_many(requests)
    points: list[ReliabilityPoint] = []
    for i, (ratio, age_hours) in enumerate(grid):
        base, aged, refreshed = results[3 * i : 3 * i + 3]
        aged_stats = aged.ftl.reliability.stats  # type: ignore[attr-defined]
        ref_stats = refreshed.ftl.reliability.stats  # type: ignore[attr-defined]
        points.append(
            ReliabilityPoint(
                speed_ratio=ratio,
                age_hours=age_hours,
                base_read_us=base.mean_read_page_us,
                aged_read_us=aged.mean_read_page_us,
                refresh_read_us=refreshed.mean_read_page_us,
                aged_retries_per_read=aged_stats.mean_retries_per_read,
                refresh_retries_per_read=ref_stats.mean_retries_per_read,
                uncorrectable_reads=aged_stats.uncorrectable_reads,
                refreshed_blocks=ref_stats.refresh_runs,
                refresh_copied_pages=ref_stats.refresh_copied_pages,
                refresh_us=ref_stats.refresh_us,
                base_erases=base.erase_count,
                refresh_erases=refreshed.erase_count,
            )
        )
    return _build_report(sweep, points)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _age_label(age_hours: float) -> str:
    if age_hours < 24.0:
        return f"{age_hours:.0f}h"
    return f"{age_hours / 24.0:.0f}d"


def _build_report(
    sweep: ReliabilitySweepSpec, points: list[ReliabilityPoint]
) -> FigureReport:
    base = sweep.base
    report = FigureReport(
        figure_id="Reliability",
        title=(
            f"Retention/variation sweep: {base.workload} on {base.ftl} "
            f"({base.num_requests} reqs, {base.device.blocks_per_chip} blocks)"
        ),
        paper_claim=(
            "beyond the paper: the feature-size taper also drives a "
            "reliability asymmetry — retention age and P/E cycling raise "
            "RBER, ECC read-retry converts that into read latency, and a "
            "retention-aware refresh recovers most of it (Luo et al., "
            "arXiv:1807.05140)"
        ),
        headers=[
            "speed",
            "age",
            "base rd (us/pg)",
            "no-refresh (us/pg)",
            "penalty",
            "refresh (us/pg)",
            "recovered",
            "retries/rd",
            "uncorr",
            "refr blocks",
            "refresh (s)",
            "extra erases",
        ],
    )
    for p in points:
        report.rows.append(
            [
                f"{p.speed_ratio:.0f}x",
                _age_label(p.age_hours),
                f"{p.base_read_us:.1f}",
                f"{p.aged_read_us:.1f}",
                format_pct(p.retention_penalty, signed=True),
                f"{p.refresh_read_us:.1f}",
                format_pct(p.recovered_fraction),
                f"{p.aged_retries_per_read:.2f}",
                p.uncorrectable_reads,
                p.refreshed_blocks,
                f"{p.refresh_us / 1e6:.2f}",
                p.refresh_erases - p.base_erases,
            ]
        )
    report.chart = ascii_matrix(
        [f"{r:.0f}x" for r in sweep.speed_ratios],
        [_age_label(a) for a in sweep.ages_hours],
        [
            [
                100.0 * next(
                    p for p in points
                    if p.speed_ratio == ratio and p.age_hours == age
                ).retention_penalty
                for age in sweep.ages_hours
            ]
            for ratio in sweep.speed_ratios
        ],
        title="read-latency penalty without refresh (%), speed ratio x retention age",
        unit="%",
    )
    report.checks = _shape_checks(sweep, points)
    return report


def _shape_checks(
    sweep: ReliabilitySweepSpec, points: list[ReliabilityPoint]
) -> list[tuple[str, bool]]:
    """Shape checks adapted to the sweep the user actually asked for.

    Age-dependent expectations only apply when the sweep contains an
    aged point (>= 1 day): sweeping ``--ages 0`` alone is a perfectly
    valid null experiment and must not fail a check that needs
    retention to have had an effect.
    """
    by_ratio: dict[float, list[ReliabilityPoint]] = {}
    for p in points:
        by_ratio.setdefault(p.speed_ratio, []).append(p)
    monotone = all(
        later.aged_read_us >= earlier.aged_read_us - 1e-9
        for pts in by_ratio.values()
        for earlier, later in zip(
            sorted(pts, key=lambda p: p.age_hours),
            sorted(pts, key=lambda p: p.age_hours)[1:],
        )
    )
    checks = [
        ("read latency is monotone in retention age (no refresh)", monotone),
        (
            "fresh data is (near) penalty-free (<= 2% at age 0)",
            all(p.retention_penalty <= 0.02 for p in points if p.age_hours == 0.0),
        ),
    ]
    oldest_aged = [
        max(aged, key=lambda p: p.age_hours)
        for pts in by_ratio.values()
        if (aged := [p for p in pts if p.age_hours >= 24.0])
    ]
    if oldest_aged:
        checks += [
            (
                "retention age measurably inflates read latency (>= 3% at max age)",
                all(p.retention_penalty >= 0.03 for p in oldest_aged),
            ),
            (
                "refresh recovers most of the retention penalty (>= 50% at max age)",
                all(p.recovered_fraction >= 0.50 for p in oldest_aged),
            ),
            (
                "refresh pays with background work, not silence (blocks refreshed at max age)",
                all(p.refreshed_blocks > 0 for p in oldest_aged),
            ),
        ]
    return checks
