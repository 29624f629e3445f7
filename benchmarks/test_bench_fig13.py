"""Figure 13: media server read latency vs speed difference (2x-5x).

Paper: PPB's total read latency sits below the conventional FTL at
every speed difference, ~10% on average across the sweep.
"""

from conftest import report_and_check

from repro.bench.figures import figure13


def test_figure13_media_read_latency(benchmark, runner, base):
    report = benchmark.pedantic(
        figure13, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
