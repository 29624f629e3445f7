"""Figure 14: web server read latency vs speed difference (2x-5x)."""

from conftest import report_and_check

from repro.bench.figures import figure14


def test_figure14_web_read_latency(benchmark, runner, base):
    report = benchmark.pedantic(
        figure14, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
