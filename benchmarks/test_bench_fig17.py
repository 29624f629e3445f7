"""Figure 17: web server write latency vs speed difference (identical)."""

from conftest import report_and_check

from repro.bench.figures import figure17


def test_figure17_web_write_latency(benchmark, runner, base):
    report = benchmark.pedantic(
        figure17, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
