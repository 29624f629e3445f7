"""Figure 16: media server write latency vs speed difference (identical)."""

from conftest import report_and_check

from repro.bench.figures import figure16


def test_figure16_media_write_latency(benchmark, runner, base):
    report = benchmark.pedantic(
        figure16, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
