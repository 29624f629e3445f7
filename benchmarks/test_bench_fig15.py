"""Figure 15: write performance enhancement vs page size (~zero).

Paper: between -0.02% and +0.10% — PPB leaves write latency unchanged
because data moves only during updates and GC, never as extra
foreground writes.
"""

from conftest import report_and_check

from repro.bench.figures import figure15


def test_figure15_write_enhancement(benchmark, runner, base):
    report = benchmark.pedantic(
        figure15, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
