"""Figure 12: read performance enhancement vs page size.

Paper: PPB improves reads on both traces, more at 16 KB than 8 KB,
up to 18.56% (web/SQL at 16 KB).
"""

from conftest import report_and_check

from repro.bench.figures import figure12


def test_figure12_read_enhancement(benchmark, runner, base):
    report = benchmark.pedantic(
        figure12, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
