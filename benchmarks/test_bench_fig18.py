"""Figure 18: erased block count (GC efficiency retained).

Paper: PPB does not excessively increase the number of erased blocks —
the four-level separation keeps hot and cold data out of the same
physical blocks, so GC victim quality is preserved.
"""

from conftest import report_and_check

from repro.bench.figures import figure18


def test_figure18_erase_count(benchmark, runner, base):
    report = benchmark.pedantic(
        figure18, args=(runner, base), rounds=1, iterations=1
    )
    report_and_check(report)
