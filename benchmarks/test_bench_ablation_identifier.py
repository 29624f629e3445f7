"""Ablation A2: first-stage identifier choice.

The paper claims PPB "is compatible with any hot/cold data
identification mechanisms" (Section 3.1), using the size check as its
case study.  This bench swaps in the two alternatives.
"""

from repro.analysis.tables import ascii_table, format_pct
from repro.bench.figures import compare
from repro.core.config import PPBConfig


def test_ablation_identifier(benchmark, runner, base):
    def run():
        rows = []
        for identifier in ("size_check", "two_level_lru", "multi_hash"):
            conv, ppb = compare(
                runner, base, "web-sql", PPBConfig(identifier=identifier), speed_ratio=4.0
            )
            conv_read = conv.stats.host_read_us
            gain = (conv_read - ppb.stats.host_read_us) / conv_read
            rows.append([identifier, format_pct(gain),
                         f"{ppb.fast_page_read_fraction():.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        ["first-stage identifier", "read gain", "fast-half read fraction"],
        rows,
        title="Ablation: first-stage hot/cold identifier (web-sql, 4x)",
    ))
    gains = [float(r[1].rstrip("%")) for r in rows]
    assert all(g > -1.0 for g in gains)
    # the paper's size-check case study must deliver a solid gain
    assert gains[0] > 2.0
