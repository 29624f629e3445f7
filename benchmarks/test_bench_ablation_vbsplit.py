"""Ablation A1: k-way virtual block split.

The paper (Section 3.3.1) notes a physical block "can be divided into
multiple virtual blocks rather than two; however, the performance
enhancement and the overhead of maintaining the virtual blocks should
be balanced."  This bench sweeps the split factor.
"""

from repro.analysis.tables import ascii_table, format_pct
from repro.bench.figures import compare
from repro.core.config import PPBConfig


def test_ablation_vb_split(benchmark, runner, base):
    def run():
        rows = []
        for split in (2, 3, 4):
            conv, ppb = compare(runner, base, "web-sql", PPBConfig(vb_split=split), speed_ratio=4.0)
            conv_read = conv.stats.host_read_us
            gain = (conv_read - ppb.stats.host_read_us) / conv_read
            conv_erases = conv.stats.erase_count
            erase_delta = (
                (ppb.stats.erase_count - conv_erases) / conv_erases
                if conv_erases
                else 0.0
            )
            rows.append([f"{split}-way", format_pct(gain),
                         format_pct(erase_delta, signed=True)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(["VB split", "read gain", "erase delta"], rows,
                      title="Ablation: k-way virtual block split (web-sql, 4x)"))
    gains = [float(r[1].rstrip("%")) for r in rows]
    assert all(g > 0 for g in gains), "every split factor should beat the baseline"
