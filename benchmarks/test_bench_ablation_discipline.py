"""Ablation A3: VB-list allocation discipline and latency profile.

Two design-interpretation studies DESIGN.md calls out:

* ``pipelined`` vs ``strict`` Algorithm 1 — the literal reading keeps
  only one VB open per area and loses most of the speed segregation;
* latency profile shape (linear / geometric / physical) — the gain
  should survive any monotone per-layer curve.
"""

from repro.analysis.tables import ascii_table, format_pct
from repro.bench.figures import compare
from repro.core.config import PPBConfig


def test_ablation_allocation_discipline(benchmark, runner, base):
    def run():
        out = {}
        for discipline in ("pipelined", "strict"):
            conv, ppb = compare(
                runner,
                base,
                "web-sql",
                PPBConfig(allocation_discipline=discipline),
                speed_ratio=4.0,
            )
            conv_read = conv.stats.host_read_us
            out[discipline] = (
                (conv_read - ppb.stats.host_read_us) / conv_read,
                ppb.fast_page_read_fraction(),
            )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, format_pct(gain), f"{frac:.3f}"] for name, (gain, frac) in out.items()
    ]
    print()
    print(ascii_table(
        ["discipline", "read gain", "fast-half read fraction"],
        rows,
        title="Ablation: VB list discipline (web-sql, 4x)",
    ))
    # the pipelined interpretation must dominate the literal one
    assert out["pipelined"][0] > out["strict"][0]


def test_ablation_latency_profile(benchmark, runner, base):
    def run():
        rows = []
        for profile in ("linear", "geometric", "physical"):
            conv, ppb = compare(runner, base, "web-sql", speed_ratio=4.0, latency_profile=profile)
            conv_read = conv.stats.host_read_us
            gain = (conv_read - ppb.stats.host_read_us) / conv_read
            rows.append([profile, format_pct(gain)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(["latency profile", "read gain"], rows,
                      title="Ablation: per-layer latency profile (web-sql, 4x)"))
    gains = [float(r[1].rstrip("%")) for r in rows]
    assert all(g > 0 for g in gains), "gain must survive any monotone profile"
